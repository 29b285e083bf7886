"""Tests for the Strategy protocol."""
import numpy as np

from repro.core.recdex import RecdexIndex
from repro.indexes.brute_force import BlockedMM
from repro.indexes.fexipro import FexiproIndex
from repro.indexes.lemp import LempIndex
from repro.mf.models import tiny_model


def test_batching_flags():
    m = tiny_model()
    assert BlockedMM(m).batching is True
    assert LempIndex(m).batching is True
    assert RecdexIndex(m).batching is True
    assert FexiproIndex(m).batching is False


def test_strategy_names():
    m = tiny_model()
    assert BlockedMM(m).name == "mm"
    assert LempIndex(m).name == "lemp"
    assert RecdexIndex(m).name == "recdex"


def test_build_sets_flag():
    m = tiny_model()
    for strat in (BlockedMM(m), LempIndex(m, bucket_size=8), RecdexIndex(m, block=8)):
        assert not strat.built
        strat.build()
        assert strat.built


def test_query_all_equals_query_arange():
    """Every user as a vector answers as every user as a row."""
    m = tiny_model(m=9, n=7, f=3, seed=2)
    strat = LempIndex(m, bucket_size=4)
    a = strat.query_vectors(m.users, 2)
    b = strat.query(np.arange(9), 2)
    np.testing.assert_array_equal(a.ids, b.ids)
