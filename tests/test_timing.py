"""Tests for the timing harness."""
import numpy as np

from repro.experiments.timing import time_strategy
from repro.indexes.brute_force import BlockedMM
from repro.indexes.lemp import LempIndex
from repro.mf.models import tiny_model


def test_time_strategy_phases():
    model = tiny_model(m=30, n=20, f=4, seed=0)
    t = time_strategy(lambda m: LempIndex(m, bucket_size=8), model, 3)
    assert t.strategy == "lemp"
    assert t.build_seconds >= 0 and t.query_seconds > 0
    assert t.total_seconds == t.build_seconds + t.query_seconds
    assert t.result.ids.shape == (30, 3)


def test_time_strategy_name_override():
    model = tiny_model(m=5, n=5, f=3, seed=1)
    t = time_strategy(lambda m: BlockedMM(m), model, 2, name="custom")
    assert t.strategy == "custom"


def test_time_strategy_result_exact():
    model = tiny_model(m=10, n=8, f=3, seed=2)
    t = time_strategy(lambda m: BlockedMM(m), model, 2)
    ref = BlockedMM(model).query_vectors(model.users, 2)
    np.testing.assert_array_equal(t.result.ids, ref.ids)


def test_time_strategy_repeats_sub_second_run():
    """A run under 1 s is repeated: the factory is called ``repeats`` times."""
    model = tiny_model(m=10, n=8, f=3, seed=3)
    made = []

    def factory(m):
        made.append(m)
        return BlockedMM(m)

    t = time_strategy(factory, model, 2, repeats=4)
    assert len(made) == 4
    assert t.result.ids.shape == (10, 2)
