"""Tests for the validity checker — it must reject wrong top-K answers."""
import numpy as np
import pytest

from repro.indexes.base import TopK
from repro.indexes.brute_force import BlockedMM
from repro.mf.models import tiny_model
from tests.validate import assert_valid_topk, matrix_to_long


@pytest.fixture(scope="module")
def model():
    return tiny_model(m=12, n=10, f=4, seed=0)


@pytest.fixture(scope="module")
def good(model):
    return BlockedMM(model).query_vectors(model.users, 3)


def test_accepts_correct(model, good):
    assert_valid_topk(model, good, 3)


def test_rejects_wrong_item(model, good):
    bad_ids = good.ids.copy()
    # Replace each user's best item with their true worst item.
    full = model.users @ model.items.T
    bad_ids[:, 0] = full.argmin(axis=1)
    bad_scores = np.take_along_axis(full, bad_ids, 1)
    with pytest.raises(AssertionError):
        assert_valid_topk(model, TopK(ids=bad_ids, scores=bad_scores), 3)


def test_rejects_wrong_scores(model, good):
    with pytest.raises(AssertionError, match="scores disagree"):
        assert_valid_topk(model, TopK(ids=good.ids, scores=good.scores + 1.0), 3)


def test_rejects_duplicate_ids(model, good):
    ids = good.ids.copy()
    ids[:, 1] = ids[:, 0]
    sc = np.take_along_axis(model.users @ model.items.T, ids, 1)
    with pytest.raises(AssertionError, match="duplicate"):
        assert_valid_topk(model, TopK(ids=ids, scores=sc), 3)


def test_rejects_wrong_shape(model, good):
    with pytest.raises(AssertionError):
        assert_valid_topk(model, TopK(ids=good.ids[:, :2], scores=good.scores[:, :2]), 3)


def test_rejects_unsorted_scores(model, good):
    ids = good.ids[:, ::-1].copy()
    sc = good.scores[:, ::-1].copy()
    with pytest.raises(AssertionError, match="not sorted"):
        assert_valid_topk(model, TopK(ids=ids, scores=sc), 3)


def test_rejects_out_of_range_id(model, good):
    ids = good.ids.copy()
    ids[0, 0] = model.n + 5
    sc = good.scores.copy()
    with pytest.raises(AssertionError):
        assert_valid_topk(model, TopK(ids=ids, scores=sc), 3)


def test_subset_rows(model):
    rows = np.array([1, 4, 7])
    res = BlockedMM(model).query(rows, 2)
    assert_valid_topk(model, res, 2, user_rows=rows)


def test_matrix_to_long_roundtrip():
    g = np.random.default_rng(0)
    mat = g.normal(size=(4, 3))
    long = matrix_to_long(mat, "user_id")
    assert len(long) == 12
    assert list(long.columns) == ["user_id", "dim", "val"]
    back = long.pivot(index="user_id", columns="dim", values="val").to_numpy()
    np.testing.assert_allclose(back, mat)
