"""Tests for the blocked matrix-multiply baseline kernel."""
import numpy as np
import pytest

from repro.linalg import blocked_mm as mm_module
from repro.linalg.blocked_mm import blocked_mm_topk
from repro.linalg.kernels import topk_from_scores


@pytest.mark.parametrize("user_block", [1, 3, 7, 100])
def test_blocking_invariance(user_block, monkeypatch):
    """Result must not depend on the user block size."""
    g = np.random.default_rng(0)
    users, items = g.normal(size=(23, 5)), g.normal(size=(17, 5))
    ref_ids, ref_sc = blocked_mm_topk(users, items, 4)
    monkeypatch.setattr(mm_module, "USER_BLOCK", user_block)
    ids, sc = blocked_mm_topk(users, items, 4)
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_allclose(sc, ref_sc)


def test_matches_full_scores():
    g = np.random.default_rng(1)
    users, items = g.normal(size=(10, 4)), g.normal(size=(12, 4))
    ids, sc = blocked_mm_topk(users, items, 3)
    full = users @ items.T
    ref_ids, ref_sc = topk_from_scores(full, 3)
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_allclose(sc, ref_sc)


def test_k_clamped():
    g = np.random.default_rng(2)
    ids, sc = blocked_mm_topk(g.normal(size=(4, 3)), g.normal(size=(5, 3)), 99)
    assert ids.shape == (4, 5)


def test_scores_descending():
    g = np.random.default_rng(3)
    _, sc = blocked_mm_topk(g.normal(size=(20, 6)), g.normal(size=(30, 6)), 10)
    assert np.all(np.diff(sc, axis=1) <= 0)


def test_single_item():
    g = np.random.default_rng(4)
    users, items = g.normal(size=(5, 3)), g.normal(size=(1, 3))
    ids, sc = blocked_mm_topk(users, items, 1)
    np.testing.assert_array_equal(ids, np.zeros((5, 1)))
    np.testing.assert_allclose(sc[:, 0], users @ items[0])


def test_output_dtypes():
    g = np.random.default_rng(5)
    ids, sc = blocked_mm_topk(g.normal(size=(3, 2)), g.normal(size=(4, 2)), 2)
    assert ids.dtype == np.int64
    assert sc.dtype == np.float64
