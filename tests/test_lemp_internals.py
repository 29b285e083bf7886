"""White-box tests for LEMP-lite's norm-sorted list and pruning."""
import numpy as np
import pytest

from repro.indexes.lemp import LempIndex
from repro.linalg.kernels import row_norms
from repro.mf.models import tiny_model


@pytest.fixture(scope="module")
def built():
    model = tiny_model(m=40, n=57, f=6, seed=1)
    idx = LempIndex(model, bucket_size=10)
    idx.build()
    return model, idx


def _buckets(idx):
    """The walk's buckets: consecutive ``bucket_size`` chunks of the norm-sorted list."""
    starts = range(0, len(idx.order), idx.bucket_size)
    return [(idx.order[s : s + idx.bucket_size], idx.bounds[s]) for s in starts]


def test_buckets_cover_all_items(built):
    model, idx = built
    assert sorted(idx.order.tolist()) == list(range(model.n))
    all_ids = np.concatenate([ids for ids, _ in _buckets(idx)])
    assert sorted(all_ids.tolist()) == list(range(model.n))


def test_bucket_max_norms_descending(built):
    model, idx = built
    np.testing.assert_array_equal(idx.bounds, row_norms(model.items)[idx.order])
    assert np.all(np.diff(idx.bounds) <= 0)
    max_norms = [max_norm for _, max_norm in _buckets(idx)]
    assert all(a >= b - 1e-12 for a, b in zip(max_norms, max_norms[1:]))


def test_items_within_bucket_have_norm_leq_max(built):
    model, idx = built
    for ids, max_norm in _buckets(idx):
        assert row_norms(model.items[ids]).max() <= max_norm + 1e-12


def test_pruning_actually_skips_buckets():
    """With huge norm spread and K=1, late (tiny-norm) buckets must never
    contribute — verified by checking the result only uses big items."""
    g = np.random.default_rng(4)
    dirs = g.normal(size=(100, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    norms = np.concatenate([np.full(10, 100.0), np.full(90, 0.001)])
    from repro.mf.models import MFModel

    model = MFModel(name="spread", users=g.normal(size=(20, 4)), items=dirs * norms[:, None])
    idx = LempIndex(model, bucket_size=5)
    res = idx.query_vectors(model.users, 1)
    assert np.all(res.ids < 10)  # only large-norm items can win


def test_query_before_build_autobuilds():
    model = tiny_model(m=6, n=9, f=3, seed=5)
    idx = LempIndex(model, bucket_size=4)
    res = idx.query_vectors(model.users, 2)  # no explicit build()
    assert idx.built
    assert res.ids.shape == (6, 2)
