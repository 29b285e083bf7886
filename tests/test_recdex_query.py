"""Behavioral tests for RECDEX querying (parameter invariance, lesion)."""
import numpy as np
import pytest

from repro.core.recdex import RecdexIndex
from repro.indexes.brute_force import BlockedMM
from repro.linalg import bounded_walk as walk_module
from repro.mf.models import concentration_model, tiny_model
from tests.validate import assert_valid_topk


@pytest.fixture(scope="module")
def model():
    return concentration_model(n_users=80, n_items=60, f=6, kappa=20.0, seed=5)


@pytest.mark.parametrize("block", [1, 4, 16, 64, 1000])
def test_block_size_invariance(model, block):
    res = RecdexIndex(model, block=block).query_vectors(model.users, 5)
    assert_valid_topk(model, res, 5)


@pytest.mark.parametrize("chunk", [1, 3, 16, 500])
def test_walk_chunk_invariance(model, chunk, monkeypatch):
    monkeypatch.setattr(walk_module, "_MIN_CHUNK", chunk)
    res = RecdexIndex(model, block=8).query_vectors(model.users, 5)
    assert_valid_topk(model, res, 5)


@pytest.mark.parametrize("n_clusters", [1, 2, 8, 80])
def test_cluster_count_invariance(model, n_clusters):
    res = RecdexIndex(model, n_clusters=n_clusters, block=8).query_vectors(model.users, 3)
    assert_valid_topk(model, res, 3)


def test_lesion_matches_shared(model):
    shared = RecdexIndex(model, block=16, shared=True).query_vectors(model.users, 4)
    lesion = RecdexIndex(model, block=16, shared=False).query_vectors(model.users, 4)
    # Identical GEMM shapes are not guaranteed between the two paths, so
    # compare scores (not necessarily tied ids) and validate both.
    np.testing.assert_allclose(shared.scores, lesion.scores, atol=1e-9)
    assert_valid_topk(model, shared, 4)
    assert_valid_topk(model, lesion, 4)


def test_shuffled_user_rows(model):
    idx = RecdexIndex(model, block=8)
    rows = np.random.default_rng(0).permutation(model.m)[:17]
    res = idx.query(rows, 3)
    full = idx.query_vectors(model.users, 3)
    np.testing.assert_allclose(res.scores, full.scores[rows])


def test_more_clusters_than_users():
    small = tiny_model(m=5, n=12, f=3, seed=1)
    res = RecdexIndex(small, n_clusters=50, block=4).query_vectors(small.users, 3)
    assert_valid_topk(small, res, 3)


def test_paper_default_parameters():
    assert RecdexIndex(tiny_model()).n_clusters == 8  # paper: C=8
    # The paper's B=4096 scales with the item count as B = n/8, floored at 32.
    assert RecdexIndex(tiny_model(n=32768, f=2)).block == 4096
    assert RecdexIndex(tiny_model(n=100)).block == 32


def test_visits_fewer_items_when_concentrated():
    """Tighter user clusters ⇒ tighter θ_b ⇒ fewer items visited (w̄ ↓)."""

    def w_bar(kappa):
        m = concentration_model(n_users=150, n_items=400, f=8, kappa=kappa, seed=9)
        idx = RecdexIndex(m, block=16)
        idx.query_vectors(m.users, 1)
        return idx.items_visited / m.m

    assert w_bar(500.0) < w_bar(0.05)


def test_result_matches_brute_force_scores(model):
    ref = BlockedMM(model).query_vectors(model.users, 6)
    got = RecdexIndex(model, block=8).query_vectors(model.users, 6)
    np.testing.assert_allclose(got.scores, ref.scores, atol=1e-9)
