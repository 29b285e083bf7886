"""Tests for MF model generators (concentration + ALS-backed)."""
import numpy as np
import pytest

from repro.linalg.kernels import angles_to
from repro.mf.models import MFModel, als_model, concentration_model, tiny_model


def test_model_properties():
    m = tiny_model(m=7, n=5, f=3)
    assert (m.m, m.n, m.f) == (7, 5, 3)


_OK = np.ones((4, 3))


@pytest.mark.parametrize(
    "users, items",
    [
        (np.ones(3), _OK),  # 1-D users
        (_OK, np.ones((2, 3, 1))),  # 3-D items
        (_OK, np.ones((5, 2))),  # rank mismatch
        (np.where(np.eye(4, 3) > 0, np.nan, 1.0), _OK),  # NaN user
        (_OK, np.full((5, 3), np.inf)),  # inf items
    ],
    ids=["1d-users", "3d-items", "rank-mismatch", "nan-users", "inf-items"],
)
def test_invalid_model_rejected(users, items):
    with pytest.raises(ValueError):
        MFModel(name="bad", users=users, items=items)


def test_concentration_model_shapes():
    m = concentration_model(n_users=30, n_items=20, f=6, kappa=1.0, seed=0)
    assert m.users.shape == (30, 6)
    assert m.items.shape == (20, 6)


def test_concentration_controls_angular_spread():
    """Higher κ ⇒ users hug their cone directions ⇒ smaller mean pairwise angle
    to the nearest cone — the property RECDEX exploits."""

    def mean_spread(kappa):
        m = concentration_model(
            n_users=200, n_items=10, f=8, kappa=kappa, n_cones=3, seed=1
        )
        # Spread measured against each cone direction via k-means-free proxy:
        # the norm of the mean of normalized user vectors (1 = perfectly tight).
        u = m.users / np.linalg.norm(m.users, axis=1, keepdims=True)
        return np.linalg.norm(u.mean(axis=0))

    assert mean_spread(100.0) > mean_spread(0.01)


def test_concentration_deterministic():
    a = concentration_model(n_users=10, n_items=5, f=4, kappa=2.0, seed=3)
    b = concentration_model(n_users=10, n_items=5, f=4, kappa=2.0, seed=3)
    np.testing.assert_array_equal(a.users, b.users)


def test_concentration_no_zero_vectors():
    m = concentration_model(n_users=50, n_items=40, f=5, kappa=0.5, seed=4)
    assert np.linalg.norm(m.users, axis=1).min() > 0
    assert np.linalg.norm(m.items, axis=1).min() > 0


def test_als_model_records_rmse_and_lambda():
    m = als_model(dataset="netflix", scale=0.02, f=4, lam=0.1, n_iters=3, seed=0)
    assert m.lam == 0.1
    assert np.isfinite(m.test_rmse)
    assert m.meta["dataset"] == "netflix"


def test_als_model_shapes_follow_dataset():
    m = als_model(dataset="glove", scale=0.02, f=4, lam=0.1, n_iters=2, seed=0)
    assert m.n > m.m  # GloVe analog: items dominate


@pytest.mark.parametrize("f", [3, 6])
def test_als_model_rank(f):
    m = als_model(dataset="r2", scale=0.01, f=f, lam=0.05, n_iters=2, seed=1)
    assert m.f == f


def test_high_lambda_concentrates_users():
    """The paper's Section 3 observation, reproduced on our ALS substrate:
    high regularization tends to concentrate the learned user vectors."""

    def tightness(lam):
        m = als_model(dataset="netflix", scale=0.05, f=6, lam=lam, n_iters=6, seed=2)
        u = m.users
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        u = u / np.maximum(norms, 1e-12)
        return np.linalg.norm(u.mean(axis=0))

    assert tightness(5.0) > tightness(1e-6)
