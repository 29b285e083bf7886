"""Tests for the Lloyd's k-means substrate."""
import numpy as np
import pytest

from repro.core.kmeans import kmeans
from repro.core.recdex import _KMEANS_ITERS, DEFAULT_CLUSTERS
from repro.experiments.grid import reference_grid


def _loop_kmeans(x, k, *, n_iters=25, seed=0, tol=1e-7):
    """Reference: argmin assignment over (n, k) and a mean per cluster, one cluster at a time."""
    n = len(x)
    k = min(k, n)
    g = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[g.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j:] = x[g.integers(n, size=k - j)]
            break
        centers[j] = x[g.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1))
    x_sq = np.sum(x**2, axis=1)
    for _ in range(n_iters):
        d2 = x_sq[:, None] - 2.0 * (x @ centers.T) + np.sum(centers**2, axis=1)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        shift = 0.0
        for j in range(k):
            members = x[labels == j]
            if len(members) == 0:
                new_centers[j] = x[int(np.argmax(np.min(d2, axis=1)))]
            else:
                new_centers[j] = members.mean(axis=0)
            shift = max(shift, float(np.sum((new_centers[j] - centers[j]) ** 2)))
        centers = new_centers
        if shift < tol:
            break
    d2 = x_sq[:, None] - 2.0 * (x @ centers.T) + np.sum(centers**2, axis=1)
    return np.argmin(d2, axis=1), centers


def _assert_same_as_loop(x, k, **kw):
    labels, centers = kmeans(x, k, **kw)
    ref_labels, ref_centers = _loop_kmeans(x, k, **kw)
    np.testing.assert_array_equal(labels, ref_labels)
    np.testing.assert_allclose(centers, ref_centers, rtol=0, atol=1e-12)


def test_labels_and_centers_shapes():
    g = np.random.default_rng(0)
    x = g.normal(size=(100, 4))
    labels, centers = kmeans(x, 5, seed=0)
    assert labels.shape == (100,)
    assert centers.shape == (5, 4)
    assert labels.min() >= 0 and labels.max() < 5


def test_separated_clusters_recovered():
    g = np.random.default_rng(1)
    a = g.normal(size=(50, 3)) + np.array([10, 0, 0])
    b = g.normal(size=(50, 3)) + np.array([-10, 0, 0])
    x = np.vstack([a, b])
    labels, centers = kmeans(x, 2, seed=0)
    # All of a in one cluster, all of b in the other.
    assert len(np.unique(labels[:50])) == 1
    assert len(np.unique(labels[50:])) == 1
    assert labels[0] != labels[50]
    xs = np.sort(centers[:, 0])
    assert xs[0] < -8 and xs[1] > 8


def test_deterministic_in_seed():
    g = np.random.default_rng(2)
    x = g.normal(size=(60, 5))
    l1, c1 = kmeans(x, 4, seed=7)
    l2, c2 = kmeans(x, 4, seed=7)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(c1, c2)


def test_k_clamped_to_n_points():
    x = np.eye(3)
    labels, centers = kmeans(x, 10, seed=0)
    assert centers.shape[0] == 3
    assert len(np.unique(labels)) == 3


def test_single_cluster():
    g = np.random.default_rng(3)
    x = g.normal(size=(20, 2))
    labels, centers = kmeans(x, 1, seed=0)
    assert np.all(labels == 0)
    np.testing.assert_allclose(centers[0], x.mean(axis=0))


def test_identical_points():
    x = np.ones((15, 3))
    labels, centers = kmeans(x, 3, seed=0)
    assert labels.shape == (15,)
    assert np.all(np.isfinite(centers))


def test_assignment_is_nearest_center():
    g = np.random.default_rng(4)
    x = g.normal(size=(80, 4))
    labels, centers = kmeans(x, 4, seed=1)
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
    np.testing.assert_array_equal(labels, d2.argmin(axis=1))


@pytest.mark.parametrize("k", [2, 3, 8])
def test_inertia_not_worse_than_random_centers(k):
    g = np.random.default_rng(5)
    x = g.normal(size=(120, 6))
    labels, centers = kmeans(x, k, seed=2)
    inertia = ((x - centers[labels]) ** 2).sum()
    rand_centers = x[g.choice(120, k, replace=False)]
    d2 = ((x[:, None, :] - rand_centers[None, :, :]) ** 2).sum(-1)
    rand_inertia = d2.min(axis=1).sum()
    assert inertia <= rand_inertia + 1e-9


# --- the vectorized passes cluster exactly as the per-cluster loop --------

@pytest.mark.parametrize("k", [1, 2, 8, 33])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_same_clusters_as_loop_on_random_data(k, seed):
    g = np.random.default_rng(100 + seed)
    x = g.normal(size=(500, 7)) * g.uniform(0.1, 3.0, size=7)
    _assert_same_as_loop(x, k, n_iters=_KMEANS_ITERS, seed=seed)


@pytest.mark.parametrize("seed", [0, 3])
def test_same_clusters_as_loop_until_converged(seed):
    g = np.random.default_rng(seed)
    x = np.vstack([g.normal(size=(60, 3)) + c for c in ([6, 0, 0], [0, 6, 0], [0, 0, 6])])
    _assert_same_as_loop(x, 3, n_iters=200, seed=seed)


@pytest.mark.parametrize("model", reference_grid(scale=1), ids=lambda m: m.name)
def test_same_clusters_as_loop_on_grid(model):
    _assert_same_as_loop(model.users, DEFAULT_CLUSTERS, n_iters=_KMEANS_ITERS, seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_same_clusters_as_loop_with_more_clusters_than_distinct_points(seed):
    """Duplicate centers leave clusters empty: both re-seed them at the farthest point."""
    g = np.random.default_rng(seed)
    x = g.integers(-3, 4, size=(4, 3)).astype(np.float64)[g.integers(4, size=40)]
    _assert_same_as_loop(x, 7, n_iters=_KMEANS_ITERS, seed=seed)
    labels, _ = kmeans(x, 7, n_iters=_KMEANS_ITERS, seed=seed)
    assert len(np.unique(labels)) <= 4  # some of the 7 clusters stayed empty


def test_same_clusters_as_loop_on_identical_points():
    x = np.full((25, 4), 2.0)
    _assert_same_as_loop(x, 5, n_iters=_KMEANS_ITERS, seed=0)
