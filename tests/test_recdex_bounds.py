"""Property tests for the RECDEX bound (Lemma 5.1) and index structure."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import recdex as recdex_module
from repro.core.kmeans import assign, kmeans
from repro.core.recdex import _KMEANS_ITERS, _KMEANS_SAMPLE, DEFAULT_CLUSTERS, RecdexIndex, cbound
from repro.experiments.grid import reference_grid
from repro.indexes.brute_force import BlockedMM
from repro.linalg.kernels import angles_to, row_norms
from repro.mf.models import MFModel, tiny_model


def _vec(f, lo=-5.0, hi=5.0):
    return st.lists(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False),
        min_size=f, max_size=f,
    ).map(np.array)


@settings(max_examples=150, deadline=None)
@given(u=_vec(4), c=_vec(4), i=_vec(4))
# θ(u, c) is 4e-8 rad: arccos of its rounded cosine read it 1 % off, below the bound's exact value.
@example(u=np.array([0.0, 3.0, 0.0, 1.192092896e-07]), c=np.array([0.0, 1.0, 0.0, 0.0]), i=np.array([0.0, 0.0, 0.0, 4.0]))
def test_cbound_upper_bounds_normalized_rating(u, c, i):
    """Lemma 5.1: r*_ci ≥ (u·i)/‖u‖ whenever θ(u,c) ≤ θ_b."""
    if np.linalg.norm(u) < 1e-6 or np.linalg.norm(c) < 1e-6 or np.linalg.norm(i) < 1e-6:
        return
    theta_uc = float(angles_to(u[None, :], c)[0])
    theta_ic = float(angles_to(i[None, :], c)[0])
    theta_b = theta_uc  # tightest admissible θ_b
    bound = float(cbound(np.array([theta_ic]), np.array([np.linalg.norm(i)]), theta_b)[0])
    normalized = float(u @ i) / float(np.linalg.norm(u))
    assert bound >= normalized - 1e-9


@settings(max_examples=100, deadline=None)
@given(u=_vec(4), c=_vec(4), i=_vec(4), extra=st.floats(0.0, 1.0))
def test_cbound_monotone_in_theta_b(u, c, i, extra):
    """Relaxing θ_b (Eqn. 2 → Eqn. 3) can only loosen the bound."""
    if np.linalg.norm(c) < 1e-6 or np.linalg.norm(i) < 1e-6 or np.linalg.norm(u) < 1e-6:
        return
    theta_ic = angles_to(i[None, :], c)
    norms = np.array([np.linalg.norm(i)])
    theta_b = float(angles_to(u[None, :], c)[0])
    tight = float(cbound(theta_ic, norms, theta_b)[0])
    loose = float(cbound(theta_ic, norms, min(theta_b + extra, np.pi))[0])
    assert loose >= tight - 1e-12


def test_cbound_caps_at_item_norm():
    theta_ic = np.array([0.3, 1.0, 2.0])
    norms = np.array([2.0, 3.0, 4.0])
    b = cbound(theta_ic, norms, theta_b=2.5)  # θ_b ≥ all θ_ic → bound = ‖i‖
    np.testing.assert_array_equal(b, norms)


def test_cbound_aligned_item():
    # θ_ic = 0 < θ_b is false when θ_b=0... θ_b < θ_ic fails → bound = ‖i‖.
    b = cbound(np.array([0.0]), np.array([5.0]), theta_b=0.0)
    np.testing.assert_array_equal(b, [5.0])


def test_cbound_vectorized_matches_scalar():
    g = np.random.default_rng(0)
    theta_ic = g.uniform(0, np.pi, 20)
    norms = g.uniform(0.1, 3.0, 20)
    theta_b = 0.7
    vec = cbound(theta_ic, norms, theta_b)
    for j in range(20):
        want = norms[j] * np.cos(theta_ic[j] - theta_b) if theta_b < theta_ic[j] else norms[j]
        assert vec[j] == pytest.approx(want)


# --- index-structure invariants -------------------------------------------

@pytest.fixture(scope="module")
def built_index():
    model = tiny_model(m=80, n=50, f=6, seed=42)
    idx = RecdexIndex(model, n_clusters=5, block=8)
    idx.build()
    return model, idx


def test_cluster_lists_sorted_descending(built_index):
    """Property 5.1: each L_c is sorted descending by r*_ci."""
    _, idx = built_index
    for bounds in idx.bounds:
        assert np.all(np.diff(bounds) <= 1e-12)


def test_cluster_lists_cover_all_items(built_index):
    model, idx = built_index
    for order in idx.orders:
        assert sorted(order.tolist()) == list(range(model.n))


def _members(model, idx):
    """Each cluster's users, by the nearest-center rule the query applies."""
    labels, _ = assign(model.users, idx.centers)
    return [np.nonzero(labels == j)[0] for j in range(len(idx.centers))]


def test_theta_b_covers_all_members(built_index):
    """θ_b must be ≥ every member's angle to the centroid."""
    model, idx = built_index
    for theta_b, center, rows in zip(idx.theta_b, idx.centers, _members(model, idx)):
        member_angles = angles_to(model.users[rows], center)
        assert member_angles.max() <= theta_b + 1e-12


def test_clusters_partition_users(built_index):
    model, idx = built_index
    members = _members(model, idx)
    assert all(rows.size for rows in members)
    all_rows = np.concatenate(members)
    assert sorted(all_rows.tolist()) == list(range(model.m))


def test_bounds_dominate_member_normalized_scores(built_index):
    """End-to-end Lemma 5.1 on a real built index."""
    model, idx = built_index
    for order, bounds, rows in zip(idx.orders, idx.bounds, _members(model, idx)):
        users = model.users[rows]
        norms = np.linalg.norm(users, axis=1, keepdims=True)
        normalized = (users @ model.items[order].T) / np.maximum(norms, 1e-12)
        assert np.all(normalized <= bounds[None, :] + 1e-9)


def test_items_visited_counter(built_index):
    model, _ = built_index
    idx = RecdexIndex(model, n_clusters=5, block=8)
    idx.build()
    assert idx.items_visited == 0
    idx.query_vectors(model.users, 3)
    assert idx.items_visited >= model.m * min(3, model.n)
    assert idx.items_visited <= model.m * model.n


def test_build_timings_recorded(built_index):
    _, idx = built_index
    assert set(idx.timings) == {"cluster", "bound", "sort"}
    assert all(v >= 0 for v in idx.timings.values())


def test_build_idempotent(built_index):
    model, idx = built_index
    before = [bounds.copy() for bounds in idx.bounds]
    idx.build()
    for bounds, b in zip(idx.bounds, before):
        np.testing.assert_array_equal(bounds, b)


# --- the whole-array build against a per-cluster reference ----------------

def _reference_build(model, n_clusters):
    """Algorithm 1's construction run one cluster at a time.

    k-means runs on a seed-0 draw of ``_KMEANS_SAMPLE`` users without
    replacement, in row order, and every user joins its nearest center.  Returns ``(centers, theta_b, orders, bounds)`` with
    one row per non-empty cluster, the layout ``RecdexIndex.build`` stores.
    """
    sample = model.users
    if model.m > _KMEANS_SAMPLE:
        rows = np.random.default_rng(0).choice(model.m, _KMEANS_SAMPLE, replace=False)
        sample = model.users[np.sort(rows)]
    _, centers = kmeans(sample, n_clusters, n_iters=_KMEANS_ITERS, seed=0)
    labels, _ = assign(model.users, centers)
    present, labels = np.unique(labels, return_inverse=True)
    centers = centers[present]
    item_norms = row_norms(model.items)
    user_angles = angles_to(model.users, centers[labels])
    theta_b, orders, bounds = [], [], []
    for j, center in enumerate(centers):
        theta_b.append(float(user_angles[labels == j].max()))
        b = cbound(angles_to(model.items, center), item_norms, theta_b[-1])
        orders.append(np.argsort(-b, kind="stable"))
        bounds.append(b[orders[-1]])
    return centers, np.array(theta_b), np.array(orders), np.array(bounds)


def _duplicate_users_model():
    """40 users drawn from 4 distinct vectors: 7 clusters leave some empty."""
    g = np.random.default_rng(3)
    users = g.integers(-3, 4, size=(4, 5)).astype(np.float64)[g.integers(4, size=40)]
    return MFModel(name="duplicate-users", users=users, items=g.normal(size=(30, 5)))


_REFERENCE_CASES = [
    pytest.param(model, n_clusters, id=model.name)
    for model, n_clusters in [
        (tiny_model(m=80, n=50, f=6, seed=42), 5),
        (_duplicate_users_model(), 7),
        *((model, DEFAULT_CLUSTERS) for model in reference_grid(scale=1)),
    ]
]


@pytest.mark.parametrize("model, n_clusters", _REFERENCE_CASES)
def test_build_bit_equal_to_per_cluster_reference(model, n_clusters):
    idx = RecdexIndex(model, n_clusters=n_clusters)
    idx.build()
    centers, theta_b, orders, bounds = _reference_build(model, n_clusters)
    if model.name == "duplicate-users":
        assert len(centers) < n_clusters  # empty clusters were renumbered away
    np.testing.assert_array_equal(idx.centers, centers)
    np.testing.assert_array_equal(idx.theta_b, theta_b)
    np.testing.assert_array_equal(idx.orders, orders)
    np.testing.assert_array_equal(idx.bounds, bounds)


# --- k-means on a user sample, every user assigned --------------------------

def _int_cones_model(m=150, n=40, f=5, seed=8):
    """Integer users around three rays, so clusters are tight but not exact."""
    g = np.random.default_rng(seed)
    rays = g.integers(-4, 5, size=(3, f))
    users = rays[g.integers(3, size=m)] * g.integers(1, 3, size=(m, 1)) + g.integers(-1, 2, size=(m, f))
    items = g.integers(-4, 5, size=(n, f))
    return MFModel(name="int-cones", users=users.astype(np.float64), items=items.astype(np.float64))


@pytest.fixture
def sampled(monkeypatch):
    """A model with more users than a shrunken ``_KMEANS_SAMPLE``, and the rows k-means saw."""
    model = _int_cones_model()
    monkeypatch.setattr(recdex_module, "_KMEANS_SAMPLE", 40)
    seen = []

    def spy(x, k, **kw):
        seen.append(x)
        return kmeans(x, k, **kw)

    monkeypatch.setattr(recdex_module, "kmeans", spy)
    return model, seen


def test_sampled_kmeans_sees_only_the_sample(sampled):
    model, seen = sampled
    RecdexIndex(model, n_clusters=4).build()
    (x,) = seen
    assert len(x) == 40 < model.m


def test_sampled_build_keeps_every_user_in_its_cone(sampled, monkeypatch):
    """θ_b covers every user, sampled or not, so no build user is answered by the out-of-cone fallback."""
    model, _ = sampled
    idx = RecdexIndex(model, n_clusters=4, block=4)
    idx.build()
    labels, _ = assign(model.users, idx.centers)
    assert np.all(angles_to(model.users, idx.centers[labels]) <= idx.theta_b[labels])
    fallback = []
    monkeypatch.setattr(recdex_module, "blocked_mm_topk", lambda *a: fallback.append(a))
    idx.query_vectors(model.users, 3)
    assert fallback == []


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("k", [1, 5])
def test_sampled_build_answers_bit_equal_to_mm(sampled, shared, k):
    model, _ = sampled
    got = RecdexIndex(model, n_clusters=4, block=4, shared=shared).query_vectors(model.users, k)
    ref = BlockedMM(model).query_vectors(model.users, k)
    np.testing.assert_array_equal(got.ids, ref.ids)
    np.testing.assert_array_equal(got.scores, ref.scores)


def test_sampled_builds_identical(sampled):
    model, _ = sampled
    a, b = RecdexIndex(model, n_clusters=4), RecdexIndex(model, n_clusters=4)
    a.build()
    b.build()
    for name in ("centers", "theta_b", "orders", "bounds"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_unsampled_build_clusters_as_kmeans_of_all_users():
    """With ``m <= _KMEANS_SAMPLE``, the clusters are k-means's own over every user."""
    model = _int_cones_model()
    assert model.m <= _KMEANS_SAMPLE
    idx = RecdexIndex(model, n_clusters=4)
    idx.build()
    labels, centers = kmeans(model.users, 4, n_iters=_KMEANS_ITERS, seed=0)
    present, labels = np.unique(labels, return_inverse=True)
    np.testing.assert_array_equal(idx.centers, centers[present])
    np.testing.assert_array_equal(assign(model.users, idx.centers)[0], labels)
