"""The bounded walk's two exits: bounds stop every user, or blocked MM answers the rest.

The head is one blocked MM call too: each spy tells the two kinds of call
apart by the item matrix it is handed.

Every model here has small-integer factors, so each float64 dot product
is exact whatever the GEMM shape, and the walk must return blocked MM's
ids and scores bit for bit.
"""
import numpy as np
import pytest

from repro.core.kmeans import assign
from repro.core.recdex import RecdexIndex
from repro.indexes.lemp import LempIndex
from repro.linalg import bounded_walk as walk_module
from repro.linalg.blocked_mm import blocked_mm_topk
from repro.linalg.bounded_walk import bounded_walk
from repro.linalg.kernels import row_norms
from repro.mf.models import MFModel


def _isotropic(seed=0, m=60, n=80, f=12):
    """Integer entries in [-4, 4]: flat norms, no direction preferred."""
    g = np.random.default_rng(seed)
    return MFModel(
        name="isotropic",
        users=g.integers(-4, 5, size=(m, f)).astype(np.float64),
        items=g.integers(-4, 5, size=(n, f)).astype(np.float64),
    )


def _concentrated(seed=0, m=60, n_small=100, f=4):
    """Users near one ray; a few long items along it, many short ones anywhere.

    Every user scores some long item far above any short item's norm, so
    a norm-sorted walk stops once the long items are scored.
    """
    g = np.random.default_rng(seed)
    ray = np.array([3.0, 2.0, 1.0, 2.0])[:f]
    users = ray * g.integers(1, 4, size=(m, 1)) + g.integers(-1, 2, size=(m, f))
    long_items = ray * np.arange(20, 28)[:, None] + g.integers(-2, 3, size=(8, f))
    short = g.integers(-1, 2, size=(n_small, f))
    items = np.vstack([short[: n_small // 2], long_items, short[n_small // 2 :]]).astype(np.float64)
    return MFModel(name="concentrated", users=users.astype(np.float64), items=items)


def _mm_spy(monkeypatch, items):
    """Record the walk's ``blocked_mm_topk`` calls: ``(rest, heads)``.

    A rest call is handed the full item matrix ``items`` and is recorded by
    its user count; a head call is handed a copy of the head's rows and is
    recorded as ``(user count, head items)``.
    """
    rest, heads = [], []

    def spy(users, mm_items, k):
        if mm_items is items:
            rest.append(len(users))
        else:
            heads.append((len(users), mm_items.copy()))
        return blocked_mm_topk(users, mm_items, k)

    monkeypatch.setattr(walk_module, "blocked_mm_topk", spy)
    return rest, heads


def _norm_walk(model, k, monkeypatch, *, first, chunk):
    """LEMP's walk, called directly with a ``first``-item head and a chunk floor of ``chunk``."""
    monkeypatch.setattr(walk_module, "_MIN_CHUNK", chunk)
    norms = row_norms(model.items)
    order = np.argsort(-norms, kind="stable")
    return bounded_walk(model.users, model.items, order, norms[order], k, first=first, max_norm=norms.max())


def _assert_mm(model, k, ids, scores):
    want_ids, want_scores = blocked_mm_topk(model.users, model.items, k)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(scores, want_scores)


@pytest.mark.parametrize("k", [1, 5, 20])
def test_isotropic_rest_goes_to_mm(k, monkeypatch):
    """Flat norms prune nothing: the rest goes to one MM call, and scores n pairs per user handed over."""
    model = _isotropic()
    calls, _ = _mm_spy(monkeypatch, model.items)
    ids, scores, scored = _norm_walk(model, k, monkeypatch, first=8, chunk=4)
    _assert_mm(model, k, ids, scores)
    assert len(calls) == 1
    head = max(8, k)
    assert scored >= model.m * head + calls[0] * model.n > model.m * head


@pytest.mark.parametrize("k", [1, 3])
def test_concentrated_bounds_stop_the_walk(k, monkeypatch):
    """Long items answer every user, so the bounds stop the walk before the short items and MM is never called."""
    model = _concentrated()
    calls, _ = _mm_spy(monkeypatch, model.items)
    ids, scores, scored = _norm_walk(model, k, monkeypatch, first=4, chunk=2)
    _assert_mm(model, k, ids, scores)
    assert calls == []
    assert scored < model.m * model.n // 4


def test_flat_bounds_hand_every_user_to_mm_at_once(monkeypatch):
    """Every bound equals the largest norm, so no user can stop: all go to MM after the head."""
    f = 4
    items = np.vstack([np.eye(f), -np.eye(f)] * 5)
    users = np.random.default_rng(3).integers(-3, 4, size=(25, f)).astype(np.float64)
    model = MFModel(name="axes", users=users, items=items)
    calls, _ = _mm_spy(monkeypatch, model.items)
    ids, scores, scored = _norm_walk(model, 2, monkeypatch, first=6, chunk=3)
    _assert_mm(model, 2, ids, scores)
    assert calls == [model.m]
    assert scored == model.m * (6 + model.n)


@pytest.mark.parametrize("make", [_isotropic, _concentrated])
@pytest.mark.parametrize("k", [1, 4])
def test_lemp_answers_do_not_depend_on_chunk(make, k, monkeypatch):
    model = make(seed=5)
    for chunk in [1, 3, 16, 500]:
        monkeypatch.setattr(walk_module, "_MIN_CHUNK", chunk)
        got = LempIndex(model, bucket_size=chunk).query_vectors(model.users, k)
        _assert_mm(model, k, got.ids, got.scores)


@pytest.mark.parametrize("make", [_isotropic, _concentrated])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("shared", [True, False])
def test_recdex_answers_do_not_depend_on_chunk(make, k, shared, monkeypatch):
    model = make(seed=6)
    for chunk in [1, 3, 16, 500]:
        monkeypatch.setattr(walk_module, "_MIN_CHUNK", chunk)
        idx = RecdexIndex(model, n_clusters=3, block=4, shared=shared)
        got = idx.query_vectors(model.users, k)
        _assert_mm(model, k, got.ids, got.scores)


def test_recdex_items_visited_counts_mm_pairs(monkeypatch):
    """RECDEX's w̄ numerator includes n pairs for each user its walks hand to MM."""
    model = _isotropic(seed=2)
    calls, _ = _mm_spy(monkeypatch, model.items)
    monkeypatch.setattr(walk_module, "_MIN_CHUNK", 2)
    idx = RecdexIndex(model, n_clusters=2, block=4)
    idx.query_vectors(model.users, 3)
    assert calls
    assert idx.items_visited >= model.m * 4 + sum(calls) * model.n


def test_one_head_call_per_lemp_block_and_recdex_cluster(monkeypatch):
    """Each RECDEX cluster and each LEMP user block scores its head in exactly one blocked MM call."""
    model = _isotropic(seed=4, m=50)
    k, first = 3, 8
    _, heads = _mm_spy(monkeypatch, model.items)
    idx = RecdexIndex(model, n_clusters=3, block=first)
    idx.build()
    members = np.bincount(assign(model.users, idx.centers)[0], minlength=len(idx.centers))
    got = idx.query_vectors(model.users, k)
    _assert_mm(model, k, got.ids, got.scores)
    assert [m for m, _ in heads] == members.tolist()
    for (_, head_items), order in zip(heads, idx.orders):
        np.testing.assert_array_equal(head_items, model.items[np.sort(order[:first])])

    heads.clear()
    monkeypatch.setattr(walk_module, "USER_BLOCK", 16)
    idx = LempIndex(model, bucket_size=first)
    got = idx.query_vectors(model.users, k)
    _assert_mm(model, k, got.ids, got.scores)
    assert [m for m, _ in heads] == [16, 16, 16, 2]
    for _, head_items in heads:
        np.testing.assert_array_equal(head_items, model.items[np.sort(idx.order[:first])])


def _straddling_ties(seed=0):
    """Users on the ray e₀; three items tie at 2·‖u‖ with norms that fall as their ids fall.

    Walked by norm, items 7, 5, 2 come in descending id order, so a head of
    two holds 7 and 5 and scores them in the order 5, 7; item 2 ties both
    and arrives in a later chunk, where the merge must rank it first.
    Forty short items (norm ≤ √3, score ≤ ‖u‖) follow, so the bounds stop
    the walk once item 2 is scored.
    """
    g = np.random.default_rng(seed)
    items = g.integers(-1, 2, size=(43, 3)).astype(np.float64)
    items[7], items[5], items[2] = [2.0, 2.0, 0.0], [2.0, 1.0, 0.0], [2.0, 0.0, 0.0]
    users = np.arange(1, 13)[:, None] * np.array([[1.0, 0.0, 0.0]])
    return MFModel(name="straddling-ties", users=users, items=items)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("bucket", [1, 2, 3])
def test_lemp_ties_straddling_head_and_chunk_match_mm(k, bucket, monkeypatch):
    """Bit-equal to MM with no rest call to MM: the head's and the merges' id tie-breaks decide."""
    model = _straddling_ties()
    calls, heads = _mm_spy(monkeypatch, model.items)
    monkeypatch.setattr(walk_module, "_MIN_CHUNK", bucket)
    idx = LempIndex(model, bucket_size=bucket)
    got = idx.query_vectors(model.users, k)
    _assert_mm(model, k, got.ids, got.scores)
    np.testing.assert_array_equal(got.ids[:, 0], 2)
    assert calls == []
    # One head call, over the head's items in ascending id order.
    assert len(heads) == 1
    np.testing.assert_array_equal(heads[0][1], model.items[np.sort(idx.order[: max(bucket, k)])])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("shared", [True, False])
def test_recdex_ties_straddling_head_and_chunk_match_mm(k, block, shared, monkeypatch):
    model = _straddling_ties()
    monkeypatch.setattr(walk_module, "_MIN_CHUNK", 1)
    got = RecdexIndex(model, n_clusters=2, block=block, shared=shared).query_vectors(model.users, k)
    _assert_mm(model, k, got.ids, got.scores)
