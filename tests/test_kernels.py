"""Unit tests for repro.linalg.kernels."""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.kernels import (
    _survivors,
    angles_to,
    item_major,
    merge_topk,
    row_norms,
    topk_from_scores,
    topk_with_ids,
)


def test_row_norms_matches_numpy():
    g = np.random.default_rng(0)
    x = g.normal(size=(17, 5))
    np.testing.assert_allclose(row_norms(x), np.linalg.norm(x, axis=1))


def test_row_norms_zero_rows():
    x = np.zeros((3, 4))
    np.testing.assert_array_equal(row_norms(x), np.zeros(3))


@pytest.mark.parametrize("f", [1, 2, 7, 32])
def test_angles_to_range(f):
    g = np.random.default_rng(f)
    v = g.normal(size=(50, f))
    c = g.normal(size=f)
    th = angles_to(v, c)
    assert np.all(th >= 0) and np.all(th <= np.pi + 1e-12)


def test_angles_to_self_is_zero():
    g = np.random.default_rng(1)
    c = g.normal(size=6)
    th = angles_to(np.vstack([c, 2 * c, 0.5 * c]), c)
    np.testing.assert_allclose(th, 0.0, atol=1e-6)


def test_angles_to_opposite_is_pi():
    c = np.array([1.0, 0.0])
    th = angles_to(np.array([[-2.0, 0.0]]), c)
    np.testing.assert_allclose(th, np.pi, atol=1e-12)


def test_angles_to_orthogonal():
    c = np.array([1.0, 0.0])
    th = angles_to(np.array([[0.0, 3.0]]), c)
    np.testing.assert_allclose(th, np.pi / 2, atol=1e-12)


def test_angles_to_zero_vector_treated_aligned():
    c = np.array([1.0, 1.0])
    th = angles_to(np.zeros((2, 2)), c)
    np.testing.assert_array_equal(th, 0.0)


def test_angles_to_zero_center():
    th = angles_to(np.ones((3, 2)), np.zeros(2))
    np.testing.assert_array_equal(th, 0.0)


def test_angles_to_per_row_centers():
    """One center per row answers as each row against its own center, zeros included."""
    g = np.random.default_rng(2)
    v, c = g.normal(size=(20, 5)), g.normal(size=(20, 5))
    v[3], c[7] = 0.0, 0.0
    want = [angles_to(v[i : i + 1], c[i])[0] for i in range(20)]
    np.testing.assert_allclose(angles_to(v, c), want, atol=1e-12)
    assert angles_to(v, c)[3] == 0.0 and angles_to(v, c)[7] == 0.0


def _layouts(scores):
    """The block user-major (C order) and item-major (F order, as ``item_major`` callers score it).

    ``_survivors`` reads the layout from the memory order: it compares a
    user-major block whole and gathers an item-major one's qualifying
    groups.  With one row or one column the two orders coincide.
    """
    return {"user-major": np.ascontiguousarray(scores), "item-major": np.asfortranarray(scores)}


@pytest.mark.parametrize("k", [1, 2, 5, 11])
def test_topk_from_scores_matches_argsort(k):
    g = np.random.default_rng(k)
    for layout, scores in _layouts(g.normal(size=(20, 11))).items():
        ids, sc = topk_from_scores(scores, k)
        for r in range(20):
            want = np.argsort(-scores[r], kind="stable")[:k]
            np.testing.assert_array_equal(ids[r], want, err_msg=layout)
            np.testing.assert_allclose(sc[r], scores[r][ids[r]])


def _reference_topk(ids2d, scores, k):
    """Full per-row canonical sort, then the first ``k``."""
    out = [np.lexsort((ids2d[r], -scores[r]))[:k] for r in range(len(scores))]
    rows = np.arange(len(scores))[:, None]
    return ids2d[rows, out], scores[rows, out]


@st.composite
def _selection_cases(draw):
    """(ids, scores, k): heavy ties, -inf entries, all-equal and zero rows, n around 64, 128 and 256.

    ``k`` ∈ {1, n−1, n, n+5}; around half the threshold group count
    ``min(n, 128)``, where ``g = max(2k, 128)`` starts to grow with ``k``;
    or around the largest ``k`` that ``item_major`` sends to the gathered
    scan.  Ids ascend, are permuted, descend (so tied scores come in
    descending id order) or differ per row.
    """
    m = draw(st.integers(1, 6))
    n = draw(st.sampled_from([1, 2, 5, 63, 64, 65, 100, 127, 128, 129, 130, 200, 256, 257]))
    seed = draw(st.integers(0, 2**32 - 1))
    g = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["int", "neginf", "equal", "gauss"]))
    if kind in ("int", "neginf"):
        scores = g.integers(-2, 3, size=(m, n)).astype(np.float64)
        if kind == "neginf":
            scores[scores < 0] = -np.inf
    elif kind == "equal":
        scores = np.repeat(g.integers(-2, 3, size=(m, 1)), n, axis=1).astype(np.float64)
    else:
        scores = g.normal(size=(m, n))
    if draw(st.booleans()):  # a zero user vector scores 0 against every item
        scores[g.random(m) < 0.4] = 0.0
    layout = draw(st.sampled_from(["arange", "permuted", "descending", "2d"]))
    if layout == "arange":
        ids = np.arange(n)
    elif layout == "permuted":
        ids = g.permutation(n) * 3 + 7
    elif layout == "descending":
        ids = np.arange(n)[::-1] * 2 + 1
    else:
        ids = np.argsort(g.random((m, n)), axis=1)
    half = min(n, 128) // 2
    cross = max([j for j in range(1, n + 1) if item_major(j, n)], default=1)
    k = draw(
        st.sampled_from(
            [1, max(1, n - 1), n, n + 5, max(1, half - 1), max(1, half), half + 1, max(1, cross - 1), cross, cross + 1]
        )
    )
    return ids, scores, k


@settings(max_examples=300, deadline=None)
@given(case=_selection_cases())
def test_topk_with_ids_matches_full_sort(case):
    ids, scores, k = case
    want_ids, want_sc = _reference_topk(np.broadcast_to(ids, scores.shape), scores, k)
    for layout, block in _layouts(scores).items():
        got_ids, got_sc = topk_with_ids(ids, block, k)
        np.testing.assert_array_equal(got_ids, want_ids, err_msg=layout)
        np.testing.assert_array_equal(got_sc, want_sc, err_msg=layout)


@settings(max_examples=300, deadline=None)
@given(case=_selection_cases(), cut=st.floats(0.0, 1.0))
def test_merge_topk_matches_full_sort(case, cut):
    ids, scores, k = case
    ids2d = np.broadcast_to(ids, scores.shape)
    c = int(cut * scores.shape[1])
    got_ids, got_sc = merge_topk(ids2d[:, :c], scores[:, :c], ids2d[:, c:], scores[:, c:], k)
    want_ids, want_sc = _reference_topk(ids2d, scores, k)
    np.testing.assert_array_equal(got_ids, want_ids)
    np.testing.assert_array_equal(got_sc, want_sc)


@pytest.mark.parametrize("k", [1, 10])
def test_topk_from_scores_allocates_under_half_the_block(k):
    """Selection on a blocked-MM block, in either layout, must not copy the score matrix."""
    for layout, scores in _layouts(np.random.default_rng(0).normal(size=(1024, 2000))).items():
        tracemalloc.start()
        try:
            topk_from_scores(scores, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < scores.nbytes / 2, layout


def test_topk_from_scores_k_exceeds_n():
    scores = np.array([[3.0, 1.0, 2.0]])
    ids, sc = topk_from_scores(scores, 10)
    np.testing.assert_array_equal(ids, [[0, 2, 1]])
    np.testing.assert_array_equal(sc, [[3.0, 2.0, 1.0]])


def test_topk_from_scores_with_exact_ties_prefers_small_ids():
    scores = np.array([[1.0, 1.0, 1.0, 1.0]])
    ids, _ = topk_from_scores(scores, 2)
    np.testing.assert_array_equal(ids, [[0, 1]])


def test_merge_topk_combines_sides():
    ids_a = np.array([[0, 1]])
    sc_a = np.array([[5.0, 1.0]])
    ids_b = np.array([[10, 11]])
    sc_b = np.array([[3.0, 4.0]])
    ids, sc = merge_topk(ids_a, sc_a, ids_b, sc_b, 3)
    np.testing.assert_array_equal(ids, [[0, 11, 10]])
    np.testing.assert_array_equal(sc, [[5.0, 4.0, 3.0]])


def test_merge_topk_k_larger_than_total():
    ids_a = np.array([[0]])
    sc_a = np.array([[1.0]])
    ids_b = np.array([[1]])
    sc_b = np.array([[2.0]])
    ids, sc = merge_topk(ids_a, sc_a, ids_b, sc_b, 5)
    np.testing.assert_array_equal(ids, [[1, 0]])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 7, 64, 130, 257]),
    k=st.integers(1, 130),
    ulps=st.sampled_from([0.0, 0.3, 1.0, 2.5, 1e6]),
)
def test_survivors_keep_every_entry_within_margin_of_kth(seed, n, k, ulps):
    """Float32 scores with a float64 margin: no entry at or above ``kth - margin`` (exactly) is dropped.

    Margins of a fraction of a float32 ulp make the float64 subtraction and
    the cast to float32 round; neither may raise the threshold past an
    entry.  Both layouts, so both scans, are checked.
    """
    g = np.random.default_rng(seed)
    k = min(k, n)
    scores = (g.integers(-8, 9, size=(5, n)) / 8 + g.normal(size=(5, n)) * 2.0**-22).astype(np.float32)
    margin = ulps * 2.0**-24 * g.random(5)
    for layout, block in _layouts(scores).items():
        rows, cols = _survivors(block, k, margin)
        kept = set(zip(rows.tolist(), cols.tolist()))
        for r in range(5):
            kth = Fraction(float(np.sort(scores[r])[::-1][k - 1]))
            for c in range(n):
                if Fraction(float(scores[r, c])) >= kth - Fraction(float(margin[r])):
                    assert (r, c) in kept, layout


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 6),
    n=st.sampled_from([1, 5, 127, 128, 129, 200, 256, 257, 300]),
    k=st.sampled_from([1, 2, 5, 7, 8, 9, 10, 63, 64, 65, 300]),
    kind=st.sampled_from(["margin", "tied", "neginf", "zero-rows"]),
)
def test_survivor_scans_agree(seed, m, n, k, kind):
    """The gathered scan (item-major block) and the full one (user-major) return the same (rows, cols), in order."""
    g = np.random.default_rng(seed)
    k = min(k, n)
    margin = None
    if kind == "margin":
        scores = (g.integers(-8, 9, size=(m, n)) / 8 + g.normal(size=(m, n)) * 2.0**-22).astype(np.float32)
        margin = g.choice([0.0, 2.0**-25, 2.0**-23, 0.2], size=m) * g.random(m)
    else:
        scores = g.integers(-2, 3, size=(m, n)).astype(np.float64)
        if kind == "neginf":
            scores[scores < 1] = -np.inf
        elif kind == "zero-rows":
            scores[g.random(m) < 0.5] = 0.0
    blocks = _layouts(scores)
    full_rows, full_cols = _survivors(blocks["user-major"], k, margin)
    rows, cols = _survivors(blocks["item-major"], k, margin)
    np.testing.assert_array_equal(rows, full_rows)
    np.testing.assert_array_equal(cols, full_cols)
