"""Shared vector kernels used by every MIPS strategy.

All strategies must agree bit-for-bit on the returned top-K *ids* so the
exactness tests can compare them directly.  The canonical ordering is
(score descending, item id ascending).

**One exact top-K selection** serves every caller: a survivor filter
(``_survivors``) and a canonical sort of the survivors (``_pack_topk``).
``topk_from_scores`` runs both on blocked MM's blocks, the bounded walk's
head among them, re-scoring the survivors of a float32 block in float64
between the two, and ``merge_topk`` packs a running top-K with a chunk's
entries at or above its kth score.

*Canonical order without a lexsort.*  ``_pack_topk`` takes survivors whose
ids ascend within each row, so one stable argsort of the negated scores
leaves ties in ascending id order.  Blocked MM's columns ascend, and the
walk hands blocked MM its head's items in ascending id order; merges, and
ids in any other order, first sort their candidates by one integer key
``row·span + id`` (``_by_row_and_id``).

*The threshold.*  Each row's columns fall into ``g = min(n, max(2k,
128))`` groups, and the kth largest group maximum bounds the row's kth
score from below.  At K = 1 that is the largest group maximum, one
``max``; otherwise it is read off one ``np.sort`` of a C-contiguous copy
of the ``(m, g)`` maxima, which NumPy 1.26 vectorizes and
``np.partition`` does not: on 1024 float32 rows at K = 10 (one thread,
4-vCPU x86 host), a partition took 0.80 ms on 64 maxima and 1.6 ms on
128, a sort 0.15 and 0.27 ms, and 0.63 ms on 200.  Sorting the
transposed maxima of an item-major block in place of the copy took 0.78
against 0.31 ms.

*The layout picks the scan.*  An entry at or above the threshold lies in
a group whose maximum is at or above it, or in one of the ``n mod g``
ungrouped columns.  ``_survivors`` reads the block's memory order:

* a user-major block (C order, ``users @ items.T``) is compared whole,
  one streaming pass with one ``nonzero``;
* an item-major block (``(items @ users.T).T``, whose transpose is
  C-contiguous) has its group maxima taken over ``n // g`` contiguous
  ``(g, m)`` slabs, and then only the qualifying groups' columns and the
  ungrouped ones are compared; the survivors are sorted by ``row·n +
  col``, so they are the same set, in the same row-major order, as a
  compare of the whole block.

On a 1024 × 1 200 float32 block the slab maxima took 0.26 ms against 0.58
ms for the user-major middle-axis reduce.  A gathered entry costs about a
cache line, where the full compare streams 16 float32 entries per line,
so the gather pays only while few (row, group) pairs qualify, about ``k /
g``.  Blocked MM, ``item_major``'s one caller, therefore scores item-major
exactly when ``item_major(k, n)`` holds, ``k <= _GATHER_SHARE · g`` (K ≤
8 at ``g = 128``), and user-major otherwise.  ``topk_from_scores`` on
1024-row float32 blocks of the scale-4 reference grid (medians of 33; one
thread, OpenBLAS on its SapphireRapids kernels), user-major → item-major:
K = 1 1.57 → 0.71 ms (netflix-f32-lo, 1 200 items), 2.09 → 0.85 ms
(r2-f32-lo, 1 800), 14.5 → 4.3 ms (kdd-f16-hi, 8 000) and, at medians of
15, 50 → 21 ms (glove-f32-hi, 32 000); K = 5 0.51–0.90×; K = 8 0.73–1.01×
on the first three and 1.04–1.14× on glove-f32-hi; K = 9 and 10
0.76–1.01× on the first three and 1.19–1.32× on glove-f32-hi; K = 20
0.90–1.28× and 2.2× on glove-f32-hi; K = 50 1.23–2.33×.
"""
from __future__ import annotations

import numpy as np

# Column groups whose maxima set ``_survivors``'s threshold.
_THRESHOLD_GROUPS = 128
# Blocks are scored item-major, and ``_survivors`` then compares only the
# qualifying groups' columns, when k is at most this share of the group count.
_GATHER_SHARE = 1 / 16
# ``angles_to`` recomputes the angle of rows whose |cosine| exceeds this
# (within 0.014 rad of 0 or π), where arccos is ill-conditioned.
_NEAR_PARALLEL = 0.9999
# Survivors ``topk_from_scores`` re-scores per gather: 2 048 pairs keep the
# gathered rows in cache (K = 50 on a 1024 × 1 200 block, f = 32: 4.6 ms,
# against 21 ms gathering every survivor at once).
_RESCORE_CHUNK = 2048


def _groups(k: int, n: int) -> int:
    """Column groups whose maxima set ``_survivors``'s threshold for top-``k`` of ``n``."""
    return min(n, max(2 * k, _THRESHOLD_GROUPS))


def item_major(k: int, n: int) -> bool:
    """Whether a top-``k`` selection over ``n`` columns is handed an item-major block.

    True when ``k <= _GATHER_SHARE · g``; blocked MM then scores the block
    as ``(items @ users.T).T``, and ``_survivors`` gathers its qualifying
    groups (see the module docstring).
    """
    k = min(k, n)
    return k <= _GATHER_SHARE * _groups(k, n)


def row_norms(x: np.ndarray) -> np.ndarray:
    """L2 norm of each row of a 2-D array; shape ``(m,)``.

    ``einsum`` rather than ``np.linalg.norm(axis=1)`` — the latter is an
    order of magnitude slower on this container's NumPy build and these
    norms sit on RECDEX's index-construction path.
    """
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def angles_to(vectors: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Angular distance (radians, in [0, pi]) from each row to ``center``.

    ``center`` is one vector, or one center per row.  Zero-norm rows or a
    zero-norm center are defined to have angle 0 — a zero vector's inner
    product with anything is 0, and treating it as perfectly aligned keeps
    every bound that uses these angles conservative (cos(θ - θ_b) can only
    grow when θ shrinks).
    """
    if center.ndim == 1:
        dots, cn = vectors @ center, np.linalg.norm(center)
    else:
        dots, cn = np.einsum("ij,ij->i", vectors, center), row_norms(center)
    vn = row_norms(vectors)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = dots / (vn * cn)
    cos = np.where((vn == 0.0) | (cn == 0.0), 1.0, cos)
    theta = np.arccos(np.clip(cos, -1.0, 1.0))
    # Near cos = ±1, arccos of a rounded cosine loses the angle's low bits
    # (a 4e-8 rad angle comes back 1 % off); those rows alone are recomputed
    # as 2·atan2(‖v̂ − ĉ‖, ‖v̂ + ĉ‖), accurate to a few ulps.
    near = np.flatnonzero((np.abs(cos) > _NEAR_PARALLEL) & (vn > 0.0) & (cn > 0.0))
    if near.size:
        v_hat = vectors[near] / vn[near, None]
        c_hat = center / cn if center.ndim == 1 else center[near] / cn[near, None]
        theta[near] = 2.0 * np.arctan2(row_norms(v_hat - c_hat), row_norms(v_hat + c_hat))
    return theta


def _survivors(scores: np.ndarray, k: int, margin: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of every entry at or above its row's threshold, row-major.

    Each row's columns fall into ``g = min(n, max(2k, 128))`` strided groups
    (column ``j`` into group ``j mod g``, leaving out the last ``n mod g``);
    the group maxima are ``g`` distinct entries of the row, so the kth
    largest of them, ``T``, is at most the row's kth largest score, and at
    least ``k`` entries survive.  A per-row ``margin`` lowers ``T`` to
    ``T - margin``, computed in float64 and cast to ``scores.dtype``; both
    roundings are monotone and every entry is representable in both types,
    so no entry at or above the exact ``T - margin`` is lost.

    The block's memory order picks the scan (see the module docstring).  A
    row-major block is compared whole.  An item-major one (``scores.T``
    C-contiguous, as ``item_major`` asks callers to score it) has only the
    columns of each row's qualifying groups compared, and its ``n mod g``
    ungrouped ones: an entry at or above ``T`` lies in a group whose
    maximum is, or among those.  ``1 <= k <= n``.
    """
    m, n = scores.shape
    g = _groups(k, n)
    s = n // g
    full = s * g  # the last n mod g columns join no group
    by_item = scores.flags.f_contiguous and not scores.flags.c_contiguous
    if by_item:
        # s contiguous (g, m) slabs: slab t holds columns t·g ... t·g + g - 1.
        slabs = scores.T[:full].reshape(s, g, m)
        group_max = slabs.max(axis=0).T
    else:
        group_max = scores[:, :full].reshape(m, s, g).max(axis=1)
    if k == 1:
        threshold = group_max.max(axis=1)
    else:
        threshold = np.sort(np.ascontiguousarray(group_max), axis=1)[:, g - k]
    if margin is not None:
        threshold = (threshold - margin).astype(scores.dtype)
    if not by_item:
        return np.divmod(np.flatnonzero(scores >= threshold[:, None]), n)
    # Row r's group c holds columns c, c + g, ..., c + (s - 1)g.
    # (2-D ``np.nonzero`` is about 10× slower than ``flatnonzero`` + ``divmod``.)
    c, r = np.divmod(np.flatnonzero(group_max.T >= threshold), m)
    step, pair = np.divmod(np.flatnonzero(slabs[:, c, r] >= threshold[r]), c.size)
    keys = r[pair] * n + c[pair] + step * g
    if full < n:
        rest_c, rest_r = np.divmod(np.flatnonzero(scores.T[full:] >= threshold), m)
        keys = np.concatenate([keys, rest_r * n + full + rest_c])
    return np.divmod(np.sort(keys), n)


def _pack_topk(rows: np.ndarray, ids: np.ndarray, scores: np.ndarray, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical top-``k`` per row of survivors given as flat (row, id, score) triples.

    ``rows`` ascends, with at least ``k`` survivors per row, and within a
    row ``ids`` ascend.  Each row's negated scores are packed into a ``(m,
    most survivors)`` array padded with ``+inf``, and one stable argsort of
    it orders them: ties keep their packed, ascending-id order.
    """
    counts = np.bincount(rows, minlength=m)
    # Each survivor's slot within its row: survivors come in row-major order.
    slots = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    # Padding follows each row's survivors, so the stable sort puts it after
    # every survivor of equal score: it never enters a row's first k.
    width = counts.max(initial=k)
    cand_ids = np.zeros((m, width), dtype=ids.dtype)
    cand_neg = np.full((m, width), np.inf, dtype=scores.dtype)
    cand_ids[rows, slots] = ids
    cand_neg[rows, slots] = -scores
    order = np.argsort(cand_neg, axis=1, kind="stable")[:, :k]
    at = np.arange(m)[:, None]
    return cand_ids[at, order], -cand_neg[at, order]


def _by_row_and_id(rows: np.ndarray, ids: np.ndarray, scores: np.ndarray):
    """Flat (row, id, score) triples reordered so rows ascend and, within a row, ids ascend.

    One argsort of the integer key ``row·span + id``, skipped when the
    triples are already in that order; (row, id) pairs are distinct.
    """
    if ids.size:
        lo = ids.min()
        key = rows * (ids.max() - lo + 1) + (ids - lo)
        if np.any(key[1:] < key[:-1]):
            o = np.argsort(key)
            return rows[o], ids[o], scores[o]
    return rows, ids, scores


# No serve path calls this; it stays because mipsbench/tracing.py patches it
# by name, here and as repro.core.recdex.topk_with_ids.
def topk_with_ids(ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact canonical top-``k`` of ``scores`` labeled by ``ids``.

    ``scores`` is ``(m, n)``; ``ids`` is ``(n,)`` or ``(m, n)`` and gives
    the real item id of each column.  ``k`` is clamped to the column count.
    Ids that ascend along each row go straight to ``_pack_topk``; others
    cost one argsort of the survivors' keys.

    A threshold filter stands in for the paper's priority queue: every
    entry at or above a threshold no higher than the row's kth largest
    score survives (``_survivors``; ties of the kth score included), and
    the canonical (score desc, id asc) sort runs over the survivors only
    (``_pack_topk``).  Exact by construction.
    """
    m, n = scores.shape
    k = min(k, n)
    if k == 0:  # no columns
        return np.empty((m, 0), dtype=ids.dtype), np.empty((m, 0), dtype=scores.dtype)
    rows, cols = _survivors(scores, k)
    triples = _by_row_and_id(rows, np.broadcast_to(ids, scores.shape)[rows, cols], scores[rows, cols])
    return _pack_topk(*triples, m, k)


def topk_from_scores(
    scores: np.ndarray,
    k: int,
    users: np.ndarray | None = None,
    items: np.ndarray | None = None,
    margin: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` (ids, scores) per row; ids are column indices.

    Without ``users``, ``scores`` are the scores themselves.  With the
    float64 factors ``users`` ``(m, f)`` and ``items`` ``(n, f)``,
    ``scores`` is an estimate of ``users @ items.T`` (say float32), and
    ``margin`` is per row: every entry of the row's float64 top-``k``, ties
    included, has an estimate at least the row's kth estimate minus
    ``margin`` (``blocked_mm`` proves such a bound).  Entries that survive
    the lowered threshold are re-scored in float64, and the top-``k`` is
    taken over those values.  Survivors come in row-major order, so their
    columns already ascend within each row.
    """
    m, n = scores.shape
    k = min(k, n)
    if k == 0:
        return np.empty((m, 0), dtype=np.int64), np.empty((m, 0), dtype=scores.dtype)
    rows, cols = _survivors(scores, k, margin)
    if users is None:
        return _pack_topk(rows, cols, scores[rows, cols], m, k)
    exact = np.empty(rows.size)
    for s in range(0, rows.size, _RESCORE_CHUNK):
        r, c = rows[s : s + _RESCORE_CHUNK], cols[s : s + _RESCORE_CHUNK]
        np.einsum("ij,ij->i", users.take(r, axis=0), items.take(c, axis=0), out=exact[s : s + _RESCORE_CHUNK])
    return _pack_topk(rows, cols, exact, m, k)


def merge_topk(
    ids_a: np.ndarray,
    scores_a: np.ndarray,
    ids_b: np.ndarray,
    scores_b: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two per-row candidate sets into one exact canonical top-``k``.

    ``scores_a`` is ``(m, ka)`` with ids ``ids_a`` of the same shape, such
    as a running top-K; ``scores_b`` is ``(m, kb)`` with ids ``(kb,)`` or
    ``(m, kb)``, such as a newly scored chunk.  Ids of the two sides are
    disjoint.  When ``ka >= k``, a row's least ``a`` score is at most its
    kth largest, so only the ``b`` entries at or above it join the merge:
    the paper's K-heap rule (push an item only if it beats the heap's
    minimum), applied per entry.  Ties join, for the id tie-break.
    """
    m, ka = scores_a.shape
    kb = scores_b.shape[1]
    k = min(k, ka + kb)
    floor = scores_a.min(axis=1, initial=np.inf) if ka >= k else np.full(m, -np.inf)
    rows_b, cols_b = np.divmod(np.flatnonzero(scores_b >= floor[:, None]), kb)
    triples = _by_row_and_id(
        np.concatenate([np.repeat(np.arange(m), ka), rows_b]),
        np.concatenate([ids_a.ravel(), np.broadcast_to(ids_b, scores_b.shape)[rows_b, cols_b]]),
        np.concatenate([scores_a.ravel(), scores_b[rows_b, cols_b]]),
    )
    return _pack_topk(*triples, m, k)
