"""Shared vector kernels used by every MIPS strategy.

All strategies must agree bit-for-bit on the returned top-K *ids* so the
exactness tests can compare them directly.  The canonical ordering is
(score descending, item id ascending).

**One exact top-K selection** serves every caller: a survivor filter
(``_survivors``) and a canonical sort of the survivors (``_pack_topk``).
``topk_from_scores`` runs both on blocked MM's blocks, re-scoring the
survivors of a float32 block in float64 between the two;
``topk_with_ids`` runs them on the bounded walk's head, and
``merge_topk`` packs a running top-K with a chunk's entries at or above
its kth score.

*Canonical order without a lexsort.*  ``_pack_topk`` takes survivors whose
ids ascend within each row, so one stable argsort of the negated scores
leaves ties in ascending id order.  Blocked MM's columns ascend, and the
walk scores its head in ascending id order; merges, and ids in any other
order, first sort their candidates by one integer key ``row·span + id``
(``_by_row_and_id``).

*The threshold.*  Each row's columns fall into ``g = min(n, max(2k,
128))`` groups, and the kth largest group maximum bounds the row's kth
score from below.  It is read off one ``np.sort`` of the ``(m, g)``
maxima, which NumPy 1.26 vectorizes and ``np.partition`` does not: on
1024 float32 rows at K = 10 (one thread, 4-vCPU x86 host), a partition
took 0.80 ms on 64 maxima and 1.6 ms on 128, a sort 0.15 and 0.27 ms,
and 0.63 ms on 200.  On a 1024 × 1 200 float32 block, 128 groups cut the
group-max pass from 0.62 ms (64 groups) to 0.44 ms.

*The scan rule.*  An entry at or above the threshold lies in a group whose
maximum is at or above it, or in one of the ``n mod g`` ungrouped
columns.  When at most ``_GATHER_SHARE`` of a block's (row, group) pairs
qualify (about ``k / g``), ``_survivors`` compares only those groups'
columns and the ungrouped ones, and sorts the survivors by ``row·n +
col``: the same set, in the same row-major order, as a compare of the
whole block.  A gathered float32 entry costs about a cache line, where
the full compare streams 16 entries per line.  Survivor scans on 1024-row
float32 blocks of the scale-4 reference grid (medians of 33), full
compare → gather: K = 1 1.6 → 1.0 ms (netflix-f32-lo, 1 200 items),
3.2 → 1.9 ms (r2-f32-lo) and 15.6 → 8.8 ms (kdd-f16-hi, 8 000 items);
K = 5 1.9 → 1.5, 2.8 → 2.3 and 14.8 → 10.6 ms; K = 10 (share 0.08,
the full compare) within 10 % on the two lo models; K = 20 2.7 → 3.6,
4.1 → 4.7 and 15.0 → 14.6 ms; K = 50 5.4 → 8.5 ms on netflix-f32-lo.
"""
from __future__ import annotations

import numpy as np

# Column groups whose maxima set ``_survivors``'s threshold.
_THRESHOLD_GROUPS = 128
# ``_survivors`` compares only the qualifying groups' columns when at most
# this share of a block's (row, group) pairs qualify.
_GATHER_SHARE = 1 / 16
# ``angles_to`` recomputes the angle of rows whose |cosine| exceeds this
# (within 0.014 rad of 0 or π), where arccos is ill-conditioned.
_NEAR_PARALLEL = 0.9999
# Survivors ``topk_from_scores`` re-scores per gather: 2 048 pairs keep the
# gathered rows in cache (K = 50 on a 1024 × 1 200 block, f = 32: 4.6 ms,
# against 21 ms gathering every survivor at once).
_RESCORE_CHUNK = 2048


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
    so no entry at or above the exact ``T - margin`` is lost.  An entry at
    or above the threshold lies in a group whose maximum is, or among the
    ungrouped columns, so when few (row, group) pairs qualify only their
    columns are compared (see the module docstring).  ``1 <= k <= n``.
    """
    m, n = scores.shape
    g = min(n, max(2 * k, _THRESHOLD_GROUPS))
    s = n // g
    full = s * g  # the last n mod g columns join no group
    groups = scores[:, :full].reshape(m, s, g)
    group_max = groups.max(axis=1)
    threshold = np.sort(group_max, axis=1)[:, g - k]
    if margin is not None:
        threshold = (threshold - margin).astype(scores.dtype)
    qualify = group_max >= threshold[:, None]
    if np.count_nonzero(qualify) > _GATHER_SHARE * m * g:
        return np.divmod(np.flatnonzero(scores >= threshold[:, None]), n)
    # Row r's group c holds columns c, c + g, ..., c + (s - 1)g.
    r, c = np.divmod(np.flatnonzero(qualify), g)
    pair, step = np.divmod(np.flatnonzero(groups[r, :, c] >= threshold[r, None]), s)
    keys = r[pair] * n + c[pair] + step * g
    if full < n:
        rest_r, rest_c = np.divmod(np.flatnonzero(scores[:, full:] >= threshold[:, None]), n - full)
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


def topk_with_ids(ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact canonical top-``k`` of ``scores`` labeled by ``ids``.

    ``scores`` is ``(m, n)``; ``ids`` is ``(n,)`` or ``(m, n)`` and gives
    the real item id of each column.  ``k`` is clamped to the column count.
    Ids that ascend along each row (the bounded walk's head) go straight
    to ``_pack_topk``; others cost one argsort of the survivors' keys.

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
