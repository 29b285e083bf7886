"""Shared vector kernels used by every MIPS strategy.

All strategies must agree bit-for-bit on the returned top-K *ids* so the
exactness tests can compare them directly.  The canonical ordering is
(score descending, item id ascending); ``canonical_topk`` enforces it.
One exact top-K selection serves every caller: a survivor filter
(``_survivors``) and a canonical sort of the survivors (``_pack_topk``).
``topk_with_ids`` runs both on float64 scores (the bounded walk's head and
every ``merge_topk``); ``topk_from_scores`` runs them on blocked MM's
blocks, re-scoring the survivors of a float32 block in float64 between the
two.
"""
from __future__ import annotations

import numpy as np

# Column groups whose maxima set ``_survivors``'s threshold.
_THRESHOLD_GROUPS = 64
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
    return np.arccos(np.clip(cos, -1.0, 1.0))


def canonical_topk(ids: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort per-row (ids, scores) pairs by score desc, then id asc.

    ``ids``/``scores`` are ``(m, k)``; returns the same shapes reordered.
    This is the tie-break every strategy must share for exact comparisons.
    """
    # lexsort keys are applied last-key-major: primary -scores, secondary ids.
    order = np.lexsort((ids, -scores), axis=1)
    rows = np.arange(ids.shape[0])[:, None]
    return ids[rows, order], scores[rows, order]


def _survivors(scores: np.ndarray, k: int, margin: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of every entry at or above its row's threshold, row-major.

    Each row's columns fall into ``g = min(n, max(2k, 64))`` strided groups
    (column ``j`` into group ``j mod g``, leaving out the last ``n mod g``);
    the group maxima are ``g`` distinct entries of the row, so the kth
    largest of them, ``T``, is at most the row's kth largest score, and at
    least ``k`` entries survive.  Twice ``k`` groups keep ``T`` near the kth
    score at large ``k`` (K = 50 on a 1024 × 1 200 block: 67 survivors per
    row, against 95 with ``k`` groups).  A per-row ``margin`` lowers ``T``
    to ``T - margin``, computed in float64 and cast to ``scores.dtype``;
    both roundings are monotone and every entry is representable in both
    types, so no entry at or above the exact ``T - margin`` is lost.
    ``1 <= k <= n``.
    """
    m, n = scores.shape
    g = min(n, max(2 * k, _THRESHOLD_GROUPS))
    full = n - n % g  # the last n mod g columns join no group
    group_max = scores[:, :full].reshape(m, full // g, g).max(axis=1)
    threshold = np.partition(group_max, g - k, axis=1)[:, g - k]
    if margin is not None:
        threshold = (threshold - margin).astype(scores.dtype)
    return np.divmod(np.flatnonzero(scores >= threshold[:, None]), n)


def _pack_topk(rows: np.ndarray, ids: np.ndarray, scores: np.ndarray, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical top-``k`` per row of survivors given as flat (row, id, score) triples.

    ``rows`` is ascending, with at least ``k`` survivors per row; each row's
    survivors are packed into a ``(m, most survivors)`` array padded with
    ``-inf`` and only those are sorted.
    """
    counts = np.bincount(rows, minlength=m)
    # Each survivor's slot within its row: survivors come in row-major order.
    slots = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    # A row with padding kept fewer than n entries, so its threshold, and
    # each of its top k, is above -inf: the padding sorts last, whatever its id.
    width = counts.max(initial=k)
    cand_ids = np.zeros((m, width), dtype=ids.dtype)
    cand_scores = np.full((m, width), -np.inf, dtype=scores.dtype)
    cand_ids[rows, slots] = ids
    cand_scores[rows, slots] = scores
    out_ids, out_scores = canonical_topk(cand_ids, cand_scores)
    return out_ids[:, :k], out_scores[:, :k]


def topk_with_ids(ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact canonical top-``k`` of ``scores`` labeled by ``ids``.

    ``scores`` is ``(m, n)``; ``ids`` is ``(n,)`` or ``(m, n)`` and gives
    the real item id of each column.  ``k`` is clamped to the column count.

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
    return _pack_topk(rows, np.broadcast_to(ids, scores.shape)[rows, cols], scores[rows, cols], m, k)


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
    taken over those values.
    """
    m, n = scores.shape
    if users is None or min(k, n) == 0:
        return topk_with_ids(np.arange(n), scores, k)
    k = min(k, n)
    rows, cols = _survivors(scores, k, margin)
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
    """Merge two per-row top-K candidate sets into one exact top-``k``.

    Both inputs are ``(m, *)`` with matching row counts; duplicate ids
    between the two sides are not expected (callers pass disjoint item
    ranges).  Ties broken canonically.
    """
    ids = np.concatenate([ids_a, ids_b], axis=1)
    scores = np.concatenate([scores_a, scores_b], axis=1)
    return topk_with_ids(ids, scores, k)
