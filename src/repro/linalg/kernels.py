"""Shared vector kernels used by every MIPS strategy.

All strategies must agree bit-for-bit on the returned top-K *ids* so the
exactness tests can compare them directly.  The canonical ordering is
(score descending, item id ascending); ``canonical_topk`` enforces it.
``topk_with_ids`` is the one exact top-K selection: blocked MM's blocks,
the bounded walk's head and every ``merge_topk`` go through it.
"""
from __future__ import annotations

import numpy as np

# Column groups whose maxima set ``topk_with_ids``'s survivor threshold.
_THRESHOLD_GROUPS = 64


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


def topk_with_ids(ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact canonical top-``k`` of ``scores`` labeled by ``ids``.

    ``scores`` is ``(m, n)``; ``ids`` is ``(n,)`` or ``(m, n)`` and gives
    the real item id of each column.  ``k`` is clamped to the column count.

    A threshold filter stands in for the paper's priority queue.  Each
    row's columns fall into ``g = min(n, max(k, 64))`` strided groups
    (column ``j`` into group ``j mod g``, leaving out the last ``n mod g``);
    the group maxima are ``g`` distinct entries of the row, so the kth
    largest of them is at most the row's kth largest score.  Every entry
    at or above that threshold survives (ties of the kth score included),
    and the canonical (score desc, id asc) sort runs over the survivors
    only, packed into a ``(m, most survivors)`` array padded with
    ``-inf``.  Exact by construction.
    """
    m, n = scores.shape
    k = min(k, n)
    if k == 0:  # no columns
        return np.empty((m, 0), dtype=ids.dtype), np.empty((m, 0), dtype=scores.dtype)
    g = min(n, max(k, _THRESHOLD_GROUPS))
    full = n - n % g  # the last n mod g columns join no group
    group_max = scores[:, :full].reshape(m, full // g, g).max(axis=1)
    threshold = np.partition(group_max, g - k, axis=1)[:, g - k]
    rows, cols = np.divmod(np.flatnonzero(scores >= threshold[:, None]), n)
    counts = np.bincount(rows, minlength=m)
    # Each survivor's slot within its row: survivors come in row-major order.
    slots = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    ids2d = np.broadcast_to(ids, scores.shape)
    # A row with padding kept fewer than n entries, so its threshold, and
    # each of its top k, is above -inf: the padding sorts last, whatever its id.
    width = counts.max(initial=k)
    cand_ids = np.zeros((m, width), dtype=ids2d.dtype)
    cand_scores = np.full((m, width), -np.inf, dtype=scores.dtype)
    cand_ids[rows, slots] = ids2d[rows, cols]
    cand_scores[rows, slots] = scores[rows, cols]
    out_ids, out_scores = canonical_topk(cand_ids, cand_scores)
    return out_ids[:, :k], out_scores[:, :k]


def topk_from_scores(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` (ids, scores) per row; ids are column indices."""
    return topk_with_ids(np.arange(scores.shape[1]), scores, k)


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
