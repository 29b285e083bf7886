"""The benchmark's own float64 reference top-K and its exactness gate.

Deliberately independent of ``repro.linalg``: the reference selects by a
bound from a column subsample and a canonical sort of the survivors, so a
defect in the program's selection kernels cannot hide in the reference.
"""
from __future__ import annotations

import numpy as np

#: Scores computed with another blocking or BLAS kernel may differ in the
#: last bits.  Two scores within this many ulps of the user's largest
#: possible score magnitude (‖u‖·max‖v‖) count as tied.
TIE_ULPS = 64
_EPS = np.finfo(np.float64).eps
_BLOCK_CELLS = 1 << 21  # scores per reference block (16 MiB of float64)
_STRIDE = 8  # column subsample for the per-row lower bound on the kth score


def reference_topk(users: np.ndarray, items: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (score desc, id asc) top-``k`` per user, float64, blocked.

    Per row, the kth largest score of every ``_STRIDE``-th column is a
    lower bound on the row's true kth largest.  The items at or above it
    give the exact kth score; every item at or above that (ties included)
    is sorted canonically.
    """
    m, n = users.shape[0], items.shape[0]
    k = min(k, n)
    stride = _STRIDE if -(-n // _STRIDE) >= k else 1
    out_ids = np.empty((m, k), dtype=np.int64)
    out_sc = np.empty((m, k))
    items_t = np.ascontiguousarray(items.T, dtype=np.float64)
    block = max(1, _BLOCK_CELLS // n)
    for start in range(0, m, block):
        sc = np.asarray(users[start : start + block], dtype=np.float64) @ items_t
        sample = sc[:, ::stride]
        bound = np.partition(sample, sample.shape[1] - k, axis=1)[:, sample.shape[1] - k]
        row, col = np.nonzero(sc >= bound[:, None])  # row-major: rows ascending
        val = sc[row, col]
        # The exact kth score per row, from the survivors padded with -inf.
        pos = np.arange(len(row)) - np.searchsorted(row, row)
        pad = np.full((sc.shape[0], pos.max() + 1), -np.inf)
        pad[row, pos] = val
        kth = np.partition(pad, pad.shape[1] - k, axis=1)[:, pad.shape[1] - k]
        keep = val >= kth[row]
        row, col, val = row[keep], col[keep], val[keep]
        order = np.lexsort((col, -val, row))
        first = np.searchsorted(row[order], np.arange(sc.shape[0]))
        take = order[first[:, None] + np.arange(k)]
        out_ids[start : start + sc.shape[0]] = col[take]
        out_sc[start : start + sc.shape[0]] = val[take]
    return out_ids, out_sc


class Reference:
    """Reference answers for one model, at the largest K any cell asks."""

    def __init__(self, users: np.ndarray, items: np.ndarray, k_max: int):
        self.users = users
        self.items = items
        self.ids, self.scores = reference_topk(users, items, k_max)
        self.tol = TIE_ULPS * _EPS * np.linalg.norm(users, axis=1) * np.linalg.norm(items, axis=1).max()

    def check(self, ids: np.ndarray, scores: np.ndarray, k: int, rows: np.ndarray | None = None) -> str | None:
        """Return why the answer for ``rows`` (default: all users) is wrong, or None.

        Exact means: every row holds ``min(k, n)`` distinct valid item ids;
        each returned score is that item's true score; the scores match the
        reference's sorted top-K position by position; rows are in canonical
        order on the returned scores.  Ids may differ from the reference
        only between items whose true scores tie within ``tol``.
        """
        rows = np.arange(self.users.shape[0]) if rows is None else np.asarray(rows)
        m, n = len(rows), self.items.shape[0]
        k = min(k, n)
        ids = np.asarray(ids)
        scores = np.asarray(scores, dtype=np.float64)
        if ids.shape != (m, k) or scores.shape != (m, k):
            return f"shape {ids.shape}/{scores.shape}, expected {(m, k)}"
        if not np.issubdtype(ids.dtype, np.integer) or ids.min() < 0 or ids.max() >= n:
            return "item id out of range"
        tol = self.tol[rows, None]
        if not np.all(np.abs(scores - self.scores[rows, :k]) <= tol):
            return "scores differ from the reference top-K"
        for start in range(0, m, 4096):
            blk = slice(start, start + 4096)
            own = np.einsum("mkf,mf->mk", self.items[ids[blk]], self.users[rows[blk]])
            if not np.all(np.abs(own - scores[blk]) <= tol[blk]):
                return "a returned score is not its item's score"
        srt = np.sort(ids, axis=1)
        if np.any(srt[:, 1:] == srt[:, :-1]):
            return "duplicate item id in a row"
        hi, lo = scores[:, :-1], scores[:, 1:]
        canonical = (hi > lo) | ((hi == lo) & (ids[:, :-1] < ids[:, 1:]))
        if not np.all(canonical):
            return "row not in canonical (score desc, id asc) order"
        return None


def rows_from_long(pdf, m: int, k: int) -> tuple[np.ndarray, np.ndarray] | str:
    """Turn a collected ``(user_id, item_id, rank, score)`` frame into arrays.

    Returns the reason instead when the frame does not hold exactly ranks
    1..k for every user 0..m-1.
    """
    if len(pdf) != m * k:
        return f"{len(pdf)} rows collected, expected {m * k}"
    user = pdf["user_id"].to_numpy()
    rank = pdf["rank"].to_numpy()
    order = np.lexsort((rank, user))
    if not (
        np.array_equal(user[order], np.repeat(np.arange(m), k))
        and np.array_equal(rank[order], np.tile(np.arange(1, k + 1), m))
    ):
        return "collected rows do not cover ranks 1..k of every user once"
    ids = pdf["item_id"].to_numpy()[order].reshape(m, k)
    scores = pdf["score"].to_numpy()[order].reshape(m, k)
    return ids, scores
