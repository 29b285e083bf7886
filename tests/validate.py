"""Top-K validity checking for the tests.

Two notions of correctness:

* ``assert_valid_topk`` — tolerance-aware: the returned set must be *a*
  correct top-K under true float64 scores, allowing different members of a
  score-tied group (ties cannot be ordered consistently across strategies
  that compute the same dot product with different BLAS call shapes — the
  results differ in the last ulp).
* strict bitwise equality — only meaningful when arithmetic is exact; the
  test suite uses it on small-integer-valued models, where every float64
  dot product is exact regardless of summation order and the canonical
  (score desc, id asc) tie-break is therefore deterministic.
"""
from __future__ import annotations

import numpy as np

import pandas as pd

from repro.indexes.base import TopK
from repro.mf.models import MFModel

#: DuckDB query reproducing exact top-K over exploded factor matrices.
#: Used with ``tests.oracle.assert_equivalent`` against the Spark serving
#: output — tie-break (score desc, item_id asc) matches the canonical rule.
TOPK_ORACLE_SQL = """
WITH scores AS (
    SELECT u.user_id, i.item_id, SUM(u.val * i.val) AS score
    FROM users_long u JOIN items_long i USING (dim)
    GROUP BY u.user_id, i.item_id
), ranked AS (
    SELECT user_id, item_id, score,
           ROW_NUMBER() OVER (
               PARTITION BY user_id ORDER BY score DESC, item_id
           ) AS rank
    FROM scores
)
SELECT user_id, item_id, CAST(rank AS INTEGER) AS rank, score
FROM ranked WHERE rank <= {k}
"""


def matrix_to_long(mat: np.ndarray, id_col: str) -> pd.DataFrame:
    """Explode an ``(n, f)`` matrix to ``(id_col, dim, val)`` long format.

    This is the orderable scalar layout the DuckDB oracle consumes —
    array columns are not comparable in ``assert_equivalent``.
    """
    n, f = mat.shape
    return pd.DataFrame(
        {
            id_col: np.repeat(np.arange(n, dtype=np.int64), f),
            "dim": np.tile(np.arange(f, dtype=np.int64), n),
            "val": mat.ravel(),
        }
    )


def assert_valid_topk(
    model: MFModel,
    res: TopK,
    k: int,
    *,
    user_rows: np.ndarray | None = None,
    tol: float = 1e-8,
) -> None:
    """Assert ``res`` is an exact top-``k`` answer up to float tolerance.

    Checks, per user: correct shape; distinct ids; reported scores match
    true scores; scores non-increasing; and no excluded item beats the kth
    included score by more than ``tol``.
    """
    rows = np.arange(model.m) if user_rows is None else np.asarray(user_rows)
    users = model.users[rows]
    k = min(k, model.n)
    assert res.ids.shape == (len(rows), k), (res.ids.shape, (len(rows), k))
    assert res.scores.shape == (len(rows), k)
    items_t = model.items.T
    for r in range(len(rows)):
        true = users[r] @ items_t
        ids = res.ids[r]
        assert len(np.unique(ids)) == k, f"duplicate ids in row {r}: {ids}"
        assert ids.min() >= 0 and ids.max() < model.n, f"id out of range in row {r}"
        np.testing.assert_allclose(
            res.scores[r], true[ids], atol=tol, rtol=1e-7,
            err_msg=f"row {r}: reported scores disagree with true scores",
        )
        assert np.all(np.diff(res.scores[r]) <= tol), f"row {r}: scores not sorted"
        kth = true[ids].min()
        excl = np.ones(model.n, dtype=bool)
        excl[ids] = False
        if excl.any():
            worst = true[excl].max()
            assert worst <= kth + tol, (
                f"row {r}: excluded item with score {worst} beats kth {kth}"
            )
