"""Every MIPS strategy as one per-partition vectorized Spark operator.

Per the reproduction plan (DESIGN.md §4), ``serve_topk`` expresses a
built ``Strategy`` as a DataFrame → DataFrame transform over the users
frame via ``mapInPandas``.  The partition body depends on its type:

* **blocked MM** — pure data-parallel: each partition multiplies its users'
  feature block against the broadcast item matrix (blocked GEMM) and
  extracts top-K.  Only the broadcast *items* are shared state.
* **index strategies** (lemp / fexipro / recdex) — the index is built
  once on the driver (construction is cheap relative to traversal, the
  paper's Fig. 2 observation) and broadcast *built*; partitions query it
  by user id.  This matches the paper's batch setting, where the index is
  constructed over the model being served — RECDEX's θ_b bound is only
  valid for the users it was built on, so partitions must not rebuild it
  over arbitrary vector subsets.

Output schema: ``(user_id, item_id, rank, score)`` with ``rank`` starting
at 1 in canonical (score desc, item_id asc) order — exact top-K per user.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.indexes.base import Strategy
from repro.indexes.brute_force import BlockedMM
from repro.linalg.blocked_mm import blocked_mm_topk

TOPK_SCHEMA = T.StructType(
    [
        T.StructField("user_id", T.LongType(), False),
        T.StructField("item_id", T.LongType(), False),
        T.StructField("rank", T.IntegerType(), False),
        T.StructField("score", T.DoubleType(), False),
    ]
)


def _emit(user_ids: np.ndarray, ids: np.ndarray, scores: np.ndarray) -> pd.DataFrame:
    """Flatten per-user (ids, scores) arrays into long-format rows."""
    k = ids.shape[1]
    return pd.DataFrame(
        {
            "user_id": np.repeat(user_ids, k),
            "item_id": ids.ravel(),
            "rank": np.tile(np.arange(1, k + 1, dtype=np.int32), len(user_ids)),
            "score": scores.ravel(),
        }
    )


def _user_block(features: pd.Series, f: int) -> np.ndarray:
    """Stack a batch's ``features`` into an ``(m, f)`` matrix.

    Raises ``ValueError`` for a row whose length is not ``f`` or that holds
    NaN or inf.  Blocked MM would answer a NaN row with duplicate ids
    scored ``-inf``, and die in ``matmul`` on a row of the wrong length.
    """
    if any(len(v) != f for v in features):
        raise ValueError(f"features must have length {f}, the model's rank")
    users = np.stack(features.to_numpy())
    if not np.isfinite(users).all():
        raise ValueError("features must be finite (no NaN or inf)")
    return users


def serve_topk(spark: SparkSession, users_df: DataFrame, strategy: Strategy, k: int) -> DataFrame:
    """Exact top-``k`` for every row of ``users_df`` with ``strategy``.

    Blocked MM answers from each row's ``features`` against the broadcast
    item matrix, and fails for features that are not finite or not of
    length ``model.f``; any other strategy is built here if it is not yet,
    broadcast built, and queried by ``id``, which must lie in
    ``[0, model.m)``.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if isinstance(strategy, BlockedMM):
        items_bc = spark.sparkContext.broadcast(strategy.model.items)
        f = strategy.model.f

        def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            items = items_bc.value
            for pdf in batches:
                if len(pdf) == 0:
                    continue
                ids, scores = blocked_mm_topk(_user_block(pdf["features"], f), items, k)
                yield _emit(pdf["id"].to_numpy(), ids, scores)

        return users_df.mapInPandas(fn, schema=TOPK_SCHEMA)

    strategy.build()  # idempotent: a no-op once built
    strat_bc = spark.sparkContext.broadcast(strategy)

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        strat = strat_bc.value
        for pdf in batches:
            if len(pdf) == 0:
                continue
            rows = pdf["id"].to_numpy()
            res = strat.query(rows, k)  # raises for ids outside [0, m)
            yield _emit(rows, res.ids, res.scores)

    return users_df.mapInPandas(fn, schema=TOPK_SCHEMA)
