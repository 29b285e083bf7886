"""Every MIPS strategy as one per-partition vectorized Spark operator.

Per the reproduction plan (DESIGN.md §4), ``serve_topk`` expresses a
built ``Strategy`` as a DataFrame → DataFrame transform over the users
frame via ``mapInPandas``.  Every strategy runs the same partition body:
the strategy is built once on the driver (construction is cheap relative
to traversal, the paper's Fig. 2 observation) and broadcast built, with
its model's user matrix left out; each partition stacks its rows'
``features`` and answers them with ``query_vectors``.  A row's ``id`` is
only a label carried to the output.  Blocked MM ships its item matrix,
the indexes their item lists and bounds; RECDEX assigns each row to its
nearest center and answers a row outside that cluster's cone exactly by
blocked MM.

Output schema: ``(user_id, item_id, rank, score)`` with ``rank`` starting
at 1 in canonical (score desc, item_id asc) order — exact top-K per user.
"""
from __future__ import annotations

import copy
from dataclasses import replace
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.indexes.base import Strategy, check_k

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

    Raises ``ValueError`` for a row whose length is not ``f``: rows of the
    wrong lengths could otherwise still fill whole rows of the matrix.
    ``query_vectors`` rejects a row that is not finite.
    """
    lengths = np.fromiter(map(len, features), np.int64, len(features))
    if (lengths != f).any():
        raise ValueError(f"features must have length {f}, the model's rank")
    return np.concatenate(features.to_numpy()).reshape(-1, f)


def serve_topk(spark: SparkSession, users_df: DataFrame, strategy: Strategy, k: int) -> DataFrame:
    """Exact top-``k`` for every row of ``users_df`` with ``strategy``.

    Each row is answered from its ``features``, which must be finite and
    of length ``model.f``; its ``id`` is copied to ``user_id``.  The
    strategy is built here if it is not yet.
    """
    k = check_k(k)
    strategy.build()  # idempotent: a no-op once built
    shipped = copy.copy(strategy)
    shipped.model = replace(strategy.model, users=strategy.model.users[:0])
    strat_bc = spark.sparkContext.broadcast(shipped)

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        strat = strat_bc.value
        for pdf in batches:
            if len(pdf) == 0:
                continue
            res = strat.query_vectors(_user_block(pdf["features"], strat.model.f), k)
            yield _emit(pdf["id"].to_numpy(), res.ids, res.scores)

    return users_df.mapInPandas(fn, schema=TOPK_SCHEMA)
