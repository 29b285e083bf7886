"""RECOPT over Spark DataFrames.

The optimizer's estimation phase (build indexes, time a user sample) runs
on the driver — the sample is small by construction, and timing kernels
inside executors would measure scheduler noise rather than strategy cost.
All users are then served by ``repro.spark_ops.serving.serve_topk`` with
the built winner.
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import DataFrame, SparkSession

from repro.core.recopt import MIN_SAMPLE, OptimizerReport, Recopt
from repro.indexes.base import Strategy
from repro.mf.models import MFModel
from repro.spark_ops.serving import serve_topk


def recopt_serve(
    spark: SparkSession,
    users_df: DataFrame,
    model: MFModel,
    index_factories: dict[str, Callable[[MFModel], Strategy]],
    *,
    k: int,
    min_sample: int = MIN_SAMPLE,
    seed: int = 0,
) -> tuple[DataFrame, OptimizerReport]:
    """Choose a strategy via sampled timing, then serve ``users_df`` with it.

    Returns the (lazy) top-K DataFrame and the optimizer report.  The
    sample's results are *not* reused here — unlike the single-node path,
    re-serving the sampled users distributes along with everyone else and
    keeps the output a single clean DataFrame lineage.
    """
    report, winner, _, _ = Recopt(
        model, index_factories, k=k, min_sample=min_sample, seed=seed
    ).estimate()
    return serve_topk(spark, users_df, winner, k), report
