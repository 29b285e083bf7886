"""Spark side of the ``spark-serve`` workload: session lifetime and probe jobs.

The functions passed to ``mapInPandas`` live at module level so Spark's
Python workers import them from this module (the benchmark puts the
checkout on the workers' ``PYTHONPATH``).
"""
from __future__ import annotations

import os
import pickle
import shlex
import subprocess
import time
from pathlib import Path
from typing import Iterator

import numpy as np
import pandas as pd


def configure(cores: int, scratch: Path) -> str:
    """Set the JVM launch options; call before the first session starts.

    Spark's scratch files and the JVM's temp files go under ``scratch``.
    Returns the master URL.
    """
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)  # pyspark's gateway handshake files
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch / "spark-local")
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    master = f"local[{cores}]"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {master}",
            "--driver-memory 1g",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )
    return master


def start(cores: int):
    """A SparkSession whose shuffles and default parallelism use ``cores`` partitions."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("mipsbench")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", str(cores))
        .config("spark.default.parallelism", str(cores))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark, *, jvm: bool) -> None:
    """Stop the session; with ``jvm`` also end the JVM and wait for it."""
    from pyspark import SparkContext

    spark.stop()
    if not jvm or SparkContext._gateway is None:
        return
    proc = getattr(SparkContext._gateway, "proc", None)
    SparkContext._gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        # spark-submit's JVM exits when its stdin closes.
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- functions run inside Spark's Python workers ----------------------------
def _blas_probe(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    from mipsbench.machine import blas_threads

    rows = sum(len(pdf) for pdf in batches)
    yield pd.DataFrame(
        {
            "pid": [os.getpid()],
            "env": [os.environ.get("OPENBLAS_NUM_THREADS", "")],
            "threads": [blas_threads()],
            "rows": [rows],
        }
    )


def _passthrough(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    yield from batches


def _decode(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    for pdf in batches:
        u = np.stack(pdf["features"].to_numpy())
        yield pd.DataFrame({"n": [u.shape[0]]})


# -- driver side ------------------------------------------------------------
def worker_blas(users_df) -> list[dict]:
    """OPENBLAS_NUM_THREADS and OpenBLAS's own thread count in each worker."""
    pdf = users_df.mapInPandas(_blas_probe, "pid long, env string, threads long, rows long").toPandas()
    return pdf.to_dict("records")


def _timed(action) -> float:
    t0 = time.perf_counter()
    action()
    return time.perf_counter() - t0


def _noop_write(df) -> None:
    df.write.format("noop").mode("overwrite").save()


def probe(users_df, out_df) -> dict[str, float]:
    """One round of the Spark layer probes on one cached users frame.

    ``out_df`` is the served top-K frame of the same users.  Returns seconds
    for: a pass-through job, a feature-decode job, the serve written to the
    no-op sink (kernel plus row emission, nothing sent to the driver), and
    collecting the already-served rows from Spark's cache to the driver.
    """
    from pyspark import StorageLevel

    res = {
        "spark.noop_job_s": _timed(lambda: _noop_write(users_df.mapInPandas(_passthrough, users_df.schema))),
        "spark.decode_job_s": _timed(lambda: _noop_write(users_df.mapInPandas(_decode, "n long"))),
        "spark.serve_job_s": _timed(lambda: _noop_write(out_df)),
    }
    cached = out_df.persist(StorageLevel.MEMORY_ONLY)
    try:
        cached.count()
        res["spark.collect_s"] = _timed(cached.toPandas)
    finally:
        cached.unpersist(blocking=True)
    return res


class BroadcastMeter:
    """Counts the pickled bytes of everything a SparkContext broadcasts."""

    def __init__(self, sc):
        self.sc = sc
        self.bytes = 0

    def __enter__(self):
        orig = self.sc.broadcast

        def broadcast(value):
            self.bytes += len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            return orig(value)

        self.sc.broadcast = broadcast
        return self

    def __exit__(self, *exc):
        del self.sc.broadcast
        return False
