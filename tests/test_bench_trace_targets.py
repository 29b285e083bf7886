"""The benchmark must still find every name it calls or patches.

``mipsbench/tracing.py`` looks each target up as ``owner.__dict__[name]``,
so a function that moves out of the module (or a method that moves to a
base class) breaks the traced benchmark run.  This installs the tracer,
checks that every target was wrapped, and that ``uninstall`` puts the
originals back.  A second test makes the calls ``mipsbench/run.py``
makes outside Spark, so an API drift fails here rather than only in the
benchmark's own self-check.  The last two run the ``mm-batch`` and
``spark-serve`` workloads at smoke scale in both trace modes: a change
that takes blocked MM's selection out of the ``topk_from_scores`` call
the tracer times reads ``linalg.mm_select_s = 0`` there, and one that
breaks the Spark serve reads ``spark.serve_job_s = 0``.
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mipsbench.tracing import _PATCHES, Tracer
from repro.core.recopt import Recopt
from repro.experiments.grid import strategy_factories
from repro.indexes.base import TopK
from repro.mf.models import tiny_model
from tests.validate import assert_valid_topk


def test_install_wraps_and_uninstall_restores_every_target():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _PATCHES]
    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr, orig in originals:
            assert owner.__dict__[attr] is not orig, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, orig in originals:
        assert owner.__dict__[attr] is orig, f"{owner.__name__}.{attr} not restored"


def test_benchmark_call_surface():
    model = tiny_model(m=60, n=30, f=5, seed=0)
    fac = strategy_factories(model)
    assert {"mm", "lemp", "recdex", "fexipro-si"} <= set(fac)
    topk, report = Recopt(model, {c: fac[c] for c in ("lemp", "recdex", "fexipro-si")}, k=3, seed=0).run()
    assert isinstance(topk, TopK)
    assert_valid_topk(model, topk, 3)
    for field in ("chosen", "est_totals", "optimize_seconds", "serve_seconds", "ttest_stopped", "sample_size"):
        assert hasattr(report, field), field
    strat = fac[report.chosen](model)
    strat.build()
    assert_valid_topk(model, strat.query(np.arange(model.m), 3), 3)


ROOT = Path(__file__).resolve().parent.parent


def _smoke_run(workload, trace):
    """One ``--smoke`` run of ``workload``: every job exact, and exactly the metrics BENCHMARK.json lists."""
    cmd = [sys.executable, "mipsbench/run.py", "--workload", workload, "--smoke", "--seconds", "1", "--seed", "1"]
    proc = subprocess.run([*cmd, "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    return result["metrics"]


@pytest.mark.parametrize("trace", [0, 1])
def test_mm_batch_smoke_run(trace):
    metrics = _smoke_run("mm-batch", trace)
    if trace:
        assert metrics["linalg.mm_select_s"]["value"] > 0
        assert metrics["linalg.gemm_flops"]["value"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_spark_serve_smoke_run(trace):
    metrics = _smoke_run("spark-serve", trace)
    if trace:
        assert metrics["spark.serve_job_s"]["value"] > 0
        assert metrics["spark.rows_emitted"]["value"] > 0
