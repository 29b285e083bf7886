#!/usr/bin/env python3
"""Exact top-K serving benchmark: RECOPT jobs, end to end and per layer.

Usage (from the root of a checkout):

    python3 mipsbench/run.py --workload mm-batch --seed 1 --seconds 25 --trace 0

Each job serves exact top-K for every user of one model with RECOPT: build
every candidate index, time a user sample, extrapolate, then serve the rest
with the winner.  One client runs jobs in a closed loop: each round serves
every (model, K) cell of the workload once, in an order drawn from the
seed, and rounds repeat until ``--seconds`` have passed.  Every answer is
checked against the benchmark's own float64 reference (``reference.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, patches spans around the calls into each
layer (``tracing.py``), serves every cell once more with each fixed
strategy to judge RECOPT's choice, and on ``spark-serve`` runs the Spark
probe jobs; it prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``selfcheck.py`` runs every workload at a tiny scale.
"""
from __future__ import annotations

import os
import sys

# The paper measured one core.  The pin must be set before NumPy loads
# OpenBLAS; Spark's Python workers inherit it from this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from mipsbench import sparkjobs  # noqa: E402
from mipsbench.machine import environment, peak_rss_mb, reset_peak_rss  # noqa: E402
from mipsbench.reference import Reference, rows_from_long  # noqa: E402
from mipsbench.tracing import Tracer, layer_totals  # noqa: E402
from repro.core.recopt import Recopt  # noqa: E402
from repro.experiments.grid import reference_grid, strategy_factories  # noqa: E402

# Metric names and units come from BENCHMARK.json; every run prints all of one list.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass(frozen=True)
class Workload:
    models: tuple[str, ...]
    ks: tuple[int, ...]
    spark: bool = False


# index-batch runs by hand but is left out of BENCHMARK.json: the 70 runs
# a comparison of three workloads takes would need about 3 000-3 450 s on a
# 4-vCPU host, against a 3 420 s budget.
WORKLOADS = {
    "mm-batch": Workload(("netflix-f32-lo", "r2-f32-lo"), (1, 10)),
    "index-batch": Workload(("kdd-f32-hi", "glove-f32-hi"), (1, 10)),
    "spark-serve": Workload(("kdd-f16-hi", "netflix-f16-lo"), (10,), spark=True),
}
SCALE = 4.0  # reference-grid scale: netflix-f32-lo is 32 000 users x 1 200 items
SMOKE_SCALE = 0.1
# The grid's geometry is fixed and --seed only disguises it (see disguise):
# with geometry drawn from --seed, index-batch peak_rss_mb read 432-565 MB
# over five seeds, as the strategy RECOPT picks to serve glove-f32-hi
# (LEMP or RECDEX) sets the peak.
GRID_SEED = 0
CANDIDATES = ("lemp", "recdex", "fexipro-si")  # RECOPT always adds "mm"
SETUP_REPS = 3
HEALTH_CHUNK = {True: 4096, False: 512}  # users per chunk, by Strategy.batching


@dataclass
class Job:
    model: str
    k: int
    seconds: float
    users: int
    traced: bool
    job_id: str
    report: object = None
    error: str | None = None


@dataclass
class Bench:
    """Everything one workload run set up: models, references, Spark."""

    wl: Workload
    seed: int
    models: dict = field(default_factory=dict)
    refs: dict = field(default_factory=dict)
    spark: object = None
    users_dfs: dict = field(default_factory=dict)
    cores: int = 0

    @property
    def cells(self) -> list[tuple[str, int]]:
        return [(m, k) for m in self.wl.models for k in self.wl.ks]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help=f"tiny models (grid scale {SMOKE_SCALE}) for a harness self-check")
    p.add_argument("--corrupt", action="store_true", help="swap one id in the first job's answer; it must be counted as failed")
    return p.parse_args(argv)


def set_up(bench: Bench, scale: float) -> None:
    """Generate the models, compute their reference top-K, start Spark, warm up."""
    grid = {m.name: m for m in reference_grid(scale=scale, seed=GRID_SEED)}
    bench.models = {name: disguise(grid[name], bench.seed) for name in bench.wl.models}
    bench.refs = {name: Reference(m.users, m.items, max(bench.wl.ks)) for name, m in bench.models.items()}
    if bench.wl.spark:
        from repro.spark_ops.frames import model_to_user_df

        if bench.spark is not None:
            sparkjobs.stop(bench.spark, jvm=False)
        bench.spark = sparkjobs.start(bench.cores)
        bench.users_dfs = {}
        for name, model in bench.models.items():
            df = model_to_user_df(bench.spark, model, n_partitions=bench.cores).cache()
            df.count()
            bench.users_dfs[name] = df
    model, k = bench.cells[0]
    ids, scores, _ = execute(bench, model, k, bench.seed, Tracer())
    if bench.refs[model].check(ids, scores, k) is not None:
        raise RuntimeError(f"warm-up job on {model} k={k} returned a wrong top-K")


def disguise(model, seed: int):
    """The same model under a seed-drawn rotation and relabeling of users and items.

    Inner products are unchanged up to rounding, so every seed poses the
    same MIPS problem in different numbers.
    """
    g = np.random.default_rng([seed, model.m, model.n, model.f])
    q, r = np.linalg.qr(g.normal(size=(model.f, model.f)))
    q *= np.sign(np.diag(r))  # uniformly random orthogonal
    return replace(
        model,
        users=model.users[g.permutation(model.m)] @ q,
        items=model.items[g.permutation(model.n)] @ q,
        meta={**model.meta, "disguise_seed": seed},
    )


def execute(bench: Bench, name: str, k: int, seed: int, tracer: Tracer):
    """One RECOPT job, sampling users with ``seed``: returns (ids, scores, report)."""
    model = bench.models[name]
    fac = strategy_factories(model)
    factories = {c: fac[c] for c in CANDIDATES}
    if not bench.wl.spark:
        topk, report = Recopt(model, factories, k=k, seed=seed).run()
        return topk.ids, topk.scores, report
    from repro.spark_ops.optimizer import recopt_serve

    with tracer.span("spark.recopt_serve"):
        out, report = recopt_serve(bench.spark, bench.users_dfs[name], model, factories, k=k, seed=seed)
    with tracer.span("spark.collect"):
        pdf = out.toPandas()
    got = rows_from_long(pdf, model.m, min(k, model.n))
    if isinstance(got, str):
        raise RuntimeError(got)
    return got[0], got[1], report


def corrupt_ids(ids: np.ndarray, n: int) -> np.ndarray:
    """The same answer with one id swapped: a wrong top-K."""
    ids = ids.copy()
    if ids.shape[1] >= 2:
        ids[0, [0, 1]] = ids[0, [1, 0]]
    else:
        ids[0, 0] = (ids[0, 0] + 1) % n
    return ids


def run_job(bench: Bench, name: str, k: int, seed: int, job_id: str, tracer, traced: bool, corrupt: bool) -> Job:
    model = bench.models[name]
    job = Job(model=name, k=k, seconds=0.0, users=model.m, traced=traced, job_id=job_id)
    tracer.job_id = job_id if traced else None
    t0 = time.perf_counter()
    try:
        with tracer.span("job", model=name, k=k):
            ids, scores, job.report = execute(bench, name, k, seed, tracer)
    except Exception:  # a failed job is counted, and the loop goes on
        job.error = traceback.format_exc(limit=3)
    finally:
        job.seconds = time.perf_counter() - t0
        tracer.job_id = None
    if job.error is None:
        if corrupt:
            ids = corrupt_ids(ids, model.n)
        job.error = bench.refs[name].check(ids, scores, k)
    if job.error:
        print(f"job {job_id} ({name}, k={k}) failed: {job.error}", file=sys.stderr)
    return job


def run_loop(bench: Bench, seconds: float, tracer, trace: bool, corrupt: bool) -> list[Job]:
    """Closed loop, one client: whole rounds of every cell until time is up.

    Each job draws its own RECOPT sample seed, so a run averages over
    RECOPT's sampling instead of repeating one draw per cell.  With ``trace`` the rounds alternate untraced/traced, so the tracing
    overhead is measured within one process; at least one of each runs.
    """
    rng = np.random.default_rng(bench.seed)
    cells = bench.cells
    jobs: list[Job] = []
    t_end = time.perf_counter() + seconds
    rnd = 0
    while time.perf_counter() < t_end or rnd < (2 if trace else 1):
        traced = trace and rnd % 2 == 1
        for ci in rng.permutation(len(cells)):
            name, k = cells[ci]
            seed = int(rng.integers(2**31))
            jobs.append(run_job(bench, name, k, seed, f"j{len(jobs)}", tracer, traced, corrupt and not jobs))
        rnd += 1
    return jobs


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond): the highest percentile with >= 10 jobs beyond it.

    With fewer than 11 jobs no percentile qualifies; the median stands in.
    """
    xs = sorted(times)
    n = len(xs)
    if n < 11:
        return float(np.median(xs)), 50.0, n // 2
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(jobs: list[Job], setup_times: list[float]) -> dict[str, float]:
    cells = sorted({(j.model, j.k) for j in jobs})
    for cell in cells:
        cj = [j for j in jobs if (j.model, j.k) == cell]
        chosen = Counter(j.report.chosen for j in cj if j.report is not None)
        print(
            f"cell {cell[0]} k={cell[1]}: {len(cj)} jobs, median {np.median([j.seconds for j in cj]):.4f}s, "
            f"chose {dict(chosen)}"
        )
    times = [j.seconds for j in jobs]
    served = sum(j.users for j in jobs if j.error is None)
    tail_s, tail_pct, beyond = tail(times)
    print(f"job_s_tail is p{tail_pct:.1f} of {len(times)} jobs ({beyond} beyond it)")
    return {
        "users_per_s": served / sum(times),
        "job_s_p50": float(np.median(times)),
        "job_s_tail": tail_s,
        "exact_frac": sum(j.error is None for j in jobs) / len(jobs),
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": peak_rss_mb(),  # while serving: the count restarts after set-up
    }


def health(bench: Bench, jobs: list[Job]) -> dict[str, float]:
    """RECOPT's choices against every fixed strategy, cell by cell.

    Each cell is served once more with every fixed strategy (build + serve
    of all users, untraced).  RECOPT's usual pick goes first, in one call.
    The others serve in chunks and stop as soon as their elapsed time
    exceeds the best complete total so far: such a strategy cannot be the
    fastest, so accuracy and regret stay exact.  Bases: ``accuracy`` is
    the share of untraced jobs that chose the cell's fastest fixed
    strategy; ``regret`` is the mean of (job seconds / fastest fixed
    total - 1); ``est_error`` is the mean of |RECOPT's estimated total for
    its pick - that strategy's realized total| / realized total (a lower
    bound when that strategy was stopped).  On
    ``spark-serve`` the fixed strategies run on the driver, so regret
    there includes the distributed venue's cost.
    """
    acc, regret, est_err = [], [], []
    for name, k in bench.cells:
        model = bench.models[name]
        fac = strategy_factories(model)
        cell_jobs = [j for j in jobs if (j.model, j.k) == (name, k) and not j.traced and j.report is not None]
        usual = Counter(j.report.chosen for j in cell_jobs).most_common(1)[0][0]
        realized: dict[str, float] = {}
        stopped: set[str] = set()
        best = float("inf")
        for strat_name in [usual] + [s for s in ("mm", *CANDIDATES) if s != usual]:
            t0 = time.perf_counter()
            strat = fac[strat_name](model)
            strat.build()
            total = time.perf_counter() - t0
            rows = np.arange(model.m)
            chunks = [rows] if strat_name == usual else np.array_split(rows, -(-model.m // HEALTH_CHUNK[strat.batching]))
            for part in chunks:
                t0 = time.perf_counter()
                res = strat.query(part, k)
                total += time.perf_counter() - t0
                why = bench.refs[name].check(res.ids, res.scores, k, rows=part)
                if why:
                    raise RuntimeError(f"fixed {strat_name} on {name} k={k}: {why}")
                if total > best:
                    stopped.add(strat_name)
                    break
            else:
                best = min(best, total)
            realized[strat_name] = total
        fastest = min(realized, key=realized.get)
        print(
            f"health {name} k={k}: fastest fixed {fastest} {realized[fastest]:.3f}s; "
            + ", ".join(f"{s} {'>' if s in stopped else ''}{t:.3f}s" for s, t in realized.items())
        )
        for j in cell_jobs:
            chosen = j.report.chosen
            acc.append(float(chosen == fastest))
            regret.append(j.seconds / realized[fastest] - 1.0)
            est_err.append(abs(j.report.est_totals[chosen] - realized[chosen]) / realized[chosen])
    return {
        "recopt.accuracy": float(np.mean(acc)),
        "recopt.regret": float(np.mean(regret)),
        "recopt.est_error": float(np.mean(est_err)),
    }


def spark_layers(bench: Bench, reps: int = 3) -> dict[str, float]:
    """Spark probe jobs, per cell, median of ``reps``; then averaged over cells."""
    from repro.spark_ops.optimizer import recopt_serve

    per_cell = []
    for name, k in bench.cells:
        model = bench.models[name]
        users_df = bench.users_dfs[name]
        fac = strategy_factories(model)
        with sparkjobs.BroadcastMeter(bench.spark.sparkContext) as meter:
            out, report = recopt_serve(
                bench.spark, users_df, model, {c: fac[c] for c in CANDIDATES}, k=k, seed=bench.seed
            )
        rounds = [sparkjobs.probe(users_df, out) for _ in range(reps)]
        res = {key: float(np.median([r[key] for r in rounds])) for key in rounds[0]}
        strat = fac[report.chosen](model)
        strat.build()
        kernel = []
        for _ in range(reps):
            t0 = time.perf_counter()
            strat.query(np.arange(model.m), k)
            kernel.append(time.perf_counter() - t0)
        res["spark.kernel_driver_s"] = float(np.median(kernel))
        res["spark.broadcast_bytes"] = float(meter.bytes)
        print(f"spark {name} k={k} ({report.chosen}): " + ", ".join(f"{a}={b:.4g}" for a, b in res.items()))
        per_cell.append(res)
    return {key: float(np.mean([c[key] for c in per_cell])) for key in per_cell[0]}


def trace_overhead(traced: list[Job], plain: list[Job]) -> float:
    """Mean over cells of the traced minus the untraced median job time.

    Taken per cell so that the mix of cells in each half cannot pose as
    tracing cost.
    """
    diffs = []
    for cell in {(j.model, j.k) for j in traced}:
        t = [j.seconds for j in traced if (j.model, j.k) == cell]
        p = [j.seconds for j in plain if (j.model, j.k) == cell]
        if p:
            diffs.append(np.median(t) - np.median(p))
    return float(np.mean(diffs))


def per_layer(bench: Bench, jobs: list[Job], tracer) -> dict[str, float]:
    traced = [j for j in jobs if j.traced and j.error is None]
    plain = [j for j in jobs if not j.traced and j.error is None]
    lt = layer_totals(tracer.spans, [j.job_id for j in traced])
    reports = [j.report for j in traced]
    opt = [r.optimize_seconds for r in reports]
    # RECOPT's report times the driver serve; a Spark job serves in the
    # distributed operator, so there serve is the rest of the job.
    serve = [r.serve_seconds if not bench.wl.spark else j.seconds - r.optimize_seconds for j, r in zip(traced, reports)]
    # Only point-query strategies (FEXIPRO) may stop early on the T-test.
    stopped = [stop for r in reports for s, stop in r.ttest_stopped.items() if s.startswith("fexipro")]
    chosen = Counter(j.report.chosen for j in jobs if j.report is not None)
    n_chosen = sum(chosen.values())
    m = {
        "linalg.select_s": lt["linalg.select_s"],
        "linalg.select_calls": lt["linalg.select_calls"],
        "linalg.mm_select_s": lt["linalg.mm_select_s"],
        "linalg.gemm_s": lt["linalg.gemm_s"],
        "linalg.gemm_flops": lt["linalg.gemm_flops"],
        "linalg.merge_s": lt["linalg.merge_s"],
        "linalg.merge_calls": lt["linalg.merge_calls"],
        "core.kmeans_s": lt["core.kmeans_s"],
        "recdex.build_s": lt["recdex.build_s"],
        "recdex.query_s": lt["recdex.query_s"],
        "recdex.items_scored_per_user": lt["recdex.items_scored"] / max(lt["recdex.query_users"], 1),
        "recdex.scored_frac": lt["recdex.items_scored"] / max(lt["recdex.user_items"], 1),
        "mm.query_s": lt["mm.query_s"],
        "lemp.build_s": lt["lemp.build_s"],
        "lemp.query_s": lt["lemp.query_s"],
        "fexipro.build_s": lt["fexipro.build_s"],
        "fexipro.query_s_per_user": lt["fexipro.query_s"] / max(lt["fexipro.query_users"], 1),
        "recopt.optimize_s": float(np.mean(opt)),
        "recopt.serve_s": float(np.mean(serve)),
        "recopt.overhead_frac": sum(opt) / (sum(opt) + sum(serve)),
        "recopt.sample_users": float(np.mean([r.sample_size for r in reports])),
        "recopt.ttest_stop_frac": sum(stopped) / max(len(stopped), 1),
        **{f"recopt.chosen.{s}": chosen.get(s, 0) / n_chosen for s in ("mm", *CANDIDATES)},
        **health(bench, jobs),
        **{key: 0.0 for key in PER_LAYER_UNITS if key.startswith("spark.")},
        "trace.job_s_p50": float(np.median([j.seconds for j in traced])),
        "trace.overhead_s": trace_overhead(traced, plain),
    }
    if bench.wl.spark:
        m.update(spark_layers(bench))
        m["spark.rows_emitted"] = float(np.mean([j.users * min(j.k, bench.models[j.model].n) for j in traced]))
    sel, gemm = m["linalg.mm_select_s"], m["linalg.gemm_s"]
    print(
        f"inside blocked_mm_topk: selection {sel:.4f}s vs GEMM {gemm:.4f}s per job -> "
        f"selection {'exceeds' if sel > gemm else 'does not exceed'} GEMM"
    )
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)

    wl = WORKLOADS[args.workload]
    bench = Bench(wl=wl, seed=args.seed, cores=min(4, os.cpu_count() or 1))
    env = environment()
    env["workload"] = args.workload
    env["models"] = list(wl.models)
    env["ks"] = list(wl.ks)
    env["scale"] = SMOKE_SCALE if args.smoke else SCALE
    if wl.spark:
        # Spark's Python workers import the program and the probes from here.
        os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        os.environ["PYSPARK_PYTHON"] = sys.executable
        env["spark_master"] = sparkjobs.configure(bench.cores, OUT / "spark")
        env["spark_partitions"] = bench.cores
    else:
        env["spark_master"] = "none (driver only)"

    tracer = Tracer()
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            set_up(bench, env["scale"])
            setup_times.append(time.perf_counter() - t0)
        if wl.spark:
            workers = sparkjobs.worker_blas(next(iter(bench.users_dfs.values())))
            env["spark_worker_blas"] = workers
            if any(w["threads"] != 1 or w["env"] != "1" for w in workers):
                raise RuntimeError(f"BLAS pin did not reach the Spark workers: {workers}")
        print(json.dumps({"env": env}))
        print(f"setup_s reps: {[round(t, 3) for t in setup_times]}")

        if args.trace:
            tracer.install()
        reset_peak_rss()
        jobs = run_loop(bench, args.seconds, tracer, bool(args.trace), args.corrupt)
        if args.trace:
            metrics = per_layer(bench, jobs, tracer)
            units = PER_LAYER_UNITS
            tracer.dump(OUT / f"trace-{args.workload}-s{args.seed}.jsonl")
        else:
            metrics = end_to_end(jobs, setup_times)
            units = END_TO_END_UNITS
    finally:
        tracer.uninstall()
        if bench.spark is not None:
            sparkjobs.stop(bench.spark, jvm=True)

    failed = sum(j.error is not None for j in jobs)
    print(f"jobs: {len(jobs)} attempted, {failed} failed (failed_frac {failed / len(jobs):.4f})")
    for key, unit in units.items():
        print(f"  {key:32s} {metrics[key]:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(jobs),
                "failed": failed,
                "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
