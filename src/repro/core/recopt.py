"""RECOPT: sampling-based optimizer choosing between indexes and blocked MM.

Implements Section 4:

1. build each candidate index in full (construction is cheap relative to
   traversal — Fig. 2); blocked MM is always a candidate, with a no-op build;
2. draw a random user sample (``SAMPLE_FRAC`` of the users, floored at
   ``min_sample`` so batched kernels see real blocking effects — the
   paper's "at least four L2 cache lines" requirement, expressed as a
   user-count floor here);
3. time blocked MM on the sample, then each index on the sample.  For
   *point-query* indexes (``batching=False``) a one-sample T-test on the
   per-user times against MM's per-user mean enables early stopping
   (Section 4.1's optimization); batched indexes always measure the full
   sample;
4. extrapolate total runtimes ``C_I + Q_I·n`` vs ``M_I·n``, pick the
   minimum, serve the remaining users with the winner, and reuse the
   sample's results.

The T-test uses the normal approximation to the t distribution (sample
sizes are ≥ 30 by construction), via ``statistics.NormalDist`` — scipy is
not a dependency of this reproduction.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable

import numpy as np

from repro.indexes.base import Strategy, TopK, check_k
from repro.indexes.brute_force import BlockedMM
from repro.mf.models import MFModel

# Minimum per-user measurements before the T-test may stop.  The paper
# uses the CLT at large samples; at reproduction scale (10³–10⁴ users vs
# the paper's 10⁵–10⁶) a 30-user floor would already be a multiple of the
# paper's 0.5 % sample fraction, so the floor is kept proportionally small.
_MIN_TTEST_USERS = 16
_TTEST_ALPHA = 0.05
SAMPLE_FRAC = 0.01  # paper: 0.5–1 % of the users
MIN_SAMPLE = 256


@dataclass
class OptimizerReport:
    """What RECOPT decided and what it cost."""

    chosen: str
    est_totals: dict[str, float]  # strategy name -> estimated total seconds
    build_times: dict[str, float]  # strategy name -> construction seconds
    sample_size: int
    sample_users_measured: dict[str, int]  # per strategy (T-test may stop early)
    optimize_seconds: float  # builds + sample measurements
    serve_seconds: float  # serving the remaining users with the winner
    ttest_stopped: dict[str, bool] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.optimize_seconds + self.serve_seconds


def _ttest_p(times: np.ndarray, mu0: float) -> float:
    """Two-sided one-sample test p-value (normal approximation)."""
    n = len(times)
    sd = float(times.std(ddof=1))
    if sd == 0.0:
        return 0.0 if float(times.mean()) != mu0 else 1.0
    z = (float(times.mean()) - mu0) / (sd / np.sqrt(n))
    return 2.0 * (1.0 - NormalDist().cdf(abs(z)))


class Recopt:
    """The MIPS serving optimizer (Section 4)."""

    def __init__(
        self,
        model: MFModel,
        index_factories: dict[str, Callable[[MFModel], Strategy]],
        *,
        k: int,
        min_sample: int = MIN_SAMPLE,
        seed: int = 0,
    ):
        """``index_factories`` maps name -> callable(model) -> Strategy.

        Blocked MM is always included as the implicit brute-force choice.
        ``min_sample`` is the paper's hardware-effects floor: batched
        strategies (MM, LEMP, RECDEX) must see enough users at once for
        blocking to show — too small a sample makes RECOPT overestimate
        their cost and misclassify.  Point-query indexes don't pay the
        full floor: the T-test stops their measurement early.
        """
        self.model = model
        self.index_factories = index_factories
        self.k = check_k(k)
        self.min_sample = min_sample
        self.seed = seed

    def estimate(self) -> tuple[OptimizerReport, Strategy, np.ndarray, TopK]:
        """Phases 1–4: build, sample, measure, extrapolate — no full serve.

        Returns the report (``serve_seconds`` = 0), the built winner, the
        sample rows the winner answered (a point-query winner may have
        stopped early on the T-test) and its ``TopK`` for them.  ``run``
        serves the other users in this process; the Spark optimizer instead
        serves every user with ``serve_topk`` and the winner.
        """
        model = self.model
        m = model.m
        g = np.random.default_rng(self.seed)
        t_opt0 = time.perf_counter()

        # 1. Build every candidate, blocked MM first (timed individually).
        candidates: dict[str, Strategy] = {}
        build_times: dict[str, float] = {}
        for name, factory in {"mm": BlockedMM, **self.index_factories}.items():
            t0 = time.perf_counter()
            candidates[name] = factory(model)
            candidates[name].build()
            build_times[name] = time.perf_counter() - t0

        # 2. Sample users.
        s = min(m, max(self.min_sample, int(np.ceil(SAMPLE_FRAC * m))))
        sample_rows = np.sort(g.choice(m, size=s, replace=False))

        # 3. Measure each candidate on the sample.  MM goes first: its
        # per-user mean is the T-test's reference for point-query indexes.
        per_user: dict[str, float] = {}
        answers: dict[str, tuple[np.ndarray, TopK]] = {}
        ttest_stopped: dict[str, bool] = {}
        for name, strat in candidates.items():
            if strat.batching:
                t0 = time.perf_counter()
                res = strat.query(sample_rows, self.k)
                per_user[name] = (time.perf_counter() - t0) / s
                covered = sample_rows
            else:
                per_user[name], covered, res = self._measure_point(
                    strat, sample_rows, per_user["mm"]
                )
            answers[name] = covered, res
            ttest_stopped[name] = len(covered) < s
        optimize_seconds = time.perf_counter() - t_opt0

        # 4. Extrapolate C_I + Q_I·n and pick the minimum.
        est_totals = {name: build_times[name] + per_user[name] * m for name in candidates}
        chosen = min(est_totals, key=est_totals.get)  # type: ignore[arg-type]
        report = OptimizerReport(
            chosen=chosen,
            est_totals=est_totals,
            build_times=build_times,
            sample_size=s,
            sample_users_measured={name: len(ans[0]) for name, ans in answers.items()},
            optimize_seconds=optimize_seconds,
            serve_seconds=0.0,
            ttest_stopped=ttest_stopped,
        )
        covered, sampled = answers[chosen]
        return report, candidates[chosen], covered, sampled

    def run(self) -> tuple[TopK, OptimizerReport]:
        report, winner, covered, sampled = self.estimate()
        m = self.model.m

        # 5. Serve the rest with the winner; reuse its sampled results.
        t0 = time.perf_counter()
        out_ids = np.empty((m, sampled.ids.shape[1]), dtype=np.int64)
        out_scores = np.empty(out_ids.shape)
        out_ids[covered] = sampled.ids
        out_scores[covered] = sampled.scores
        rest_mask = np.ones(m, dtype=bool)
        rest_mask[covered] = False
        remaining = np.flatnonzero(rest_mask)
        if len(remaining):
            rest = winner.query(remaining, self.k)
            out_ids[remaining] = rest.ids
            out_scores[remaining] = rest.scores
        report.serve_seconds = time.perf_counter() - t0
        return TopK(ids=out_ids, scores=out_scores), report

    def _measure_point(
        self, idx: Strategy, sample_rows: np.ndarray, mm_per_user: float
    ) -> tuple[float, np.ndarray, TopK]:
        """Per-user timing of a point-query index with T-test early stop."""
        times: list[float] = []
        ids_parts: list[np.ndarray] = []
        sc_parts: list[np.ndarray] = []
        used = 0
        for r in sample_rows:
            t0 = time.perf_counter()
            res = idx.query(np.array([r]), self.k)
            times.append(time.perf_counter() - t0)
            ids_parts.append(res.ids)
            sc_parts.append(res.scores)
            used += 1
            if used >= _MIN_TTEST_USERS and used % 4 == 0:
                if _ttest_p(np.array(times), mm_per_user) < _TTEST_ALPHA:
                    break
        covered = sample_rows[:used]
        partial = TopK(ids=np.vstack(ids_parts), scores=np.vstack(sc_parts))
        return float(np.mean(times)), covered, partial
