"""Wall-clock timing helpers shared by all experiment harnesses."""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.indexes.base import Strategy, TopK
from repro.mf.models import MFModel


@dataclass(frozen=True)
class StrategyTiming:
    """Build and query wall-clock for one strategy on one model/K."""

    strategy: str
    build_seconds: float
    query_seconds: float
    result: TopK

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.query_seconds


def time_strategy(
    factory: Callable[[MFModel], Strategy], model: MFModel, k: int, *,
    name: str | None = None, repeats: int = 1,
) -> StrategyTiming:
    """Build + full batch top-K serve, each phase timed separately.

    A run under 1 s is repeated, ``repeats`` runs in all, and the fastest
    kept: thread-pool jitter dominates short runs, not multi-second ones.
    """
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        strat = factory(model)
        strat.build()
        t1 = time.perf_counter()
        res = strat.query_vectors(model.users, k)
        t = StrategyTiming(name or strat.name, t1 - t0, time.perf_counter() - t1, res)
        if best is None or t.total_seconds < best.total_seconds:
            best = t
        if best.total_seconds >= 1.0:
            break
    return best
