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
    factory: Callable[[MFModel], Strategy], model: MFModel, k: int, *, name: str | None = None
) -> StrategyTiming:
    """Build + full batch top-K serve, each phase timed separately."""
    t0 = time.perf_counter()
    strat = factory(model)
    strat.build()
    t1 = time.perf_counter()
    res = strat.query_vectors(model.users, k)
    t2 = time.perf_counter()
    return StrategyTiming(
        strategy=name or strat.name,
        build_seconds=t1 - t0,
        query_seconds=t2 - t1,
        result=res,
    )
