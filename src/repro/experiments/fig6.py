"""Fig. 6 (as a table): end-to-end wall-clock of every strategy per model × K.

Produces the per-combination runtimes that Fig. 6 plots and that Table 2
aggregates, plus the summary statistics the paper quotes in Section 6.3
(RECDEX vs LEMP/FEXIPRO/MM ratios, fastest-strategy win counts).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.experiments.grid import K_VALUES, reference_grid, strategy_factories
from repro.experiments.timing import time_strategy
from repro.mf.models import MFModel

STRATEGY_ORDER = ("mm", "lemp", "fexipro-si", "fexipro-sir", "recdex")


def end_to_end(
    models: list[MFModel] | None = None,
    ks: tuple[int, ...] = K_VALUES,
    *,
    strategies: tuple[str, ...] = STRATEGY_ORDER,
    repeats: int = 3,
) -> pd.DataFrame:
    """Time every (model, K, strategy) combination.

    Returns a long DataFrame with columns
    ``model, k, strategy, build_s, query_s, total_s`` — one row per
    combination (``time_strategy``'s min over ``repeats`` runs, paper-style).
    """
    if models is None:
        models = reference_grid()
    _ = np.random.rand(512, 64) @ np.random.rand(64, 512)  # warm BLAS
    rows = []
    for model in models:
        factories = strategy_factories(model)
        for k in ks:
            for name in strategies:
                best = time_strategy(factories[name], model, k, name=name, repeats=repeats)
                rows.append(
                    {
                        "model": model.name,
                        "k": k,
                        "strategy": name,
                        "build_s": best.build_seconds,
                        "query_s": best.query_seconds,
                        "total_s": best.total_seconds,
                    }
                )
    return pd.DataFrame(rows)


def _pivot(times: pd.DataFrame) -> pd.DataFrame:
    return times.pivot_table(index=["model", "k"], columns="strategy", values="total_s")


def summarize(times: pd.DataFrame) -> dict:
    """The Section-6.3 headline numbers from an ``end_to_end`` frame."""
    wide = _pivot(times)
    out: dict = {}
    have = set(wide.columns)
    if {"recdex", "lemp"} <= have:
        r = wide["lemp"] / wide["recdex"]
        out["recdex_vs_lemp_avg_speedup"] = float(np.exp(np.log(r).mean()))
        out["recdex_vs_lemp_max_speedup"] = float(r.max())
        out["recdex_faster_than_lemp_frac"] = float((r > 1).mean())
    if {"recdex", "fexipro-si"} <= have:
        r = wide["fexipro-si"] / wide["recdex"]
        out["recdex_vs_fexipro_si_avg_speedup"] = float(np.exp(np.log(r).mean()))
        out["recdex_faster_than_fexipro_si_frac"] = float((r > 1).mean())
    if {"recdex", "mm"} <= have:
        r = wide["mm"] / wide["recdex"]
        out["recdex_vs_mm_avg_speedup"] = float(np.exp(np.log(r).mean()))
        out["recdex_vs_mm_max_speedup"] = float(r.max())
        out["mm_vs_recdex_max_speedup"] = float((1 / r).max())
        out["mm_faster_than_recdex_frac"] = float((r < 1).mean())
    # Win counts among the three batch strategies the paper compares
    # (Section 6.3's "LEMP fastest on 11 / MM on 53 / RECDEX on the rest").
    trio = [s for s in ("mm", "lemp", "recdex") if s in have]
    winners = wide[trio].idxmin(axis=1)
    out["n_combinations"] = int(len(wide))
    for s in trio:
        out[f"fastest_count_{s}"] = int((winners == s).sum())
    return out
