"""Table 2: effectiveness of the RECOPT online optimizer.

For each optimizer configuration (a set of candidate indexes, always
alongside blocked MM), runs RECOPT on every (model, K) combination and
reports:

* **accuracy** — how often RECOPT picked the truly fastest strategy;
* **avg/std overhead** — RECOPT's wall-clock vs the zero-overhead oracle
  (run the truly fastest strategy only);
* **avg speedup vs the LEMP-only baseline** — for index-only (no
  optimizer), RECOPT (with its overhead), and the oracle,
  matching the paper's three right-hand columns.

Speedups are geometric means of per-combination ratios (the paper
averages ratios; the geometric mean is the scale-free version).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core.recopt import MIN_SAMPLE, Recopt
from repro.experiments.grid import K_VALUES, reference_grid, strategy_factories
from repro.mf.models import MFModel

#: The paper's five optimizer configurations (Table 2 rows).
CONFIGS: dict[str, tuple[str, ...]] = {
    "MM + LEMP": ("lemp",),
    "MM + FEXIPRO-SI": ("fexipro-si",),
    "MM + FEXIPRO-SIR": ("fexipro-sir",),
    "MM + RECDEX": ("recdex",),
    "MM + LEMP + RECDEX": ("lemp", "recdex"),
}

#: Paper-reported Table 2, for EXPERIMENTS.md side-by-side.
PAPER_TABLE2 = pd.DataFrame(
    {
        "config": list(CONFIGS),
        "accuracy": [0.891, 0.978, 0.978, 0.935, 0.848],
        "avg_overhead": [0.043, 0.064, 0.064, 0.055, 0.091],
        "std_overhead": [0.042, 0.081, 0.078, 0.059, 0.084],
        "index_only_speedup_vs_lemp": [1.0, 0.50, 0.43, 1.78, np.nan],
        "recopt_speedup_vs_lemp": [2.81, 2.60, 2.56, 3.15, 2.99],
        "oracle_speedup_vs_lemp": [3.08, 2.93, 2.88, 3.43, 3.48],
    }
).set_index("config")


def optimizer_table(
    true_times: pd.DataFrame,
    models: list[MFModel] | None = None,
    ks: tuple[int, ...] = K_VALUES,
    *,
    configs: dict[str, tuple[str, ...]] | None = None,
    min_sample: int = MIN_SAMPLE,
    seed: int = 0,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Run RECOPT per config over the grid; aggregate into Table 2.

    ``true_times`` is the Fig. 6 frame (full per-strategy wall-clock) —
    the oracle and accuracy baselines.  Returns ``(table2, detail)``:
    the aggregated table and the per-combination detail frame.
    """
    if models is None:
        models = reference_grid()
    if configs is None:
        configs = CONFIGS
    wide = true_times.pivot_table(
        index=["model", "k"], columns="strategy", values="total_s"
    )
    detail_rows = []
    for config_name, index_names in configs.items():
        for model in models:
            factories = strategy_factories(model)
            for k in ks:
                truth = wide.loc[(model.name, k)]
                candidates = ["mm", *index_names]
                oracle_choice = truth[candidates].idxmin()
                oracle_total = float(truth[candidates].min())
                t0 = time.perf_counter()
                _, report = Recopt(
                    model,
                    {n: factories[n] for n in index_names},
                    k=k,
                    min_sample=min_sample,
                    seed=seed,
                ).run()
                recopt_total = time.perf_counter() - t0
                detail_rows.append(
                    {
                        "config": config_name,
                        "model": model.name,
                        "k": k,
                        "chosen": report.chosen,
                        "oracle_choice": oracle_choice,
                        "correct": report.chosen == oracle_choice,
                        "recopt_total_s": recopt_total,
                        "oracle_total_s": oracle_total,
                        # Single-index configs have a natural "index only"
                        # baseline; the 3-way config does not (paper: "-").
                        "index_only_total_s": (
                            float(truth[index_names[0]])
                            if len(index_names) == 1
                            else np.nan
                        ),
                        "lemp_total_s": float(truth["lemp"]),
                        "overhead": recopt_total / oracle_total - 1.0,
                    }
                )
    detail = pd.DataFrame(detail_rows)

    def _geomean(x: pd.Series) -> float:
        x = x.dropna()
        return float(np.exp(np.log(x).mean())) if len(x) else np.nan

    agg_rows = []
    for config_name, grp in detail.groupby("config", sort=False):
        agg_rows.append(
            {
                "config": config_name,
                "accuracy": float(grp["correct"].mean()),
                "avg_overhead": float(grp["overhead"].mean()),
                "std_overhead": float(grp["overhead"].std()),
                "index_only_speedup_vs_lemp": _geomean(
                    grp["lemp_total_s"] / grp["index_only_total_s"]
                ),
                "recopt_speedup_vs_lemp": _geomean(
                    grp["lemp_total_s"] / grp["recopt_total_s"]
                ),
                "oracle_speedup_vs_lemp": _geomean(
                    grp["lemp_total_s"] / grp["oracle_total_s"]
                ),
            }
        )
    table = pd.DataFrame(agg_rows).set_index("config").loc[list(configs)]
    return table, detail
