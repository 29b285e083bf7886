"""Fig. 5 (as a table): effect of regularization λ on serving runtime.

Trains ALS models over a λ grid on synthetic dataset analogs (our NOMAD
substitute), then times MM / LEMP-lite / RECDEX at K=1 for each.  The
reproduction targets the paper's qualitative claims:

* MM runtime is flat in λ;
* index runtimes vary strongly with λ, generally improving as λ grows;
* the crossover (if any) is model-dependent — no λ-based rule suffices.
"""
from __future__ import annotations

import pandas as pd

from repro.experiments.grid import strategy_factories
from repro.experiments.timing import time_strategy
from repro.mf.models import als_model

DEFAULT_LAMBDAS = (1e-4, 1e-2, 0.1, 1.0, 5.0, 20.0, 100.0)


def lambda_sweep(
    *,
    datasets: tuple[str, ...] = ("netflix", "r2"),
    f: int = 16,
    scale: float = 1.0,
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS,
    k: int = 1,
    n_iters: int = 6,
    strategies: tuple[str, ...] = ("mm", "lemp", "recdex"),
    repeats: int = 3,
    seed: int = 0,
) -> pd.DataFrame:
    """Long frame: dataset, λ, test RMSE, and total seconds per strategy.

    Timings are ``time_strategy``'s min over ``repeats`` runs — at sub-100 ms
    scale a single wall-clock sample is dominated by BLAS thread-pool jitter.
    """
    import numpy as np

    _ = np.random.rand(512, 64) @ np.random.rand(64, 512)  # warm BLAS
    rows = []
    for ds in datasets:
        for lam in lambdas:
            model = als_model(
                dataset=ds, scale=scale, f=f, lam=lam, n_iters=n_iters, seed=seed
            )
            factories = strategy_factories(model)
            for name in strategies:
                t = time_strategy(factories[name], model, k, name=name, repeats=repeats)
                rows.append(
                    {
                        "dataset": ds,
                        "lambda": lam,
                        "test_rmse": model.test_rmse,
                        "strategy": name,
                        "total_s": t.total_seconds,
                    }
                )
    return pd.DataFrame(rows)


def summarize(sweep: pd.DataFrame) -> dict:
    """Qualitative Fig.-5 claims, checked numerically."""
    out: dict = {}
    wide = sweep.pivot_table(
        index=["dataset", "lambda"], columns="strategy", values="total_s"
    )
    # MM flatness: max/min ratio across λ per dataset.
    for ds, grp in wide.groupby(level="dataset"):
        out[f"{ds}_mm_spread"] = float(grp["mm"].max() / grp["mm"].min())
        for s in ("lemp", "recdex"):
            if s in grp:
                out[f"{ds}_{s}_spread"] = float(grp[s].max() / grp[s].min())
                lam_lo = grp.index.get_level_values("lambda").min()
                lam_hi = grp.index.get_level_values("lambda").max()
                out[f"{ds}_{s}_hi_vs_lo_lambda"] = float(
                    grp[s].loc[(ds, lam_lo)] / grp[s].loc[(ds, lam_hi)]
                )
    return out
