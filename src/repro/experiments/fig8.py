"""Fig. 8 (as a table): RECDEX runtime breakdown + blocking lesion study.

Per model: wall-clock of RECDEX's four stages (cluster, bound, sort,
serve) and the serve time with the shared-prefix blocked multiply
disabled (``shared=False``: the same walk run for each user alone, from a
head of K items).  Both serves run the RECDEX that RECOPT serves, with the
walk's own chunk floor.  The paper reports 2.4× (Netflix-NOMAD f=50) and
1.4× (R2-NOMAD f=50) speedups from work sharing, and a 1.6–1.8 %
pre-serving overhead.
"""
from __future__ import annotations

import time

import pandas as pd

from repro.core.recdex import RecdexIndex
from repro.mf.models import MFModel


def breakdown(models: list[MFModel], *, k: int = 1, block: int | None = None) -> pd.DataFrame:
    """One row per model: stage times, lesion serve time, sharing speedup.

    ``block`` is RECDEX's shared prefix B (``None``: RECDEX's own default).
    """
    rows = []
    for model in models:
        idx = RecdexIndex(model, block=block)
        idx.build()
        idx.query_vectors(model.users, k)  # warm BLAS/thread pools outside the timed region
        idx.items_visited = 0
        t0 = time.perf_counter()
        idx.query_vectors(model.users, k)
        serve_shared = time.perf_counter() - t0
        w_bar = idx.items_visited / model.m

        lesion = RecdexIndex(model, shared=False)
        lesion.build()
        t0 = time.perf_counter()
        lesion.query_vectors(model.users, k)
        serve_unshared = time.perf_counter() - t0

        pre = sum(idx.timings.values())
        rows.append(
            {
                "model": model.name,
                "cluster_s": idx.timings["cluster"],
                "bound_s": idx.timings["bound"],
                "sort_s": idx.timings["sort"],
                "serve_shared_s": serve_shared,
                "serve_unshared_s": serve_unshared,
                "sharing_speedup": serve_unshared / serve_shared,
                "pre_serving_overhead": pre / (pre + serve_shared),
                "avg_items_visited": w_bar,
            }
        )
    return pd.DataFrame(rows).set_index("model")
