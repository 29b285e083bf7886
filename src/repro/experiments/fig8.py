"""Fig. 8 (as a table): RECDEX runtime breakdown + blocking lesion study.

Per model: wall-clock of RECDEX's four stages (cluster, bound, sort,
serve) and the serve time with the shared-prefix blocked multiply
disabled (``shared=False``).  The paper reports 2.4× (Netflix-NOMAD
f=50) and 1.4× (R2-NOMAD f=50) speedups from work sharing, and a
1.6–1.8 % pre-serving overhead.
"""
from __future__ import annotations

import time

import pandas as pd

from repro.core.recdex import _WALK_CHUNK, RecdexIndex
from repro.mf.models import MFModel


def breakdown(
    models: list[MFModel],
    *,
    k: int = 1,
    block: int | None = None,
    walk_chunk: int = _WALK_CHUNK,
    lesion_chunk: int = 32,
) -> pd.DataFrame:
    """One row per model: stage times, lesion serve time, sharing speedup.

    ``lesion_chunk`` is the per-user traversal granularity of the
    unshared variant.  The paper's lesion walks item-at-a-time per user;
    a NumPy loop at granularity 1 would measure pure interpreter overhead,
    so the lesion walks small per-user chunks instead — still far more
    vectorized than the paper's per-item walk, i.e. generous to the
    lesion.
    """
    rows = []
    for model in models:
        b = block if block is not None else max(32, model.n // 8)
        idx = RecdexIndex(model, block=b, walk_chunk=walk_chunk)
        idx.build()
        idx.query_vectors(model.users, k)  # warm BLAS/thread pools outside the timed region
        idx.items_visited = 0
        t0 = time.perf_counter()
        idx.query_vectors(model.users, k)
        serve_shared = time.perf_counter() - t0
        w_bar = idx.items_visited / model.m

        lesion = RecdexIndex(
            model, block=b, walk_chunk=lesion_chunk, shared=False
        )
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
