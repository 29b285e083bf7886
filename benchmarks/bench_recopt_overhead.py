"""RECOPT's fixed cost per job: what it pays for its index candidates.

Every RECOPT job builds each candidate index and times it on a user
sample before it serves.  On an MM-friendly model nearly all of that is
spent on candidates that lose, so this file times the pieces apart:

* ``kmeans`` on netflix-f32-lo's users (C=8, 10 iterations): RECDEX's
  build is mostly this;
* ``Recopt(...).estimate()`` on netflix-f32-lo, K=10, with the candidates
  the serving benchmark uses (LEMP, RECDEX, FEXIPRO-SI; MM is implicit);
* LEMP and RECDEX full serves at K=50 on kdd-f32-hi, where the bounded
  walk merges most.

Models are the reference grid at scale 4, the size the serving benchmark
runs.  Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) to compare with
the paper's single-core numbers.
"""
import numpy as np
import pytest

from repro.core.kmeans import kmeans
from repro.core.recdex import _KMEANS_ITERS, DEFAULT_CLUSTERS
from repro.core.recopt import Recopt
from repro.experiments.grid import reference_grid, strategy_factories

CANDIDATES = ("lemp", "recdex", "fexipro-si")


@pytest.fixture(scope="module")
def models():
    names = ("netflix-f32-lo", "kdd-f32-hi")
    return {m.name: m for m in reference_grid(scale=4.0) if m.name in names}


def test_bench_kmeans(benchmark, models):
    users = models["netflix-f32-lo"].users
    labels, _ = benchmark.pedantic(
        lambda: kmeans(users, DEFAULT_CLUSTERS, n_iters=_KMEANS_ITERS, seed=0),
        rounds=10,
        iterations=1,
    )
    assert labels.shape == (len(users),)


def test_bench_recopt_estimate(benchmark, models):
    model = models["netflix-f32-lo"]
    fac = strategy_factories(model)
    recopt = Recopt(model, {c: fac[c] for c in CANDIDATES}, k=10, seed=0)
    report, *_ = benchmark.pedantic(recopt.estimate, rounds=5, iterations=1)
    assert report.sample_size > 0


@pytest.mark.parametrize("strategy", ["lemp", "recdex"])
def test_bench_walk_serve_k50(benchmark, models, strategy):
    model = models["kdd-f32-hi"]
    strat = strategy_factories(model)[strategy](model)
    strat.build()
    rows = np.arange(model.m)
    res = benchmark.pedantic(lambda: strat.query(rows, 50), rounds=3, iterations=1)
    assert res.ids.shape == (model.m, 50)
