"""Blocked MM's two halves, timed apart: GEMM and top-K selection per block.

One blocked-MM block is ``USER_BLOCK`` users against every item.  Each
(model, K) case times the GEMM and ``topk_from_scores`` on the same block
as separate benchmark rows, so the selection-to-GEMM ratio can be checked
without the serving harness.  Models are the reference grid at scale 4
(netflix-f32-lo: 1 200 items; kdd-f16-hi: 8 000 items), the size the
serving benchmark runs.  Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``)
to compare with the paper's single-core numbers.
"""
import pytest

from repro.experiments.grid import reference_grid
from repro.linalg.blocked_mm import USER_BLOCK
from repro.linalg.kernels import topk_from_scores

MODELS = ("netflix-f32-lo", "kdd-f16-hi")


@pytest.fixture(scope="module")
def blocks():
    """(user block, item matrix) per model."""
    grid = {m.name: m for m in reference_grid(scale=4.0) if m.name in MODELS}
    return {name: (grid[name].users[:USER_BLOCK], grid[name].items) for name in MODELS}


@pytest.mark.parametrize("name", MODELS)
def test_bench_block_gemm(benchmark, blocks, name):
    users, items = blocks[name]
    scores = benchmark.pedantic(lambda: users @ items.T, rounds=10, iterations=1)
    assert scores.shape == (USER_BLOCK, len(items))


@pytest.mark.parametrize("k", [1, 10, 50])
@pytest.mark.parametrize("name", MODELS)
def test_bench_block_select(benchmark, blocks, name, k):
    users, items = blocks[name]
    scores = users @ items.T
    ids, _ = benchmark.pedantic(lambda: topk_from_scores(scores, k), rounds=10, iterations=1)
    assert ids.shape == (USER_BLOCK, k)
