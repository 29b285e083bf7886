"""Blocked MM's two halves, timed apart: scoring and top-K selection per block.

One blocked-MM block is ``USER_BLOCK`` users against every item.  Each
(model, K) case times what ``blocked_mm_topk`` does with that block:

* ``gemm``: ``block_scorer``'s step, which on the float32 path
  (``k * _MIN_ITEMS_PER_K <= n``) scales the block by powers of two and
  runs a float32 GEMM, and otherwise runs the float64 GEMM; either is
  item-major (``items @ block.T``) at K = 1 and user-major (``block @
  items.T``) at K = 10 and 50;
* ``select``: ``topk_from_scores`` on its output: each row's threshold is
  the largest of 128 column-group maxima at K = 1, else the kth largest
  (one ``np.sort``), lowered on the float32 path by the proved margin;
  float32 survivors are re-scored in float64, and one stable argsort
  orders them canonically.  The scorer picks the block's layout from K
  (``kernels.item_major``), and the layout picks the survivor scan, so
  K ∈ {1, 10, 50} times both: K = 1 an item-major block (slab group
  maxima, then only the qualifying groups' columns compared), K = 10 and
  50 a user-major block compared whole.

``path=rule`` follows the module's rule; ``path=float64`` forces the
float64 block every case took before the float32 filter, so one run shows
both.  Models are the reference grid at scale 4 (netflix-f32-lo: 1 200
items, f = 32; kdd-f16-hi: 8 000 items, f = 16), the size the serving
benchmark runs.  Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) to
compare with the paper's single-core numbers.
"""
import pytest

from repro.experiments.grid import reference_grid
from repro.linalg import blocked_mm as mm_module
from repro.linalg.blocked_mm import USER_BLOCK, block_scorer
from repro.linalg.kernels import item_major, topk_from_scores

MODELS = ("netflix-f32-lo", "kdd-f16-hi")


@pytest.fixture(scope="module")
def blocks():
    """(user block, item matrix) per model."""
    grid = {m.name: m for m in reference_grid(scale=4.0) if m.name in MODELS}
    return {name: (grid[name].users[:USER_BLOCK], grid[name].items) for name in MODELS}


def _scorer(blocks, name, k, path, monkeypatch):
    if path == "float64":
        monkeypatch.setattr(mm_module, "_MIN_ITEMS_PER_K", 10**9)
    users, items = blocks[name]
    return users, block_scorer(items, k, len(users))


@pytest.mark.parametrize("path", ["rule", "float64"])
@pytest.mark.parametrize("k", [1, 10, 50])
@pytest.mark.parametrize("name", MODELS)
def test_bench_block_gemm(benchmark, blocks, name, k, path, monkeypatch):
    users, score = _scorer(blocks, name, k, path, monkeypatch)
    scores, _ = benchmark.pedantic(lambda: score(users), rounds=10, iterations=1)
    assert scores.shape == (USER_BLOCK, len(blocks[name][1]))
    assert scores.flags.f_contiguous == item_major(k, scores.shape[1]) == (k == 1)


@pytest.mark.parametrize("path", ["rule", "float64"])
@pytest.mark.parametrize("k", [1, 10, 50])
@pytest.mark.parametrize("name", MODELS)
def test_bench_block_select(benchmark, blocks, name, k, path, monkeypatch):
    users, score = _scorer(blocks, name, k, path, monkeypatch)
    scores, rescore = score(users)
    ids, _ = benchmark.pedantic(lambda: topk_from_scores(scores, k, *rescore), rounds=10, iterations=1)
    assert ids.shape == (USER_BLOCK, k)
