"""Every ``jobs/`` entrypoint imports, and each that writes no file runs.

The jobs are scripts, not a package, so each is loaded by path.  A job's
``run(spark, scale=...)`` is called at a scale small enough for the whole
file to take seconds; ``table2_optimizer`` writes ``results/``, so it is
only imported.
"""
import importlib.util
import pathlib

import pytest

JOBS = pathlib.Path(__file__).resolve().parent.parent / "jobs"
WRITES_FILES = {"table2_optimizer"}
SCALE = 0.01


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"jobs.{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(JOBS.glob("*.py")), ids=lambda p: p.stem)
def test_job(spark, path):
    job = _load(path)
    if path.stem.startswith("_"):  # shared helpers, not a job
        return
    assert callable(job.run)
    if path.stem not in WRITES_FILES:
        assert job.run(spark, scale=SCALE).count() > 0
