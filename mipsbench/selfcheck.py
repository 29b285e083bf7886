#!/usr/bin/env python3
"""Harness self-check: tiny-scale runs of every workload, traced and not.

    python3 mipsbench/selfcheck.py

Every run must print exactly the end-to-end (``--trace 0``) or per-layer
(``--trace 1``) metrics that BENCHMARK.json lists, and answer every job
exactly.  One more run swaps one id in its first answer (``--corrupt``);
that job must be counted as failed.  Exits 0 when all of this holds.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*args: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", "7", "--seconds", "2", "--smoke", *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            res = run("--workload", wl["name"], "--trace", str(trace))
            if set(res["metrics"]) != {m["name"] for m in wanted[trace]}:
                problems.append(f"{wl['name']} trace={trace}: metrics differ from BENCHMARK.json")
            if not res["correct"] or res["failed"]:
                problems.append(f"{wl['name']} trace={trace}: {res['failed']} of {res['attempted']} jobs wrong")
            print(f"{wl['name']} trace={trace}: {res['attempted']} jobs, {len(res['metrics'])} metrics", flush=True)
    res = run("--workload", spec["workloads"][0]["name"], "--trace", "0", "--corrupt")
    if res["correct"] or res["failed"] != 1 or res["metrics"]["exact_frac"]["value"] >= 1.0:
        problems.append(f"a swapped id was not counted as a failure: {res}")
    print(f"corrupted answer: {res['failed']} of {res['attempted']} jobs failed")
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
