"""Benchmark self-test: two traced runs with the same seed must produce the
identical instance set, identical verdicts and identical per-layer ``calls``
and ``states_out``.  Timings are exempt.

    python3 perfbench/selftest.py

It uses seed ``SEED`` on every workload.

Exits 0 when every workload repeats exactly, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def traced_run(workload: str, seed: int) -> dict:
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    path = os.path.join(ROOT, ".perfbench_work", f"{workload}-seed{seed}", "result-trace1.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        first, second = traced_run(workload, SEED), traced_run(workload, SEED)
        for key in ("instances_sha256", "verdicts_sha256", "layer_counts", "failures"):
            same = first[key] == second[key]
            ok = ok and same
            print(f"{workload:<9} {key:<17} {'same' if same else 'DIFFERS'}")
        if first["failures"]:
            ok = False
            print(f"{workload:<9} has failed instances: {first['failures'][:3]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
