"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Runs `run.py` untraced once per seed, one after another, for the
`run_seconds` that BENCHMARK.json fixes, and prints for each end-to-end
metric its median and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. The JSON
of every run is appended to `.perfbench_runs/spread-<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, RUNS_DIR


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=seed_range)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    os.makedirs(RUNS_DIR, exist_ok=True)
    log = os.path.join(RUNS_DIR, f"spread-{args.workload}.jsonl")
    values: dict = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(result, seed=seed)) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    if len(args.seeds) >= 2:
        for name, vals in values.items():
            print(f"{name}: median {statistics.median(vals):.6g} spread {spread(vals):.4f} (n={len(vals)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
