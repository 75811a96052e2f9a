"""Benchmark of ppverify's experiment harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the named workload (see workloads.py) as a closed loop of fresh,
single-process interpreters, one `run_experiment` + `emit_report` each,
until the next run would end after S seconds (at least three runs). Before
each run, SETUP_PROBES more interpreters only set up, so that `setup_s` is
the median of many samples spread over the whole measurement. Every run's
outputs are checked; `results.csv` must hash the same in all of them, and
the same as `baseline.json` recorded for this workload and seed, if it did.
With `--trace 0` the last stdout line reports the end-to-end metrics
(medians over the runs); with `--trace 1` runs alternate untraced and
traced, and it reports the per-layer metrics of the traced runs. A record
of every run, the environment and the traced split goes to
`.perfbench_runs/` at the repository root. The exit code is 0 only when
every check passed.

ppverify is imported from the `src/` directory next to this one; without it
the benchmark exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
BASELINE = os.path.join(HERE, "baseline.json")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("responses_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_cell_ratio", "ratio"),
)

MIN_RUNS = 3
#: Set-up-only interpreters started before each full run.
SETUP_PROBES = 3
#: The whole command, warm-up included, ends within this many seconds.
HARD_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The program under test cannot be found or started."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_THREAD_VARS:
        env[var] = str(nproc())
    return env


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the paths and bytes of ppverify's sources."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ppverify")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def warm_up(env: dict) -> None:
    """Import ppverify once, untimed, so every measured run finds compiled
    bytecode, and make sure it is the copy under src/."""
    if not os.path.isfile(os.path.join(SRC, "ppverify", "__init__.py")):
        raise SetupError(f"no ppverify package under {SRC}")
    out = subprocess.run([sys.executable, "-c", "import ppverify; print(ppverify.__file__)"],
                         env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    path = out.stdout.strip()
    if out.returncode != 0 or not os.path.abspath(path).startswith(SRC + os.sep):
        raise SetupError(f"ppverify did not import from {SRC}: {out.stderr.strip() or path}")


def expected_sha256(workload: str, seed: int):
    """The `results.csv` sha256 that baseline.json holds for `workload` at
    `seed`, or None when it has none."""
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            seeds = json.load(fh)["workloads"].get(workload, {}).get("seeds", {})
    except FileNotFoundError:
        return None
    return seeds.get(str(seed), {}).get("results_sha256")


def run_child(job: dict, env: dict, timeout: float) -> dict:
    """One fresh interpreter for one run; returns its result record."""
    os.makedirs(job["out_dir"], exist_ok=True)
    job_path = os.path.join(job["out_dir"], "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
        error = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        error = f"timed out after {timeout:.0f} s"
    elapsed = time.perf_counter() - started
    result_path = os.path.join(job["out_dir"], "result.json")
    if error is None and not os.path.isfile(result_path):
        error = "no result.json written"
    if error is not None:
        return {"run_id": job["run_id"], "trace": job["trace"], "error": error, "elapsed_s": elapsed}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["elapsed_s"] = elapsed
    return result


def count_failures(results: list, expected_sha=None) -> tuple:
    """(attempted, failed, failed checks) over a set of runs.

    Attempted counts result and attack rows; failed counts those not `ok`,
    plus every failed check. A run or set-up probe that wrote no result
    counts as one attempted, failed row. Runs whose `results.csv` hashes
    differ fail the set-wide check, and so does a hash other than
    `expected_sha` when that is given.
    """
    attempted = failed = 0
    failed_checks = []
    for r in results:
        if "error" in r:
            attempted += 1
            failed += 1
            failed_checks.append((r["run_id"], "run_completed", r["error"]))
            continue
        if r.get("setup_only"):
            continue
        attempted += r["cells"]
        failed += r["cells_failed"]
        for name, passed, detail in r["checks"]:
            if not passed:
                failed += 1
                failed_checks.append((r["run_id"], name, detail))
    hashes = sorted({r["results_sha256"] for r in results if "results_sha256" in r})
    if len(hashes) > 1:
        failed += 1
        failed_checks.append(("*", "results_sha256_identical", f"{len(hashes)} distinct hashes"))
    if expected_sha is not None and hashes and hashes != [expected_sha]:
        failed += 1
        failed_checks.append(("*", "results_sha256_matches_baseline",
                              f"got {' '.join(hashes)}, baseline.json has {expected_sha}"))
    return attempted, failed, failed_checks


def end_to_end(untraced: list, setups: list, attempted: int, failed: int) -> dict:
    """Median end-to-end metrics over the untraced runs of a set; `setup_s`
    is the median over `setups`, the set-up probes and untraced runs."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "responses_per_s": statistics.median(r["responses"] / r["wall_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "ok_cell_ratio": max(0.0, 1.0 - spans.ratio(failed, attempted)),
    }


def per_layer(traced: list, untraced_wall_s: float, out_dir: str) -> tuple:
    """Median per-layer metrics over the traced runs, and the first run's split."""
    per_run, first_split = [], None
    for r in traced:
        with open(os.path.join(out_dir, r["run_id"], "spans.json"), encoding="utf-8") as fh:
            recorded = json.load(fh)["spans"]
        per_run.append(spans.layer_metrics(recorded, untraced_wall_s, r))
        if first_split is None:
            first_split = spans.split(recorded)
    metrics = {name: statistics.median(m[name] for m in per_run) for name, _ in spans.LAYER_METRICS}
    return metrics, first_split


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    env = child_env()
    try:
        warm_up(env)
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: cannot start ppverify: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(RUNS_DIR, tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    spec = workloads.WORKLOADS[args.workload]
    csv_path = None
    if "csv_rows" in spec:
        csv_path = os.path.join(out_dir, "data.csv")
        workloads.write_csv(csv_path, spec["csv_rows"], args.seed)
    config = workloads.experiment_config(args.workload, args.seed, csv_path)

    def child(run_id, traced=False, setup_only=False):
        job = {"workload": args.workload, "config": config, "trace": traced, "setup_only": setup_only,
               "run_id": run_id, "out_dir": os.path.join(out_dir, run_id)}
        return run_child(job, env, HARD_LIMIT_S - (time.perf_counter() - started))

    results, full_runs, longest = [], 0, 0.0
    loop_start = time.perf_counter()
    while True:
        iteration_start = time.perf_counter()
        traced = bool(args.trace) and full_runs % 2 == 1
        for k in range(SETUP_PROBES):
            results.append(child(f"setup{full_runs:03d}-{k}", setup_only=True))
        results.append(child(f"run{full_runs:03d}{'-traced' if traced else ''}", traced=traced))
        full_runs += 1
        if any("error" in r for r in results[-SETUP_PROBES - 1:]):
            break
        now = time.perf_counter()
        longest = max(longest, now - iteration_start)
        if now - started + longest > HARD_LIMIT_S:
            break
        if full_runs >= MIN_RUNS and now - loop_start + longest > args.seconds:
            break

    attempted, failed, failed_checks = count_failures(results, expected_sha256(args.workload, args.seed))
    ok_runs = [r for r in results if "error" not in r]
    setups = [r for r in ok_runs if not r["trace"]]
    untraced = [r for r in setups if not r.get("setup_only")]
    traced_runs = [r for r in ok_runs if r["trace"]]
    full = untraced + traced_runs
    correct = failed == 0 and bool(untraced) and (not args.trace or bool(traced_runs))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "config": config,
        "env": {
            "nproc": nproc(),
            "python": platform.python_version(),
            "numpy": full[0]["numpy"] if full else None,
            "blas": full[0]["blas"] if full else None,
            "blas_threads": int(env[BLAS_THREAD_VARS[0]]),
            "git_commit": git_commit(),
            "src_sha256": source_digest(),
            "machine": platform.machine(),
        },
        "results_sha256": sorted({r["results_sha256"] for r in full}),
        "failed_checks": failed_checks,
        "runs": results,
    }
    print("env " + " ".join(f"{k}={v}" for k, v in record["env"].items())
          + f" workload={args.workload} seed={args.seed}")
    metrics, units = {}, {}
    if untraced:
        e2e = end_to_end(untraced, setups, attempted, failed)
        record["end_to_end"] = e2e
        units.update(END_TO_END)
        for name, unit in END_TO_END:
            print(f"metric {name} = {e2e[name]!r} {unit}")
        if not args.trace:
            metrics = {name: e2e[name] for name, _ in END_TO_END}
    if args.trace and traced_runs and untraced:
        layers, split = per_layer(traced_runs, record["end_to_end"]["wall_s"], out_dir)
        record["per_layer"], record["split"] = layers, split
        units.update(spans.LAYER_METRICS)
        for name, unit in spans.LAYER_METRICS:
            print(f"layer {name} = {layers[name]!r} {unit}")
        for name, share in split.items():
            print(f"split {name} {100 * share:.1f}%")
        metrics = layers
    print(f"results.csv sha256 {' '.join(record['results_sha256'])} "
          f"({len(full)} runs, {len(setups) - len(untraced)} set-up probes, workload {args.workload}, seed {args.seed})")
    for run_id, name, detail in failed_checks:
        print(f"FAILED {run_id} {name}: {detail}")
    with open(os.path.join(RUNS_DIR, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
