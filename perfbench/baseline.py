"""Collect the benchmark's run records into `perfbench/baseline.json`.

    python3 perfbench/baseline.py

Reads every `.perfbench_runs/<workload>-seed<n>-trace<t>.json` that
`run.py` left behind with all checks passed. Per workload it records the
config and the reason it was chosen, the `results.csv` sha256 (which
`run.py` then requires at that seed) and end-to-end values of every seed,
their medians and quartile spreads, and the per-layer metrics and traced
split of the lowest traced seed. It also records the environment and which
end-to-end metric each layer metric is expected to move.
"""

from __future__ import annotations

import glob
import json
import os
import re
import statistics

import workloads
from run import END_TO_END, HERE, RUNS_DIR
from spread import spread

#: Which end-to-end metric each layer metric should move, and where.
LAYER_MAP = [
    {"layer": ["models.train.logreg.s"], "moves": ["wall_s", "responses_per_s"],
     "on": ["paper-default"], "unchanged_on": ["forest-shap", "csv-multi-attack"]},
    {"layer": ["models.predict_proba.rforest.s", "models.predict_proba.rforest.rows_per_call"],
     "moves": ["wall_s"], "on": ["forest-shap"]},
    {"layer": ["models.train.rforest.s"], "moves": ["wall_s"], "on": ["forest-shap"],
     "note": "also the ML verifier's training inside verify.fit_ml on paper-default and csv-multi-attack"},
    {"layer": ["models.train.dtree.s"], "moves": ["wall_s"], "on": ["csv-multi-attack"]},
    {"layer": ["explain.lime.self_s", "explain.shap.self_s", "explain.model_calls_per_query"],
     "moves": ["wall_s"], "on": ["paper-default", "forest-shap"],
     "note": "batching queries raises rows_per_call and can raise peak_rss_mb on forest-shap"},
    {"layer": ["membership.mia_power.s", "experiment.self_s"], "moves": ["wall_s"],
     "on": ["csv-multi-attack"], "unchanged_on": ["paper-default", "forest-shap"]},
    {"layer": ["tabular.load_csv.s"], "moves": ["setup_s"], "on": ["csv-multi-attack"]},
    {"layer": ["preprocess.*", "ldp.*", "tabular.*"], "moves": [], "on": [],
     "note": "each under 2% of the traced wall time on every workload; a gain is not predicted to clear the wall_s bound"},
    {"layer": ["verify.acc_ml", "verify.acc_threshold"], "moves": [], "on": [],
     "note": "with the results.csv sha256 these must not move on any workload for a speed-only change"},
]

_RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.json$")


def main() -> int:
    records: dict = {}
    for path in glob.glob(os.path.join(RUNS_DIR, "*-seed*-trace*.json")):
        m = _RECORD.search(os.path.basename(path))
        if m and m["workload"] in workloads.WORKLOADS:
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
            if not record["failed_checks"]:
                records[(m["workload"], int(m["seed"]), int(m["trace"]))] = record
    if not records:
        print(f"no run records under {RUNS_DIR}")
        return 1

    out = {"env": None, "layer_map": LAYER_MAP, "workloads": {}}
    for name, spec in workloads.WORKLOADS.items():
        entry = {"why": spec["why"], "config": workloads.experiment_config(name, 0, "data.csv"),
                 "csv_rows": spec.get("csv_rows")}
        untraced = sorted((k[1], r) for k, r in records.items() if k[0] == name and k[2] == 0)
        traced = sorted((k[1], r) for k, r in records.items() if k[0] == name and k[2] == 1)
        if untraced:
            entry["seeds"] = {
                str(seed): {"results_sha256": r["results_sha256"][0], "end_to_end": r["end_to_end"],
                            "runs": sum(1 for run in r["runs"] if not run["trace"] and not run.get("setup_only")),
                            "setup_samples": sum(1 for run in r["runs"] if not run["trace"])}
                for seed, r in untraced
            }
            entry["end_to_end"] = {}
            for metric, unit in END_TO_END:
                values = [r["end_to_end"][metric] for _, r in untraced]
                entry["end_to_end"][metric] = {
                    "unit": unit, "median": statistics.median(values),
                    "spread": spread(values) if len(values) >= 2 else None, "n": len(values),
                }
            out["env"] = untraced[0][1]["env"]
        if traced:
            seed, r = traced[0]
            entry["traced"] = {"seed": seed, "per_layer": r["per_layer"], "split": r["split"]}
        out["workloads"][name] = entry

    path = os.path.join(HERE, "baseline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
