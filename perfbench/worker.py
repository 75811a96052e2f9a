"""One measured run of a workload, in a fresh interpreter.

    python3 perfbench/worker.py JOB_JSON

JOB_JSON is a file holding {"workload", "config", "out_dir", "trace",
"run_id", "setup_only"}. The run times its own set-up (importing ppverify,
parsing the config and loading the CSV source), then one `run_experiment` +
`emit_report`, checks the report and writes `result.json` (and, when
traced, `spans.json`) into `out_dir`. A `setup_only` job stops after the
set-up and writes only its time. Only the standard library is imported
before set-up is timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time


def _checks(cfg, report, source) -> list:
    """(name, passed, detail) for every output check of one run."""
    out = []
    eps_grid = [float(e) for e in cfg.epsilon_grid]
    for kind, rows, keys in (
        ("results", report.rows, [(e, t, m) for t in range(cfg.trials) for e in eps_grid for m in ("ml", "threshold")]),
        ("attack", report.attack_rows, [(e, t) for t in range(cfg.trials) for e in eps_grid] if cfg.attack else []),
    ):
        got = {}
        for r in rows:
            key = (r.epsilon, r.trial, r.method) if kind == "results" else (r.epsilon, r.trial)
            got.setdefault(key, []).append(r.status)
        missing = [k for k in keys if got.get(k) != ["ok"]]
        extra = sorted(set(got) - set(keys))
        out.append((f"{kind}_rows_ok", not missing and not extra,
                    f"{len(keys)} expected, not ok or missing: {missing[:3]}, unexpected: {extra[:3]}"))
    if cfg.attack and math.inf in eps_grid:
        powers = [r.power for r in report.attack_rows if math.isinf(r.epsilon)]
        out.append(("attack_power_inf_is_1", bool(powers) and all(p == 1.0 for p in powers),
                    f"powers at eps=inf: {powers}"))
    if source is not None:
        kinds = {c.kind for c in source.schema if not c.is_label}
        label = source.schema[source.label_index]
        n_classes = len({v for v in source.labels().tolist() if v == v})
        want = {"categorical", "numeric-discrete", "numeric-continuous"}
        out.append(("csv_schema_mixed", want <= kinds and n_classes == 3,
                    f"feature kinds {sorted(kinds)}, label {label.name} with {n_classes} classes"))
    return out


def _blas(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def main(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)

    t0 = time.perf_counter()
    from ppverify import experiment

    cfg = experiment.ExperimentConfig.from_dict(job["config"])
    source = experiment.load_csv(cfg.csv_path) if cfg.source == "csv" else None
    setup_s = time.perf_counter() - t0
    if job["setup_only"]:
        _write_json(job, "result.json", {"run_id": job["run_id"], "trace": False,
                                         "setup_only": True, "setup_s": setup_s})
        return

    import numpy
    from ppverify import models, verify

    import spans

    tracer = spans.Tracer(job["run_id"])
    undo = spans.install(tracer, experiment, verify, models) if job["trace"] else []
    emit = tracer.wrap("experiment.emit_report", experiment.emit_report) if job["trace"] else experiment.emit_report

    # one len() per trained model, no clock reads; outside any span
    responses = [0]
    build_responses = experiment.build_responses

    def counted(*args, **kwargs):
        out = build_responses(*args, **kwargs)
        responses[0] += len(out)
        return out

    experiment.build_responses = counted
    undo.append((experiment, "build_responses", build_responses))

    def run():
        report = experiment.run_experiment(cfg)
        return report, emit(report, job["out_dir"])

    whole = tracer.wrap(spans.ROOT, run) if job["trace"] else run
    t1, c1 = time.perf_counter(), time.process_time()
    report, paths = whole()
    wall_s, cpu_s = time.perf_counter() - t1, time.process_time() - c1
    spans.uninstall(undo)

    with open(paths["results"], "rb") as fh:
        results_sha = hashlib.sha256(fh.read()).hexdigest()
    ok = [r for r in report.rows if r.status == "ok"]
    all_rows = list(report.rows) + list(report.attack_rows)

    def mean_acc(method):
        vals = [r.accuracy for r in ok if r.method == method]
        return sum(vals) / len(vals) if vals else 0.0

    result = {
        "run_id": job["run_id"],
        "trace": job["trace"],
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "responses": responses[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results_sha256": results_sha,
        "acc_ml": mean_acc("ml"),
        "acc_threshold": mean_acc("threshold"),
        "cells": len(all_rows),
        "cells_failed": sum(r.status != "ok" for r in all_rows),
        "checks": _checks(cfg, report, source),
        "numpy": numpy.__version__,
        "blas": _blas(numpy),
    }
    if job["trace"]:
        _write_json(job, "spans.json", {"run_id": tracer.run_id, "spans": tracer.spans})
    _write_json(job, "result.json", result)


def _write_json(job: dict, name: str, obj) -> None:
    with open(os.path.join(job["out_dir"], name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    main(sys.argv[1])
