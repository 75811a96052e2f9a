"""Checks of the benchmark's own arithmetic: self times from nested spans,
the derived ratios, failure counting and the seeded workload inputs."""

import csv
import io
import json
import math
import os

import pytest

import run
import spans
import workloads


def _span(name, start, end, parent=-1, counts=None):
    return [name, float(start), float(end), parent, counts]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("experiment", 0, 10),
        _span("a", 1, 4, 0),
        _span("a.inner", 2, 3, 1),
        _span("b", 5, 9, 0),
    ]
    assert spans.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered((0, 10), []) == 0.0
    assert spans.covered((0, 10), [(1, 3), (2, 5), (7, 8)]) == 5.0
    assert spans.covered((2, 6), [(0, 3), (5, 9), (10, 12)]) == 2.0


def test_by_name_sums_time_calls_and_counts():
    recorded = [
        _span("experiment", 0, 10),
        _span("models.train.logreg", 1, 2, 0, {"rows": 100}),
        _span("models.train.logreg", 3, 5, 0, {"rows": 50}),
    ]
    agg = spans.by_name(recorded)["models.train.logreg"]
    assert agg == {"s": 3.0, "self_s": 3.0, "calls": 2, "rows": 150}


def test_layer_metrics_ratios():
    recorded = [
        _span("experiment", 0, 20),
        _span("preprocess.apply_pipeline", 0, 1, 0, {"rows_in": 100, "rows_out": 80}),
        _span("verify.build_responses", 1, 11, 0, {"responses": 2}),
        _span("explain.lime", 1, 5, 2),
        _span("models.predict_proba.logreg", 2, 3, 3, {"rows": 1000}),
        _span("models.predict_proba.logreg", 5, 6, 2, {"rows": 1}),
        _span("explain.lime", 6, 10, 2),
        _span("models.predict_proba.logreg", 7, 8, 6, {"rows": 1000}),
        _span("verify.classify", 12, 14, 0),
        _span("models.predict_proba.rforest", 12, 13, 8, {"rows": 5}),
        _span("experiment.emit_report", 19, 20, 0),
    ]
    report = {"cells": 4, "cells_failed": 1, "acc_ml": 0.9, "acc_threshold": 0.5}
    m = spans.layer_metrics(recorded, untraced_wall_s=16.0, report=report)
    assert set(m) == {name for name, _ in spans.LAYER_METRICS}
    assert m["preprocess.keep_ratio"] == 0.8
    assert m["explain.queries"] == 2
    # the classify call sits outside build_responses and is not a probe
    assert m["explain.model_calls_per_query"] == 1.5
    assert m["explain.rows_per_query"] == 1000.5
    assert m["explain.lime.self_s"] == 6.0
    assert m["verify.build_responses.self_s"] == 1.0
    assert m["models.predict_proba.logreg.rows_per_call"] == pytest.approx(2001 / 3)
    assert m["models.predict_proba.dtree.rows_per_call"] == 0.0
    assert m["experiment.self_s"] == 20 - 1 - 10 - 2 - 1
    assert m["trace.overhead_ratio"] == 0.25
    assert (m["experiment.cells"], m["experiment.cells_failed"]) == (4, 1)
    assert (m["verify.acc_ml"], m["verify.acc_threshold"]) == (0.9, 0.5)


def test_layer_metrics_needs_one_root():
    with pytest.raises(ValueError):
        spans.layer_metrics([_span("a", 0, 1), _span("b", 1, 2)], 1.0, {})


def test_split_shares_sum_to_one():
    recorded = [_span("experiment", 0, 4), _span("a", 0, 1, 0), _span("b", 1, 3, 0)]
    shares = spans.split(recorded)
    assert list(shares) == ["b", "experiment", "a"]
    assert math.isclose(sum(shares.values()), 1.0)


def test_tracer_records_nesting_and_counts():
    tracer = spans.Tracer("r")
    inner = tracer.wrap("inner", lambda x: [x] * x, lambda args, kwargs, out: {"rows": len(out)})
    outer = tracer.wrap(lambda args, kwargs: f"outer.{args[0]}", lambda x: inner(x))
    assert outer(3) == [3, 3, 3]
    (n0, s0, e0, p0, c0), (n1, s1, e1, p1, c1) = tracer.spans
    assert (n0, p0, c0) == ("outer.3", -1, None)
    assert (n1, p1, c1) == ("inner", 0, {"rows": 3})
    assert s0 <= s1 <= e1 <= e0


def test_tracer_closes_a_span_when_the_call_raises():
    tracer = spans.Tracer("r")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0][2] is not None
    assert tracer.wrap("after", lambda: 1)() == 1
    assert tracer.spans[1][3] == -1


def test_install_patches_every_boundary_and_uninstall_restores():
    from ppverify import experiment, models, verify

    before = {
        (owner, attr): getattr(owner, attr)
        for owner, attr in [(experiment, "train"), (verify, "lime_explain"),
                            (models.RandomForestModel, "predict_proba")]
    }
    undo = spans.install(spans.Tracer("r"), experiment, verify, models)
    try:
        assert len(undo) == 18
        for owner, attr, original in undo:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        spans.uninstall(undo)
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is original


def _result(run_id, cells=4, failed=0, checks=(), sha="a"):
    return {"run_id": run_id, "trace": False, "cells": cells, "cells_failed": failed,
            "checks": [list(c) for c in checks], "results_sha256": sha}


def test_count_failures_adds_rows_checks_errors_and_hash_mismatch():
    assert run.count_failures([_result("r0"), _result("r1")]) == (8, 0, [])
    attempted, failed, why = run.count_failures([
        _result("r0", failed=1, checks=[("results_rows_ok", False, "x"), ("other", True, "")]),
        _result("r1", sha="b"),
        {"run_id": "r2", "trace": False, "error": "exit 1"},
    ])
    assert (attempted, failed) == (9, 4)
    assert [w[1] for w in why] == ["results_rows_ok", "run_completed", "results_sha256_identical"]


def test_count_failures_compares_with_the_baseline_hash_and_skips_probes():
    probe = {"run_id": "setup000-0", "trace": False, "setup_only": True, "setup_s": 0.2}
    runs = [probe, _result("r0"), _result("r1")]
    assert run.count_failures(runs, expected_sha="a") == (8, 0, [])
    attempted, failed, why = run.count_failures(runs, expected_sha="b")
    assert (attempted, failed) == (8, 1)
    assert [w[1] for w in why] == ["results_sha256_matches_baseline"]
    # a probe that failed still counts
    assert run.count_failures([dict(probe, error="exit 1")] + runs[1:])[:2] == (9, 1)


def test_expected_sha256_reads_the_seed_entry(tmp_path, monkeypatch):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"workloads": {"w": {"seeds": {"3": {"results_sha256": "abc"}}}}}))
    monkeypatch.setattr(run, "BASELINE", str(path))
    assert run.expected_sha256("w", 3) == "abc"
    assert run.expected_sha256("w", 4) is None
    assert run.expected_sha256("other", 3) is None
    monkeypatch.setattr(run, "BASELINE", str(tmp_path / "missing.json"))
    assert run.expected_sha256("w", 3) is None


def test_end_to_end_takes_medians_and_the_ok_ratio():
    runs = [
        dict(_result(f"r{i}"), setup_s=s, wall_s=w, responses=100, peak_rss_mb=m)
        for i, (s, w, m) in enumerate([(0.3, 2.0, 40.0), (0.1, 4.0, 42.0), (0.2, 5.0, 41.0)])
    ]
    probes = [{"setup_s": s} for s in (0.4, 0.5)]
    e2e = run.end_to_end(runs, runs + probes, attempted=8, failed=2)
    assert e2e["setup_s"] == 0.3
    assert e2e["wall_s"] == 4.0
    assert e2e["responses_per_s"] == 25.0
    assert e2e["peak_rss_mb"] == 41.0
    assert e2e["ok_cell_ratio"] == 0.75
    assert run.end_to_end(runs, runs, attempted=1, failed=3)["ok_cell_ratio"] == 0.0


def test_csv_is_a_function_of_the_seed():
    a, b, c = (workloads.csv_rows(400, s) for s in (5, 5, 6))
    assert a == b and a != c
    text = io.StringIO()
    csv.writer(text).writerows([workloads.CSV_HEADER] + a)
    rows = list(csv.reader(io.StringIO(text.getvalue())))
    assert all(len(r) == len(workloads.CSV_HEADER) for r in rows)
    body = rows[1:]
    assert {r[-1] for r in body} == {"0", "1", "2"}
    assert any("" in r or "?" in r for r in body)
    assert len({tuple(r) for r in body}) < len(body)


def test_every_workload_config_is_valid():
    from ppverify.experiment import ExperimentConfig

    for name in workloads.WORKLOADS:
        cfg = ExperimentConfig.from_dict(workloads.experiment_config(name, 7, "data.csv"))
        assert cfg.master_seed == 7
        assert cfg.trials == 1


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.LAYER_METRICS)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (name, spec["why"]) for name, spec in workloads.WORKLOADS.items()
    ]


def test_spread_is_the_quartile_distance_over_the_median():
    from spread import spread

    assert spread([float(v) for v in range(1, 11)]) == 1.0
    assert spread([2.0, 2.0, 2.0, 2.0]) == 0.0
