import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ppverify import experiment
from ppverify.cli import main
from ppverify.errors import ConfigError, DataError
from ppverify.experiment import (
    ExperimentConfig,
    emit_report,
    run_experiment,
    summarize,
)
from ppverify.preprocess import DROP_OUTLIERS, apply_pipeline, enumerate_pipelines
from ppverify.seeding import derive_seed
from ppverify.tabular import SyntheticSpec, load_csv, read_rows, split


def tiny_config(**overrides):
    base = dict(
        synthetic=SyntheticSpec(rows=200, features=4, classes=2),
        epsilon_grid=(1.0, math.inf),
        trials=2,
        query_count=6,
        background_size=4,
        lime_num_samples=300,
        master_seed=77,
        attack_group_size=15,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_produces_one_row_per_cell_and_method():
    cfg = tiny_config()
    report = run_experiment(cfg)
    assert len(report.rows) == 2 * 2 * 2  # grid x trials x methods
    methods = {(r.epsilon, r.trial, r.method) for r in report.rows}
    assert len(methods) == len(report.rows)
    assert all(r.status == "ok" for r in report.rows)
    assert all(0.0 <= r.accuracy <= 1.0 for r in report.rows)
    assert len(report.attack_rows) == 2 * 2


def test_summarize_aggregates_per_epsilon_and_method():
    report = run_experiment(tiny_config())
    summary = summarize(report)
    keys = {(s["epsilon"], s["method"]) for s in summary}
    assert (1.0, "ml") in keys and (math.inf, "threshold") in keys
    assert (1.0, "attack") in keys
    for s in summary:
        if s["method"] != "attack":
            assert s["n_trials"] == 2


def test_rerun_is_identical_in_memory():
    a = run_experiment(tiny_config())
    b = run_experiment(tiny_config())
    assert [(r.epsilon, r.trial, r.method, r.accuracy, r.status) for r in a.rows] == [
        (r.epsilon, r.trial, r.method, r.accuracy, r.status) for r in b.rows
    ]
    assert [(r.epsilon, r.trial, r.power, r.gamma) for r in a.attack_rows] == [
        (r.epsilon, r.trial, r.power, r.gamma) for r in b.attack_rows
    ]


def test_emit_report_writes_stable_files(tmp_path):
    report = run_experiment(tiny_config())
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    paths1 = emit_report(report, str(out1))
    paths2 = emit_report(report, str(out2))
    for key in ("results", "summary", "attack", "config", "accuracy_chart", "attack_chart"):
        b1 = open(paths1[key], "rb").read()
        b2 = open(paths2[key], "rb").read()
        assert b1 == b2, key
    # run_meta carries wall-clock timings and is exempt from byte identity
    assert os.path.exists(paths1["run_meta"])
    header = open(paths1["results"]).readline().strip()
    assert header == "epsilon,trial,method,accuracy,status"
    assert open(paths1["results"]).read().count("\n") == 1 + 8


def test_results_csv_epsilon_text_uses_inf():
    report = run_experiment(tiny_config(trials=1))
    out = summarize(report)
    assert any(math.isinf(s["epsilon"]) for s in out)


def test_config_roundtrip_through_dict():
    cfg = tiny_config()
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()
    assert back.epsilon_grid == cfg.epsilon_grid


def test_config_rejects_unknown_keys():
    raw = tiny_config().to_dict()
    raw["typo_field"] = 1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        tiny_config(trials=0).validate()
    with pytest.raises(ConfigError):
        tiny_config(epsilon_grid=()).validate()
    with pytest.raises(ConfigError):
        tiny_config(explainer="gradients").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(source="csv", synthetic=None).validate()


@pytest.mark.parametrize("field", ["lime_ridge", "lime_kernel_width"])
def test_config_rejects_nan(field):
    with pytest.raises(ConfigError):
        tiny_config(**{field: float("nan")}).validate()


def test_structured_failure_keeps_sweeping(tmp_path):
    # constant features plus a zero ridge make the explainer reject every
    # model; the run must record the failure per cell and keep the attack arm
    csv = tmp_path / "flat.csv"
    rows = "\n".join(f"5,{i},{i % 2}" for i in range(40))
    csv.write_text("a,b,label\n" + rows + "\n")
    cfg = tiny_config(
        source="csv", csv_path=str(csv), synthetic=None,
        lime_ridge=0.0, trials=1,
    )
    report = run_experiment(cfg)
    assert len(report.rows) == 4
    assert all(r.status.startswith("error:") for r in report.rows)
    assert all(math.isnan(r.accuracy) for r in report.rows)
    assert len(report.attack_rows) == 2
    assert all(a.status == "ok" for a in report.attack_rows)
    out = emit_report(report, str(tmp_path / "failed_run"))
    lines = open(out["results"]).read().splitlines()
    assert len(lines) == 5
    assert lines[1].split(",")[3] == ""  # accuracy cell left empty on failure


def test_a_release_or_attack_group_failure_marks_only_the_cells_that_use_it(tmp_path,
                                                                           monkeypatch):
    # a release that fails at epsilon 1 marks that epsilon's result rows
    # and attack row, ahead of any target error; epsilon inf keeps the
    # target's status and runs the attack
    real_privatize = experiment.privatize

    def privatize(d, budget, seed):
        if budget.epsilon == 1.0:
            raise DataError("no release at epsilon 1")
        return real_privatize(d, budget, seed)

    monkeypatch.setattr(experiment, "privatize", privatize)
    flat = tmp_path / "flat.csv"  # the failing target stage of the test above
    flat.write_text("a,b,label\n" + "".join(f"5,{i},{i % 2}\n" for i in range(40)))
    failing_target = tiny_config(source="csv", csv_path=str(flat), synthetic=None,
                                 lime_ridge=0.0, trials=1)
    inf_statuses = []
    for cfg in (tiny_config(trials=1), failing_target):
        report = run_experiment(cfg)
        assert [r.status for r in report.rows if r.epsilon == 1.0] == [
            "error: no release at epsilon 1"] * 2
        assert [a.status for a in report.attack_rows] == ["error: no release at epsilon 1", "ok"]
        inf_statuses.append([r.status for r in report.rows if math.isinf(r.epsilon)])
    assert inf_statuses[0] == ["ok", "ok"]
    target_error = run_experiment(dataclasses.replace(failing_target, epsilon_grid=(math.inf,)))
    assert inf_statuses[1] == [r.status for r in target_error.rows]
    assert inf_statuses[1][0].startswith("error:") and "epsilon 1" not in inf_statuses[1][0]

    # every test row copies a training row, so no control group can be drawn;
    # the verification cells do not depend on it, and a failed release
    # still comes first in an attack cell
    cycle = [(0.0, 0.0, 0), (1.0, 2.0, 1), (2.0, 0.5, 0)]
    csv = _write_csv(tmp_path / "cycle.csv", [cycle[i % 3] for i in range(60)])
    no_control = "error: no non-member rows available for the control group"
    report = run_experiment(tiny_config(source="csv", csv_path=csv, synthetic=None, trials=1))
    assert [a.status for a in report.attack_rows] == ["error: no release at epsilon 1", no_control]
    assert [r.status for r in report.rows if math.isinf(r.epsilon)] == ["ok", "ok"]
    monkeypatch.undo()
    report = run_experiment(tiny_config(source="csv", csv_path=csv, synthetic=None))
    assert [a.status for a in report.attack_rows] == [no_control] * 4
    assert [r.status for r in report.rows] == ["ok"] * 8


def test_a_csv_source_with_an_infinite_cell_is_refused_before_any_trial(tmp_path, capsys):
    # every pipeline would train on the cell, so no verification cell could
    # succeed; the run used to warn and report missing cells instead
    rows = [(i * 0.25, (i % 7) * 0.5, i % 2) for i in range(60)]
    rows[10] = (2.5, math.inf, 0)
    csv = _write_csv(tmp_path / "inf.csv", rows)
    with pytest.raises(DataError) as exc:
        run_experiment(tiny_config(source="csv", csv_path=csv, synthetic=None))
    assert str(exc.value) == f"{csv}: column 'f1' holds an infinite cell"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"source": "csv", "csv_path": csv}))
    out = tmp_path / "out"
    assert run_cli("experiment", "--config", str(cfg_path), "--out-dir", str(out)) == 3
    assert capsys.readouterr().err.strip() == (
        f"data error: {csv}: column 'f1' holds an infinite cell")
    assert not out.exists()


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_synth_privatize_train_respond_verify_attack(tmp_path, capsys):
    data = tmp_path / "d.csv"
    rel = tmp_path / "rel.csv"
    assert run_cli(
        "synth", "--rows", "160", "--features", "3", "--seed", "4",
        "--duplicates", "0", "--outliers", "0", "--missing", "0",
        "--output", str(data),
    ) == 0
    assert run_cli(
        "privatize", "--input", str(data), "--epsilon", "inf",
        "--seed", "1", "--output", str(rel),
    ) == 0
    assert open(data).read() == open(rel).read()  # infinite budget: identity

    proper = tmp_path / "proper.csv"
    sloppy = tmp_path / "sloppy.csv"
    assert run_cli(
        "preprocess", "--input", str(rel), "--pipeline", "15",
        "--seed", "0", "--output", str(proper),
    ) == 0
    assert run_cli(
        "preprocess", "--input", str(rel), "--pipeline", "3",
        "--seed", "0", "--output", str(sloppy),
    ) == 0

    m_proper = tmp_path / "proper.model.json"
    m_sloppy = tmp_path / "sloppy.model.json"
    for src, dst in ((proper, m_proper), (sloppy, m_sloppy)):
        assert run_cli(
            "train", "--input", str(src), "--arch", "logreg",
            "--seed", "0", "--output", str(dst),
        ) == 0

    queries = tmp_path / "queries.csv"
    assert run_cli(
        "synth", "--rows", "12", "--features", "3", "--seed", "9",
        "--duplicates", "0", "--outliers", "0", "--missing", "0",
        "--output", str(queries),
    ) == 0

    r_proper = tmp_path / "r_proper.csv"
    r_sloppy = tmp_path / "r_sloppy.csv"
    for model, out in ((m_proper, r_proper), (m_sloppy, r_sloppy)):
        assert run_cli(
            "respond", "--model", str(model), "--queries", str(queries),
            "--explainer", "lime", "--num-samples", "300", "--seed", "5",
            "--output", str(out),
        ) == 0
    header = open(r_proper).readline().strip().split(",")
    assert header[-2:] == ["intercept", "yhat"]

    verifier = tmp_path / "verifier.json"
    assert run_cli(
        "fit-verifier", "--method", "threshold", "--task", "binary",
        "--responses", f"0={r_proper}", "--responses", f"1={r_sloppy}",
        "--reference", str(r_proper), "--output", str(verifier),
    ) == 0
    capsys.readouterr()
    assert run_cli(
        "verify", "--verifier", str(verifier), "--target", str(r_proper),
        "--reference", str(r_proper),
    ) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["is_proper"] is True

    case = tmp_path / "case.csv"
    control = tmp_path / "control.csv"
    assert run_cli(
        "synth", "--rows", "30", "--features", "3", "--seed", "21",
        "--duplicates", "0", "--outliers", "0", "--missing", "0",
        "--output", str(case),
    ) == 0
    assert run_cli(
        "synth", "--rows", "30", "--features", "3", "--seed", "22",
        "--duplicates", "0", "--outliers", "0", "--missing", "0",
        "--output", str(control),
    ) == 0
    capsys.readouterr()
    assert run_cli(
        "attack", "--released", str(rel), "--case", str(case),
        "--control", str(control), "--fpr", "0.1",
    ) == 0
    result = json.loads(capsys.readouterr().out)
    assert set(result) == {"gamma", "power"}


def test_cli_ml_verifier_roundtrip(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run_cli(
        "synth", "--rows", "120", "--features", "3", "--seed", "2",
        "--duplicates", "0", "--outliers", "0", "--missing", "0",
        "--output", str(data),
    )
    model = tmp_path / "m.json"
    run_cli("train", "--input", str(data), "--arch", "logreg", "--output", str(model))
    q = tmp_path / "q.csv"
    run_cli(
        "synth", "--rows", "10", "--features", "3", "--seed", "8",
        "--duplicates", "0", "--outliers", "0", "--missing", "0",
        "--output", str(q),
    )
    ra = tmp_path / "ra.csv"
    rb = tmp_path / "rb.csv"
    run_cli("respond", "--model", str(model), "--queries", str(q),
            "--num-samples", "200", "--seed", "3", "--output", str(ra))
    # different explainer seed gives a distinct but same-shape response set
    run_cli("respond", "--model", str(model), "--queries", str(q),
            "--num-samples", "200", "--seed", "4", "--output", str(rb))
    verifier = tmp_path / "v.json"
    assert run_cli(
        "fit-verifier", "--method", "ml", "--task", "binary",
        "--responses", f"0={ra}", "--responses", f"1={rb}",
        "--arch", "rforest", "--seed", "1", "--output", str(verifier),
    ) == 0
    capsys.readouterr()
    assert run_cli("verify", "--verifier", str(verifier), "--target", str(ra)) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["task"] == "binary"
    assert set(verdict) >= {"class_id", "is_proper", "votes", "confidence"}


def test_cli_exit_codes(tmp_path, capsys):
    # config error: nonsense epsilon
    data = tmp_path / "d.csv"
    run_cli(
        "synth", "--rows", "20", "--features", "2", "--seed", "0",
        "--duplicates", "0", "--outliers", "0", "--missing", "0",
        "--output", str(data),
    )
    assert run_cli(
        "privatize", "--input", str(data), "--epsilon", "many",
        "--output", str(tmp_path / "x.csv"),
    ) == 2
    # data error: missing input file
    assert run_cli(
        "privatize", "--input", str(tmp_path / "nope.csv"), "--epsilon", "1",
        "--output", str(tmp_path / "x.csv"),
    ) == 3
    # config error: pipeline mask outside the mode
    assert run_cli(
        "preprocess", "--input", str(data), "--pipeline", "0",
        "--mode", "paper-compat", "--output", str(tmp_path / "p.csv"),
    ) == 2
    capsys.readouterr()


def test_cli_experiment_runs_and_is_reproducible(tmp_path, capsys, monkeypatch):
    cfg = {
        "source": "synthetic",
        "synthetic": {"rows": 160, "features": 3, "classes": 2},
        "epsilon_grid": ["1.0", "inf"],
        "trials": 1,
        "query_count": 5,
        "background_size": 4,
        "lime_num_samples": 250,
        "master_seed": 5,
        "attack_group_size": 10,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert run_cli("experiment", "--config", str(cfg_path), "--out-dir", str(out1)) == 0
    assert run_cli("experiment", "--config", str(cfg_path), "--out-dir", str(out2)) == 0
    r1 = open(out1 / "results.csv", "rb").read()
    r2 = open(out2 / "results.csv", "rb").read()
    assert r1 == r2
    assert (out1 / "verification_accuracy.svg").exists()
    assert (out1 / "attack_power.svg").exists()
    capsys.readouterr()

    # PPV_SEED overrides the configured master seed
    out3 = tmp_path / "out3"
    monkeypatch.setenv("PPV_SEED", "99")
    assert run_cli("experiment", "--config", str(cfg_path), "--out-dir", str(out3)) == 0
    meta = json.loads((out3 / "config.json").read_text())
    assert meta["master_seed"] == 99
    r3 = open(out3 / "results.csv", "rb").read()
    assert r3 != r1
    capsys.readouterr()


def test_cli_experiment_explains_64_features_with_sampled_shap(tmp_path, capsys):
    # a sampled coalition of 64 features does not fit an int64 bit mask
    cfg = {
        "source": "synthetic",
        "synthetic": {"rows": 120, "features": 64},
        "architecture": "logreg",
        "explainer": "shap",
        "shap_budget": 80,
        "epsilon_grid": ["inf"],
        "trials": 1,
        "query_count": 2,
        "background_size": 3,
        "attack": False,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")) == 0
    capsys.readouterr()


def test_cli_experiment_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"nope": 1}))
    assert run_cli("experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")) == 2
    capsys.readouterr()


def _write_csv(path, rows):
    path.write_text("f0,f1,label\n" + "".join(f"{a!r},{b!r},{c}\n" for a, b, c in rows))
    return str(path)


def _pipelines_with_one_class(csv_path, seed):
    """Class ids of the pipelines whose training split keeps a single class."""
    train_d, _ = split(load_csv(csv_path), 0.8, derive_seed(seed, "split", 0))
    return {
        label.class_id
        for pipe, label in enumerate_pipelines()
        if np.unique(apply_pipeline(train_d, None, pipe, 0)[0].labels()).size == 1
    }


def test_a_stage_that_leaves_one_class_fails_every_cell_with_its_error(tmp_path):
    # class 1 sits far out on f0, so exactly the pipelines that drop outliers
    # lose it; the target stage fails on the proper pipeline, pipeline 0
    rng = np.random.default_rng(3)
    rows = [(float(a), float(b), 0) for a, b in rng.uniform(0, 1, (96, 2))]
    rows += [(50.0 + i, 0.5, 1) for i in range(4)]
    csv = _write_csv(tmp_path / "outliers.csv", rows)
    with_outlier_step = {
        label.class_id for pipe, label in enumerate_pipelines() if DROP_OUTLIERS in pipe.steps
    }
    assert _pipelines_with_one_class(csv, 7) == with_outlier_step
    cfg = tiny_config(source="csv", csv_path=csv, synthetic=None, trials=1, master_seed=7,
                      attack_group_size=10)
    report = run_experiment(cfg)
    assert [r.status for r in report.rows] == ["error: training set holds a single class"] * 4
    assert all(a.status == "ok" for a in report.attack_rows)


def test_a_failed_stage_reports_the_first_error_in_pipeline_order(tmp_path):
    # Pipeline 0 trains, then its explainer fails (3 LIME samples, 2
    # features); later pipelines that keep the duplicated rows lose class 1
    # as outliers. Training and explaining one pipeline at a time meets the
    # explainer error first, so that is the status.
    rng = np.random.default_rng(5)
    rows = [(0.0, 0.0, 0)] * 60 + [(float(a), float(b), 0) for a, b in rng.uniform(-2, 2, (30, 2))]
    rows += [(4.0, 0.5, 1), (4.1, -0.5, 1), (4.2, 0.1, 1)]
    csv = _write_csv(tmp_path / "dups.csv", rows)
    one_class = _pipelines_with_one_class(csv, 7)
    assert one_class and 0 not in one_class
    cfg = tiny_config(source="csv", csv_path=csv, synthetic=None, trials=1, master_seed=7,
                      epsilon_grid=(math.inf,), lime_num_samples=3, attack=False)
    report = run_experiment(cfg)
    assert [r.status for r in report.rows] == ["error: num_samples must be at least 4, got 3"] * 2


def test_results_csv_quotes_a_status_that_holds_a_comma(tmp_path):
    # the config above fails with an error that holds a comma; results.csv
    # once wrote it bare, six fields under a five-field header
    rng = np.random.default_rng(5)
    rows = [(0.0, 0.0, 0)] * 60 + [(float(a), float(b), 0) for a, b in rng.uniform(-2, 2, (30, 2))]
    rows += [(4.0, 0.5, 1), (4.1, -0.5, 1), (4.2, 0.1, 1)]
    cfg = tiny_config(source="csv", csv_path=_write_csv(tmp_path / "dups.csv", rows),
                      synthetic=None, trials=1, master_seed=7, epsilon_grid=(math.inf,),
                      lime_num_samples=3, attack=False)
    header, body = read_rows(emit_report(run_experiment(cfg), str(tmp_path / "out"))["results"])
    assert header == ["epsilon", "trial", "method", "accuracy", "status"]
    assert body == [["inf", "0", method, "", "error: num_samples must be at least 4, got 3"]
                    for method in ("ml", "threshold")]


def test_run_meta_times_each_stage_training_and_other_files_rerun_identically(tmp_path):
    paths = [emit_report(run_experiment(tiny_config(trials=1)), str(tmp_path / f"run{i}"))
             for i in (1, 2)]
    stages = json.loads(open(paths[0]["run_meta"]).read())["stages"]
    assert {"target_models", "target_train", "verifier_models", "verifier_train"} <= set(stages)
    assert stages["target_train"] <= stages["target_models"]
    assert stages["verifier_train"] <= stages["verifier_models"]
    assert set(paths[0]) == set(paths[1])
    for key in set(paths[0]) - {"run_meta"}:
        assert open(paths[0][key], "rb").read() == open(paths[1][key], "rb").read(), key


def test_each_trial_is_its_own_record_and_run_meta_sums_their_stage_times(tmp_path,
                                                                           monkeypatch):
    cfg = tiny_config()  # 2 trials
    records, run_trial = [], experiment._run_trial

    def kept(*args):
        records.append(run_trial(*args))
        return records[-1]

    monkeypatch.setattr(experiment, "_run_trial", kept)
    report = run_experiment(cfg)
    monkeypatch.undo()
    stages = json.loads(open(emit_report(report, str(tmp_path))["run_meta"]).read())["stages"]
    assert stages == {
        stage: round(sum(r.stages.get(stage, 0.0) for r in records), 3) for stage in stages
    }
    assert stages == report.runtime["stages"]
    # trial 1 first: a trial reads nothing an earlier call left behind
    pipelines = enumerate_pipelines(cfg.enumeration_mode)
    alone = {trial: experiment._run_trial(cfg, None, pipelines, trial) for trial in (1, 0)}
    for trial, record in alone.items():
        assert record.rows == [r for r in report.rows if r.trial == trial]
        assert record.attack_rows == [r for r in report.attack_rows if r.trial == trial]
        assert set(record.stages) == set(stages)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.stages = {}
    assert alone[0].stages is not alone[1].stages


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    architecture=st.sampled_from(["logreg", "dtree", "rforest"]),
    explainer=st.sampled_from(["lime", "shap"]),
    task=st.sampled_from(["binary", "multi"]),
    granularity=st.sampled_from(["per_query", "concatenated"]),
    grid=st.lists(st.sampled_from([0.5, 2.0, math.inf]), min_size=1, max_size=2, unique=True),
    seed=st.integers(0, 2**16),
)
def test_a_random_small_config_reruns_byte_identically(
    architecture, explainer, task, granularity, grid, seed
):
    cfg = tiny_config(
        synthetic=SyntheticSpec(rows=120, features=3, classes=2), trials=1, query_count=4,
        architecture=architecture, explainer=explainer, task=task,
        threshold_granularity=granularity, epsilon_grid=tuple(sorted(grid)),
        lime_num_samples=100, shap_budget=32, master_seed=seed,
    )
    with tempfile.TemporaryDirectory() as tmp:
        paths = [emit_report(run_experiment(cfg), os.path.join(tmp, f"run{i}")) for i in (1, 2)]
        assert set(paths[0]) == set(paths[1])
        for key in set(paths[0]) - {"run_meta"}:
            assert open(paths[0][key], "rb").read() == open(paths[1][key], "rb").read(), key


def _write_mixed_csv(path):
    """A mixed-type table with missing cells, signed zeros and repeated rows."""
    rng = np.random.default_rng(12)
    regions = ("north", "south", "east", "west")
    lines = ["region,visits,c0,c1,label"]
    for i in range(180):
        label = int(rng.integers(0, 2))
        cells = [
            regions[int(rng.integers(0, 4)) if label else int(rng.integers(0, 2))],
            str(int(rng.poisson(2 + 3 * label))),
            f"{rng.normal(label, 1.0):.1f}",
            rng.choice(["0.0", "-0.0", f"{rng.normal(-label, 1.0):.2f}"]),
        ]
        if i % 23 == 5:
            cells[int(rng.integers(0, 4))] = rng.choice(["", "?"])
        lines.append(",".join(cells + [str(label)]))
        if i % 17 == 3:
            lines.append(lines[-1])
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_attack_csv_bytes_are_pinned(tmp_path):
    # results.csv hashes do not cover the attack; this pins attack.csv of a
    # mixed-type source (categorical, discrete, continuous, missing cells,
    # -0.0 next to 0.0) to the bytes the broadcast Hamming distances wrote
    cfg = tiny_config(source="csv", csv_path=_write_mixed_csv(tmp_path / "mixed.csv"),
                      synthetic=None, architecture="dtree", epsilon_grid=(0.5, 5.0, math.inf),
                      query_count=3, lime_num_samples=40, attack_group_size=40)
    path = emit_report(run_experiment(cfg), str(tmp_path / "out"))["attack"]
    digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
    assert digest == "c5c9c026d604a38b3ff9c679f3b1cd871130b47a60736e7ce4f75fae52e8f2ec"


def _perfbench_module(name):
    """A module of the benchmark's `perfbench/` directory, loaded by path."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("explainer", ["lime", "shap"])
def test_a_traced_run_counts_every_response_once(explainer):
    # the benchmark's worker traces a run through spans.install and adds
    # len(build_responses(...)) into its responses_per_s; all three counts
    # must be the number of responses the run made
    from ppverify import experiment, models, verify

    spans = _perfbench_module("spans")
    cfg = tiny_config(trials=1, explainer=explainer, attack=False)
    tracer = spans.Tracer("test")
    undo = spans.install(tracer, experiment, verify, models)
    summed = [0]
    build_responses = experiment.build_responses

    def counted(*args, **kwargs):
        out = build_responses(*args, **kwargs)
        summed[0] += len(out)
        return out

    experiment.build_responses = counted
    undo.append((experiment, "build_responses", build_responses))
    try:
        tracer.wrap(spans.ROOT, run_experiment)(cfg)
    finally:
        spans.uninstall(undo)
    metrics = spans.layer_metrics(
        tracer.spans, 1.0, {"cells": 0, "cells_failed": 0, "acc_ml": 0.0, "acc_threshold": 0.0}
    )
    stages = 1 + len(cfg.epsilon_grid)  # the target stage and one verifier stage per epsilon
    want = cfg.trials * stages * len(enumerate_pipelines(cfg.enumeration_mode)) * cfg.query_count
    assert summed[0] == metrics["explain.queries"] == metrics["verify.responses"] == want
    assert spans.by_name(tracer.spans)["verify.build_responses"]["calls"] == cfg.trials * stages
