"""End-to-end experiment harness.

One run simulates the two-party workflow on a single machine, per trial:
build a dataset, hold out a query set, train one target model per
enumerated pipeline (round-robin ground truth), release a noised copy of
the training data at each epsilon, train the verifier's model zoo on the
release, fit both verifiers on the zoo's explanation responses, and score
how often each verifier recovers the target's true pipeline class. A
Hamming-distance membership attack runs against each release.

Everything derives from one master seed, so a rerun with the same config
reproduces results.csv byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, PPVerifyError, check_field_types, check_known_keys
from .explain import LimeConfig, ShapConfig
from .ldp import PrivacyBudget, privatize
from .membership import AttackConfig, mia_power
# `train` is not called here; perfbench/spans.py wraps `experiment.train`.
from .models import ARCHITECTURES, TrainConfig, train, train_many, training_arrays  # noqa: F401
from .preprocess import ENUMERATION_MODES, apply_pipeline, drop_missing, enumerate_pipelines
from .seeding import derive_seed
from .svgchart import render_line_chart
from .tabular import (
    Dataset,
    SyntheticSpec,
    load_csv,
    load_schema_sidecar,
    make_synthetic,
    sample_rows,
    split,
)
from .verify import (
    TASKS,
    GRANULARITIES,
    LabeledResponseSet,
    Responses,
    build_responses,
    classify,
    fit_ml_verifier,
    fit_threshold_verifier,
)

EXPLAINERS = ("lime", "shap")
SOURCES = ("synthetic", "csv")
METHODS = ("ml", "threshold")

DEFAULT_EPSILON_GRID = (0.1, 1.0, 10.0, 1000.0, math.inf)


@dataclass
class ExperimentConfig:
    """Full description of one experiment; serializes to/from JSON."""

    source: str = "synthetic"
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    csv_path: str | None = None
    schema_path: str | None = None
    architecture: str = "logreg"
    explainer: str = "lime"
    task: str = "binary"
    enumeration_mode: str = "paper-compat"
    epsilon_grid: tuple = DEFAULT_EPSILON_GRID
    trials: int = 5
    query_count: int = 500
    train_fraction: float = 0.8
    master_seed: int = 0
    lime_num_samples: int = LimeConfig.num_samples
    lime_kernel_width: float | None = LimeConfig.kernel_width
    lime_ridge: float = LimeConfig.ridge_strength
    shap_budget: object = ShapConfig.coalition_budget
    background_size: int = 100
    verifier_architecture: str = "rforest"
    threshold_granularity: str = "per_query"
    attack: bool = True
    attack_group_size: int = 200
    attack_fpr: float = 0.05

    def validate(self) -> None:
        check_field_types(self)
        if self.source not in SOURCES:
            raise ConfigError(f"source must be one of {SOURCES}, got {self.source!r}")
        if self.source == "csv" and not self.csv_path:
            raise ConfigError("csv source needs csv_path")
        if self.source == "synthetic" and self.synthetic is None:
            raise ConfigError("synthetic source needs a synthetic spec")
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.verifier_architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown verifier architecture {self.verifier_architecture!r}")
        if self.explainer not in EXPLAINERS:
            raise ConfigError(f"explainer must be one of {EXPLAINERS}, got {self.explainer!r}")
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.enumeration_mode not in ENUMERATION_MODES:
            raise ConfigError(f"unknown enumeration mode {self.enumeration_mode!r}")
        if self.threshold_granularity not in GRANULARITIES:
            raise ConfigError(f"unknown granularity {self.threshold_granularity!r}")
        if not self.epsilon_grid:
            raise ConfigError("epsilon grid is empty")
        for eps in self.epsilon_grid:
            PrivacyBudget(float(eps))
        if self.trials < 1 or self.query_count < 1 or self.background_size < 1:
            raise ConfigError("trials, query_count and background_size must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie in (0, 1)")
        if self.attack_group_size < 1:
            raise ConfigError("attack_group_size must be >= 1")
        if not 0.0 < self.attack_fpr < 1.0:
            raise ConfigError("attack_fpr must lie in (0, 1)")
        _explainer_cfgs(self, 0)  # both check their settings, the unused one too

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)  # the synthetic spec too, or None
        d["epsilon_grid"] = [_eps_text(e) for e in self.epsilon_grid]
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("experiment config must be a JSON object")
        check_known_keys(raw, cls, "config keys")
        kwargs = dict(raw)
        if "synthetic" in kwargs and kwargs["synthetic"] is not None:
            if not isinstance(kwargs["synthetic"], dict):
                raise ConfigError("synthetic spec must be a JSON object")
            check_known_keys(kwargs["synthetic"], SyntheticSpec, "synthetic keys")
            kwargs["synthetic"] = SyntheticSpec(**kwargs["synthetic"])
        if "epsilon_grid" in kwargs:
            if not isinstance(kwargs["epsilon_grid"], list):
                raise ConfigError("epsilon_grid must be a JSON list")
            kwargs["epsilon_grid"] = tuple(
                PrivacyBudget.parse(str(e)).epsilon for e in kwargs["epsilon_grid"]
            )
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class ResultRow:
    epsilon: float
    trial: int
    method: str
    accuracy: float  # NaN when the cell failed
    status: str = "ok"


@dataclass(frozen=True)
class AttackRow:
    epsilon: float
    trial: int
    power: float
    gamma: float
    status: str = "ok"


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list
    attack_rows: list
    runtime: dict


def _eps_text(eps: float) -> str:
    return "inf" if math.isinf(float(eps)) else repr(float(eps))


#: The ExperimentConfig key behind each LimeConfig/ShapConfig field it sets.
_EXPLAINER_KEYS = {"num_samples": "lime_num_samples", "kernel_width": "lime_kernel_width",
                   "ridge_strength": "lime_ridge", "coalition_budget": "shap_budget"}


def _explainer_cfgs(cfg: ExperimentConfig, seed: int) -> dict:
    """The LIME and SHAP settings of `cfg` under `seed`, by explainer name.
    A ConfigError names the key of `cfg` at fault before the field's own."""
    try:
        return {
            "lime": LimeConfig(
                num_samples=cfg.lime_num_samples,
                kernel_width=cfg.lime_kernel_width,
                ridge_strength=cfg.lime_ridge,
                seed=seed,
            ),
            "shap": ShapConfig(coalition_budget=cfg.shap_budget, seed=seed),
        }
    except ConfigError as exc:  # every explainer check starts with its field's name
        key = _EXPLAINER_KEYS.get(str(exc).split()[0], "explainer")
        raise ConfigError(f"{key}: {exc}") from None


def _load_source(cfg: ExperimentConfig) -> Dataset | None:
    """The CSV source, or None for a synthetic one. An infinite cell is
    refused here: every pipeline would train on it."""
    if cfg.source != "csv":
        return None
    schema = load_schema_sidecar(cfg.schema_path) if cfg.schema_path else None
    source = load_csv(cfg.csv_path, schema=schema)
    infinite = np.isinf(source.values).any(axis=0)
    if infinite.any():
        name = source.schema[int(np.argmax(infinite))].name
        raise DataError(f"{cfg.csv_path}: column {name!r} holds an infinite cell")
    return source


@dataclass(frozen=True)
class TrialRecord:
    """One trial's result rows, attack rows and stage seconds. The trial
    that creates the record fills it; no other trial writes to it."""

    rows: list = field(default_factory=list)
    attack_rows: list = field(default_factory=list)
    stages: dict = field(default_factory=dict)

    @contextlib.contextmanager
    def timed(self, stage: str):
        """Add the time the block takes to `stages[stage]`."""
        t = time.perf_counter()
        try:
            yield
        finally:
            self.stages[stage] = self.stages.get(stage, 0.0) + (time.perf_counter() - t)

    def attempt(self, stage: str, fn, *args):
        """`fn(*args)`, timed as `stage`, or the PPVerifyError it raised."""
        with self.timed(stage):
            try:
                return fn(*args)
            except PPVerifyError as exc:
                return exc


def _ok(value):
    """`value`, unless `TrialRecord.attempt` stored an error in its place: that is raised."""
    if isinstance(value, PPVerifyError):
        raise value
    return value


def _pipeline_responses(cfg, data, queries, pipelines, bg_idx, stage, trial, record,
                        eps_index=None):
    """Train one model per pipeline and collect its query responses.

    Pipeline and training seeds are stage-specific (the two parties do not
    share randomness), but the explainer seed depends only on the trial: the
    probing side explains every model under the same perturbation draws, so
    identical models produce identical responses. `stage` also prefixes the
    model tags, and `record` times the training as `<stage>_train`.

    Pipelines apply and their training sets are checked in order; the
    models before the first failure then train together in one `train_many`
    call, are explained together in one `build_responses` call, and the
    failure is raised last. A failed stage therefore raises the error that
    training and explaining one pipeline at a time would raise first.
    """
    applied, failure = [], None  # (label, train set, query set, train config)
    for k, (pipe, label) in enumerate(pipelines):
        parts = [cfg.master_seed, stage, trial, k]
        if eps_index is not None:
            parts.insert(3, eps_index)
        train_cfg = TrainConfig(architecture=cfg.architecture, seed=derive_seed(*parts, "train"))
        try:
            tr, te = apply_pipeline(data, queries, pipe, derive_seed(*parts, "pipe"))
            training_arrays(tr, train_cfg)
        except PPVerifyError as exc:
            failure = exc
            break
        applied.append((label, tr, te, train_cfg))
    with record.timed(f"{stage}_train"):
        fitted = train_many([a[1] for a in applied], [a[3] for a in applied])
    e_cfg = _explainer_cfgs(cfg, derive_seed(cfg.master_seed, "explain", trial))[cfg.explainer]
    matrix = build_responses(
        fitted, [a[2] for a in applied], e_cfg, [a[2].take(bg_idx) for a in applied]
    )
    if failure is not None:
        raise failure
    per_model = np.split(matrix, np.cumsum([a[2].n_rows for a in applied])[:-1])
    return {a[0].class_id: Responses(rows, f"{stage}-{a[0].class_id}")
            for a, rows in zip(applied, per_model)}


def _attack_groups(cfg: ExperimentConfig, train_d: Dataset, test_d: Dataset, trial: int):
    """The trial's case group, drawn from the owner's data, and its control
    group, drawn from test rows that are not members."""
    case_n = min(cfg.attack_group_size, train_d.n_rows)
    case = sample_rows(train_d, case_n, derive_seed(cfg.master_seed, "attack-case", trial))
    # Duplicated rows can straddle the split; a test row whose exact copy
    # sits in the owner's data is a member, so the control pool excludes those.
    member_keys = {train_d.values[i].tobytes() for i in range(train_d.n_rows)}
    pool = [i for i in range(test_d.n_rows) if test_d.values[i].tobytes() not in member_keys]
    if not pool:
        raise DataError("no non-member rows available for the control group")
    control_pool = test_d.take(pool)
    control_n = min(cfg.attack_group_size, control_pool.n_rows)
    control = sample_rows(
        control_pool, control_n, derive_seed(cfg.master_seed, "attack-control", trial)
    )
    return case, control


def _score_verifiers(cfg, released, target, queries, pipelines, bg_idx, trial, eps_index,
                     record) -> dict:
    """Accuracy per method of the two verifiers fit on the zoo of models
    trained on `released`, classifying each target model. A verdict is
    right when its class is the target pipeline's training class."""
    labels = [label for _, label in pipelines]
    with record.timed("verifier_models"):
        zoo = _pipeline_responses(
            cfg, released, queries, pipelines, bg_idx, "verifier", trial, record, eps_index
        )
        labeled = LabeledResponseSet([(label, zoo[label.class_id]) for label in labels], cfg.task)
    with record.timed("verify"):
        seed = derive_seed(cfg.master_seed, "fit-ml", trial, eps_index)
        v_ml = fit_ml_verifier(labeled, TrainConfig(cfg.verifier_architecture, seed=seed))
        reference = zoo[0]
        v_t = fit_threshold_verifier(reference, labeled, cfg.threshold_granularity)
        correct = dict.fromkeys(METHODS, 0)
        for label in labels:
            responses = target[label.class_id]
            for method, verdict in (
                ("ml", classify(v_ml, responses)),
                ("threshold", classify(v_t, responses, reference)),
            ):
                correct[method] += verdict.predicted_label.class_id == labeled.training_class(label)
    return {m: correct[m] / len(labels) for m in METHODS}


def _run_trial(cfg: ExperimentConfig, source, pipelines, trial: int) -> TrialRecord:
    """One trial's result rows, attack rows and stage seconds, in a record
    of its own. The target responses, the attack groups and each release
    are stored as a value or as the error they raised; a cell's status is
    the first error it depends on, the release's before the target's or
    the groups'."""
    record = TrialRecord()
    with record.timed("data"):
        if cfg.source == "synthetic":
            source = make_synthetic(cfg.synthetic, derive_seed(cfg.master_seed, "data", trial))
        train_d, test_d = split(
            source, cfg.train_fraction, derive_seed(cfg.master_seed, "split", trial)
        )
        test_complete = drop_missing(test_d)
        if test_complete.n_rows == 0:
            raise DataError("test split has no complete rows to query")
        qn = min(cfg.query_count, test_complete.n_rows)
        queries = sample_rows(test_complete, qn, derive_seed(cfg.master_seed, "queries", trial))
        bg_rng = np.random.default_rng(derive_seed(cfg.master_seed, "background", trial))
        bg_idx = np.sort(bg_rng.permutation(qn)[:min(cfg.background_size, qn)])
    target = record.attempt("target_models", _pipeline_responses, cfg, train_d, queries,
                            pipelines, bg_idx, "target", trial, record)
    if cfg.attack:
        groups = record.attempt("attack", _attack_groups, cfg, train_d, test_d, trial)

    for ei, eps in enumerate(map(float, cfg.epsilon_grid)):
        ldp_seed = derive_seed(cfg.master_seed, "ldp", trial, ei)
        released = record.attempt("release", privatize, train_d, PrivacyBudget(eps), ldp_seed)
        try:
            accuracies = _score_verifiers(
                cfg, _ok(released), _ok(target), queries, pipelines, bg_idx, trial, ei, record
            )
            record.rows.extend(ResultRow(eps, trial, m, accuracies[m]) for m in METHODS)
        except PPVerifyError as exc:
            record.rows.extend(ResultRow(eps, trial, m, math.nan, f"error: {exc}") for m in METHODS)
        if cfg.attack:
            with record.timed("attack"):
                try:
                    result = mia_power(_ok(released), AttackConfig(*_ok(groups), cfg.attack_fpr))
                    record.attack_rows.append(AttackRow(eps, trial, result.power, result.gamma))
                except PPVerifyError as exc:
                    record.attack_rows.append(
                        AttackRow(eps, trial, math.nan, math.nan, f"error: {exc}"))
    return record


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the full protocol and return an in-memory report. Each stage
    time in `runtime` is the sum of the trials' own times for that stage."""
    cfg.validate()
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    t0 = time.perf_counter()
    pipelines = enumerate_pipelines(cfg.enumeration_mode)
    source = _load_source(cfg)
    records = [_run_trial(cfg, source, pipelines, trial) for trial in range(cfg.trials)]
    names = dict.fromkeys(stage for r in records for stage in r.stages)
    runtime = {
        "started_at": started,
        "stages": {k: round(sum(r.stages.get(k, 0.0) for r in records), 3) for k in names},
        "total_seconds": round(time.perf_counter() - t0, 3),
    }
    rows = [row for r in records for row in r.rows]
    return ExperimentReport(cfg, rows, [row for r in records for row in r.attack_rows], runtime)


# ---------------------------------------------------------------------------
# Report emission


def summarize(report: ExperimentReport) -> list:
    """Mean and population stddev per (epsilon, method), attack included."""
    out = []
    grid = [float(e) for e in report.config.epsilon_grid]
    for eps in grid:
        for method in METHODS:
            vals = [
                r.accuracy
                for r in report.rows
                if r.method == method and r.epsilon == eps and r.status == "ok"
            ]
            out.append(_summary_row(eps, method, vals))
    if report.attack_rows:
        for eps in grid:
            vals = [
                r.power
                for r in report.attack_rows
                if r.epsilon == eps and r.status == "ok"
            ]
            out.append(_summary_row(eps, "attack", vals))
    return out


def _summary_row(eps, method, vals):
    mean, stddev = (float(np.mean(vals)), float(np.std(vals))) if vals else (None, None)
    return {"epsilon": eps, "method": method, "mean": mean, "stddev": stddev,
            "n_trials": len(vals)}


def _csv_text(header: str, rows) -> str:
    """CSV text of `header` and `rows`, one line each: None and NaN cells are
    left empty, other floats are written by repr, and a cell holding a comma,
    a quote or a line break is quoted by CSV rules."""

    def cell(v):  # the csv module writes None as an empty cell and a float by repr
        return "" if isinstance(v, float) and math.isnan(v) else v

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(map(cell, row) for row in rows)
    return out.getvalue()


def emit_report(report: ExperimentReport, out_dir: str) -> dict:
    """Write CSVs, config echo, runtime metadata, and charts.

    results.csv, summary.csv, attack.csv and the charts are pure functions
    of the report's result content, so re-emitting the same report (or a
    report reproduced from the same config and seed) is byte-identical.
    run_meta.json records elapsed times and is exempt from that
    guarantee.
    """
    os.makedirs(out_dir, exist_ok=True)
    summary = summarize(report)
    paths = {}

    def write(key, name, text):
        paths[key] = os.path.join(out_dir, name)
        with open(paths[key], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    write("results", "results.csv", _csv_text("epsilon,trial,method,accuracy,status", [
        (_eps_text(r.epsilon), r.trial, r.method, r.accuracy, r.status) for r in report.rows
    ]))
    write("summary", "summary.csv", _csv_text("epsilon,method,mean,stddev,n_trials", [
        (_eps_text(r["epsilon"]), r["method"], r["mean"], r["stddev"], r["n_trials"])
        for r in summary
    ]))
    if report.attack_rows:
        write("attack", "attack.csv", _csv_text("epsilon,trial,power,gamma,status", [
            (_eps_text(r.epsilon), r.trial, r.power, r.gamma, r.status)
            for r in report.attack_rows
        ]))
    write("config", "config.json",
          json.dumps(report.config.to_dict(), indent=2, sort_keys=True) + "\n")
    write("run_meta", "run_meta.json", json.dumps(report.runtime, indent=2, sort_keys=True) + "\n")

    x_labels = [_eps_text(e) for e in report.config.epsilon_grid]
    means = {(r["method"], r["epsilon"]): r["mean"] for r in summary}

    def series_for(method):
        return [means[method, float(eps)] for eps in report.config.epsilon_grid]

    write("accuracy_chart", "verification_accuracy.svg", render_line_chart(
        "Verification accuracy vs epsilon",
        x_labels,
        [(m, series_for(m)) for m in METHODS],
        ylabel="verification accuracy",
    ))
    if report.attack_rows:
        write("attack_chart", "attack_power.svg", render_line_chart(
            "Membership attack power vs epsilon",
            x_labels,
            [("attack", series_for("attack"))],
            ylabel="attack power",
        ))
    return paths
