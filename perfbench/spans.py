"""Spans recorded around ppverify's public functions, and the per-layer
metrics derived from them.

The tracer patches functions from outside the package: the names that
`ppverify.experiment` and `ppverify.verify` imported, and `predict_proba`
on the three model classes. Spans stay in memory as
`[name, start, end, parent, counts]` lists (parent is an index into the
same list, -1 for a root) and are written out once the run ends. Nothing
here imports numpy or ppverify, so the arithmetic is testable on its own.
"""

from __future__ import annotations

import time

ARCHITECTURES = ("logreg", "dtree", "rforest")

#: Per-layer metric names with their units, in report order.
LAYER_METRICS = (
    ("tabular.load_csv.s", "s"),
    ("tabular.load_csv.rows", "count"),
    ("tabular.make_synthetic.s", "s"),
    ("tabular.sample.s", "s"),
    ("preprocess.apply_pipeline.s", "s"),
    ("preprocess.apply_pipeline.calls", "count"),
    ("preprocess.rows_in", "count"),
    ("preprocess.rows_out", "count"),
    ("preprocess.keep_ratio", "ratio"),
    ("ldp.privatize.s", "s"),
    ("ldp.privatize.cells", "count"),
    *[
        (f"models.train.{a}.{m}", u)
        for a in ARCHITECTURES
        for m, u in (("s", "s"), ("calls", "count"), ("rows", "count"))
    ],
    *[
        (f"models.predict_proba.{a}.{m}", u)
        for a in ARCHITECTURES
        for m, u in (("s", "s"), ("calls", "count"), ("rows", "count"), ("rows_per_call", "rows/call"))
    ],
    ("explain.lime.self_s", "s"),
    ("explain.shap.self_s", "s"),
    ("explain.queries", "count"),
    ("explain.model_calls_per_query", "calls/query"),
    ("explain.rows_per_query", "rows/query"),
    ("verify.build_responses.self_s", "s"),
    ("verify.fit_ml.self_s", "s"),
    ("verify.fit_threshold.s", "s"),
    ("verify.classify.s", "s"),
    ("verify.classify.calls", "count"),
    ("verify.responses", "count"),
    ("membership.mia_power.s", "s"),
    ("membership.mia_power.calls", "count"),
    ("membership.cells_compared", "count"),
    ("experiment.self_s", "s"),
    ("experiment.emit_report.s", "s"),
    ("experiment.cells", "count"),
    ("experiment.cells_failed", "count"),
    ("verify.acc_ml", "ratio"),
    ("verify.acc_threshold", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

ROOT = "experiment"


class Tracer:
    """Collects nested spans in one single-threaded process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn, counts=None):
        """Return `fn` wrapped in a span.

        `name` is a string or a callable of the call's `(args, kwargs)`;
        `counts`, if given, maps `(args, kwargs, result)` to a dict of work
        counts for the span.
        """

        def traced(*args, **kwargs):
            rec = [
                name if isinstance(name, str) else name(args, kwargs),
                time.perf_counter(),
                None,
                self._stack[-1] if self._stack else -1,
                None,
            ]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                rec[4] = counts(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def install(tracer: Tracer, experiment, verify, models) -> list:
    """Patch ppverify's layer boundaries with spans; returns the undo list."""
    undo = []

    def patch(owner, attr, name, counts=None):
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, counts))

    def rows_of_result(args, kwargs, out):
        return {"rows": out.n_rows}

    def train_name(args, kwargs):
        return "models.train." + _arg(args, kwargs, 1, "cfg").architecture

    def train_counts(args, kwargs, out):
        return {"rows": _arg(args, kwargs, 0, "dataset").n_rows}

    def pipeline_counts(args, kwargs, out):
        return {"rows_in": _arg(args, kwargs, 0, "train").n_rows, "rows_out": out[0].n_rows}

    def privatize_counts(args, kwargs, out):
        d = _arg(args, kwargs, 0, "d")
        return {"cells": d.n_rows * (d.n_cols - 1)}

    def attack_counts(args, kwargs, out):
        released = _arg(args, kwargs, 0, "released")
        cfg = _arg(args, kwargs, 1, "cfg")
        sample_rows = cfg.case_group.n_rows + cfg.control_group.n_rows
        return {"cells": sample_rows * released.n_rows * released.n_cols}

    patch(experiment, "make_synthetic", "tabular.make_synthetic")
    patch(experiment, "load_csv", "tabular.load_csv", rows_of_result)
    patch(experiment, "split", "tabular.sample")
    patch(experiment, "sample_rows", "tabular.sample")
    patch(experiment, "apply_pipeline", "preprocess.apply_pipeline", pipeline_counts)
    patch(experiment, "train", train_name, train_counts)
    patch(experiment, "privatize", "ldp.privatize", privatize_counts)
    patch(experiment, "build_responses", "verify.build_responses",
          lambda args, kwargs, out: {"responses": len(out)})
    patch(experiment, "fit_ml_verifier", "verify.fit_ml")
    patch(experiment, "fit_threshold_verifier", "verify.fit_threshold")
    patch(experiment, "classify", "verify.classify")
    patch(experiment, "mia_power", "membership.mia_power", attack_counts)
    patch(verify, "lime_explain", "explain.lime")
    patch(verify, "shap_explain", "explain.shap")
    patch(verify, "train", train_name, train_counts)
    for cls in (models.LogisticRegressionModel, models.DecisionTreeModel, models.RandomForestModel):
        patch(cls, "predict_proba", "models.predict_proba." + cls.architecture,
              lambda args, kwargs, out: {"rows": len(out)})
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def covered(interval, children) -> float:
    """Length of the part of `interval` that the union of `children` covers."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children if min(hi, b) > max(lo, a))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: list = [[] for _ in spans]
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered((start, end), children[i])
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def by_name(spans: list) -> dict:
    """name -> {"s": inclusive seconds, "self_s", "calls", summed counts}."""
    selfs = self_times(spans)
    out: dict = {}
    for (name, start, end, _, counts), self_s in zip(spans, selfs):
        agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        agg["s"] += end - start
        agg["self_s"] += self_s
        agg["calls"] += 1
        for key, value in (counts or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out


def ratio(num, den) -> float:
    """num / den, or 0.0 when nothing was measured."""
    return num / den if den else 0.0


def _under(spans: list, ancestor: str) -> list:
    """Per span: whether some ancestor is named `ancestor`."""
    flags: list = []
    for name, _, _, parent, _ in spans:
        flags.append(parent >= 0 and (flags[parent] or spans[parent][0] == ancestor))
    return flags


def layer_metrics(spans: list, untraced_wall_s: float, report: dict) -> dict:
    """Every per-layer metric of one traced run, keyed as in LAYER_METRICS.

    `spans` must hold exactly one root span named ROOT, around
    `run_experiment` + `emit_report`; `report` supplies the run's row
    counts ("cells", "cells_failed") and mean accuracies ("acc_ml",
    "acc_threshold"). Layers the workload never entered report zero time
    and zero work.
    """
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1 or roots[0][0] != ROOT:
        raise ValueError(f"expected one root span named {ROOT!r}, got {[s[0] for s in roots]}")
    agg = by_name(spans)

    def get(name, key="s"):
        return agg.get(name, {}).get(key, 0)

    m = {
        "tabular.load_csv.s": get("tabular.load_csv"),
        "tabular.load_csv.rows": get("tabular.load_csv", "rows"),
        "tabular.make_synthetic.s": get("tabular.make_synthetic"),
        "tabular.sample.s": get("tabular.sample"),
        "preprocess.apply_pipeline.s": get("preprocess.apply_pipeline"),
        "preprocess.apply_pipeline.calls": get("preprocess.apply_pipeline", "calls"),
        "preprocess.rows_in": get("preprocess.apply_pipeline", "rows_in"),
        "preprocess.rows_out": get("preprocess.apply_pipeline", "rows_out"),
        "preprocess.keep_ratio": ratio(
            get("preprocess.apply_pipeline", "rows_out"), get("preprocess.apply_pipeline", "rows_in")
        ),
        "ldp.privatize.s": get("ldp.privatize"),
        "ldp.privatize.cells": get("ldp.privatize", "cells"),
    }
    for a in ARCHITECTURES:
        t = f"models.train.{a}"
        m[t + ".s"] = get(t)
        m[t + ".calls"] = get(t, "calls")
        m[t + ".rows"] = get(t, "rows")
    for a in ARCHITECTURES:
        p = f"models.predict_proba.{a}"
        m[p + ".s"] = get(p)
        m[p + ".calls"] = get(p, "calls")
        m[p + ".rows"] = get(p, "rows")
        m[p + ".rows_per_call"] = ratio(get(p, "rows"), get(p, "calls"))

    # model calls made on behalf of the explanations: those inside the
    # explainer plus build_responses' own single-row predict per query
    in_responses = _under(spans, "verify.build_responses")
    probe = [s for s, flag in zip(spans, in_responses) if flag and s[0].startswith("models.predict_proba.")]
    queries = get("explain.lime", "calls") + get("explain.shap", "calls")
    m.update({
        "explain.lime.self_s": get("explain.lime", "self_s"),
        "explain.shap.self_s": get("explain.shap", "self_s"),
        "explain.queries": queries,
        "explain.model_calls_per_query": ratio(len(probe), queries),
        "explain.rows_per_query": ratio(sum(s[4]["rows"] for s in probe), queries),
        "verify.build_responses.self_s": get("verify.build_responses", "self_s"),
        "verify.fit_ml.self_s": get("verify.fit_ml", "self_s"),
        "verify.fit_threshold.s": get("verify.fit_threshold"),
        "verify.classify.s": get("verify.classify"),
        "verify.classify.calls": get("verify.classify", "calls"),
        "verify.responses": get("verify.build_responses", "responses"),
        "membership.mia_power.s": get("membership.mia_power"),
        "membership.mia_power.calls": get("membership.mia_power", "calls"),
        "membership.cells_compared": get("membership.mia_power", "cells"),
        "experiment.self_s": get(ROOT, "self_s"),
        "experiment.emit_report.s": get("experiment.emit_report"),
        "experiment.cells": report["cells"],
        "experiment.cells_failed": report["cells_failed"],
        "verify.acc_ml": report["acc_ml"],
        "verify.acc_threshold": report["acc_threshold"],
        "trace.overhead_ratio": ratio(get(ROOT), untraced_wall_s) - 1.0,
    })
    return m


def split(spans: list) -> dict:
    """Share of the root span's time spent in each span name's own code."""
    agg = by_name(spans)
    wall = agg[ROOT]["s"]
    shares = {name: a["self_s"] / wall for name, a in agg.items()}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
