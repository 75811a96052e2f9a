"""Decide whether a target model used proper preprocessing by comparing
per-query explanation responses.

A response vector for one query stacks the explanation attributions, the
surrogate intercept (or SHAP base value), and the predicted label. Two
verifier families consume row-aligned response sets: a trained classifier
over individual response vectors, and a threshold rule on cosine distances
to a reference model's responses. Both emit a majority-vote verdict.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .explain import Explanation, LimeConfig, ShapConfig, lime_explain, shap_explain
from .models import Predictor, TrainConfig, train
from .preprocess import PipelineLabel
from .seeding import derive_seed
from .tabular import ColumnSchema, Dataset, KIND_CONTINUOUS, KIND_DISCRETE

TASKS = ("binary", "multi")
GRANULARITIES = ("per_query", "concatenated")


@dataclass(frozen=True)
class ResponseVector:
    """One model's answer to one query: attributions + intercept/base + label."""

    vector: np.ndarray
    query_index: int
    model_tag: str = ""


@dataclass
class LabeledResponseSet:
    """Response vectors from enumerated models, each tagged with its pipeline class."""

    items: list  # of (ResponseVector, PipelineLabel)
    task: str = "binary"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if not self.items:
            raise DataError("labeled response set is empty")

    def training_class(self, label: PipelineLabel) -> int:
        if self.task == "binary":
            return 0 if label.is_proper else 1
        return label.class_id

    @classmethod
    def from_models(cls, responses_by_label, task: str) -> "LabeledResponseSet":
        """Build from [(PipelineLabel, [ResponseVector, ...]), ...]."""
        items = [(rv, label) for label, responses in responses_by_label for rv in responses]
        return cls(items, task)


@dataclass
class ThresholdModel:
    """Distance-threshold verifier fitted on labeled training distances.

    Binary tasks store the mean training distance `tau`; multi-class tasks
    store one mean-distance centroid per class and classify by the nearest
    centroid.
    """

    task: str
    granularity: str
    tau: float | None
    centroids: dict | None  # class_id -> mean distance
    train_min: float
    train_max: float
    labels_by_class: dict  # class_id -> PipelineLabel


@dataclass(frozen=True)
class Verdict:
    task: str
    predicted_label: PipelineLabel
    vote_counts: dict
    confidence: float


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b). Undefined (raises) when either vector has zero norm."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DataError(f"vector shapes differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine distance is undefined for zero vectors")
    return float(1.0 - float(np.dot(a, b)) / (na * nb))


def build_responses(
    m,
    queries: Dataset,
    explainer_cfg,
    background=None,
    model_tag: str = "",
) -> list:
    """One ResponseVector per query row.

    `explainer_cfg` selects the explainer by type (LimeConfig or ShapConfig).
    Each query explains under a seed derived from the config seed and the row
    index, so batches are reproducible row by row and two models probed with
    the same config see the same perturbations. The trailing vector entry is
    the model's predicted class index.
    """
    if queries.n_rows == 0:
        raise DataError("query set is empty")
    X = queries.feature_matrix()
    if np.isnan(X).any():
        raise DataError("queries contain missing cells")
    is_lime = isinstance(explainer_cfg, LimeConfig)
    if is_lime and background is None:
        raise ConfigError("the lime explainer needs a background dataset")

    out = []
    for q in range(X.shape[0]):
        x = X[q]
        qcfg = replace(explainer_cfg, seed=derive_seed(explainer_cfg.seed, "query", q))
        if is_lime:
            expl = lime_explain(m, x, qcfg, background)
        else:
            expl = shap_explain(m, x, qcfg)
        # the explainer already predicted x unless told which class to explain
        if explainer_cfg.explained_class is None:
            yhat = float(expl.explained_class)
        else:
            yhat = float(m.predict(x))
        vec = np.concatenate([expl.attributions, [expl.intercept_or_base, yhat]])
        out.append(ResponseVector(vec, q, model_tag))
    return out


# ---------------------------------------------------------------------------
# ML verifier


def fit_ml_verifier(data: LabeledResponseSet, cfg: TrainConfig | None = None) -> Predictor:
    """Train a classifier over response vectors (default: random forest)."""
    cfg = cfg or TrainConfig(architecture="rforest")
    dim = data.items[0][0].vector.size
    if any(rv.vector.size != dim for rv, _ in data.items):
        raise DataError("response vectors have inconsistent lengths")
    X = np.array([rv.vector for rv, _ in data.items], dtype=float)
    y = np.array([data.training_class(label) for _, label in data.items], dtype=float)
    schema = tuple(
        [ColumnSchema(f"r{i}", KIND_CONTINUOUS) for i in range(dim)]
        + [ColumnSchema("pipeline_class", KIND_DISCRETE, is_label=True)]
    )
    ds = Dataset(schema, np.column_stack([X, y]), seed_provenance="responses")
    model = train(ds, cfg)
    model.verifier_task = data.task
    return model


# ---------------------------------------------------------------------------
# Threshold verifier


def _reference_lookup(reference) -> dict:
    ref = {}
    for rv in reference:
        if rv.query_index in ref:
            raise DataError(f"reference repeats query index {rv.query_index}")
        ref[rv.query_index] = rv.vector
    if not ref:
        raise DataError("reference response list is empty")
    return ref


def _per_query_distances(reference, data: LabeledResponseSet):
    ref = _reference_lookup(reference)
    dists, classes = [], []
    for rv, label in data.items:
        if rv.query_index not in ref:
            raise DataError(
                f"response for query {rv.query_index} has no reference counterpart"
            )
        dists.append(cosine_distance(ref[rv.query_index], rv.vector))
        classes.append(data.training_class(label))
    return np.array(dists), np.array(classes)


def _concatenated(responses) -> np.ndarray:
    ordered = sorted(responses, key=lambda rv: rv.query_index)
    return np.concatenate([rv.vector for rv in ordered])


def _per_model_distances(reference, data: LabeledResponseSet):
    ref = _reference_lookup(reference)
    ref_concat = _concatenated(reference)
    groups: dict = {}
    group_labels: dict = {}
    for rv, label in data.items:
        groups.setdefault(rv.model_tag, []).append(rv)
        prior = group_labels.setdefault(rv.model_tag, label)
        if prior != label:
            raise DataError(f"model tag {rv.model_tag!r} carries conflicting labels")
    dists, classes = [], []
    for tag, responses in groups.items():
        if sorted(rv.query_index for rv in responses) != sorted(ref):
            raise DataError(f"model tag {tag!r} does not cover the reference query set")
        dists.append(cosine_distance(ref_concat, _concatenated(responses)))
        classes.append(data.training_class(group_labels[tag]))
    return np.array(dists), np.array(classes)


def _label_map(data: LabeledResponseSet) -> dict:
    labels = {}
    for _, label in data.items:
        cls = data.training_class(label)
        if data.task == "binary":
            labels[cls] = _binary_label(cls)
        else:
            labels.setdefault(cls, label)
    return labels


def _binary_label(class_id: int) -> PipelineLabel:
    if class_id == 0:
        return PipelineLabel(0, True, ())
    return PipelineLabel(1, False, None)


def fit_threshold_verifier(
    reference,
    others: LabeledResponseSet,
    granularity: str = "per_query",
) -> ThresholdModel:
    """Fit the distance-threshold verifier.

    `reference` holds the responses of the properly trained model;
    `others` holds labeled responses from every enumerated model, row-aligned
    with the reference on query indices. Per-query granularity compares
    responses query by query; concatenated granularity compares one flattened
    vector per model.
    """
    if granularity not in GRANULARITIES:
        raise ConfigError(f"granularity must be one of {GRANULARITIES}, got {granularity!r}")
    if granularity == "per_query":
        dists, classes = _per_query_distances(reference, others)
    else:
        dists, classes = _per_model_distances(reference, others)
    tau = None
    centroids = None
    if others.task == "binary":
        tau = float(dists.mean())
    else:
        centroids = {
            int(c): float(dists[classes == c].mean()) for c in np.unique(classes)
        }
    return ThresholdModel(
        task=others.task,
        granularity=granularity,
        tau=tau,
        centroids=centroids,
        train_min=float(dists.min()),
        train_max=float(dists.max()),
        labels_by_class=_label_map(others),
    )


# ---------------------------------------------------------------------------
# Classification


def _vote(task: str, votes: dict) -> int:
    """Majority class; binary ties go to improper, multi ties to the lowest id."""
    if task == "binary":
        return 1 if votes.get(1, 0) >= votes.get(0, 0) else 0
    top = max(votes.values())
    return min(c for c, n in votes.items() if n == top)


def _nearest_centroid(d: float, centroids: dict) -> int:
    best = min(sorted(centroids), key=lambda c: (abs(d - centroids[c]), c))
    return int(best)


def _normalize_label_table(label_table) -> dict:
    if label_table is None:
        return {}
    if isinstance(label_table, dict):
        return dict(label_table)
    # accept enumerate_pipelines output or a bare list of labels
    out = {}
    for entry in label_table:
        label = entry[1] if isinstance(entry, tuple) else entry
        out[label.class_id] = label
    return out


def classify(
    verifier,
    target_responses,
    reference=None,
    label_table=None,
) -> Verdict:
    """Aggregate per-query classifications of a target model into one verdict.

    A trained Predictor classifies each response vector directly. A
    ThresholdModel needs the fitted reference responses again and classifies
    by distance (binary: d > tau means improper; multi: nearest centroid).
    `label_table` (a class_id -> PipelineLabel dict, or the output of
    enumerate_pipelines) names the verdict's pipeline; without it a bare
    label is synthesized.
    """
    if not target_responses:
        raise DataError("target response list is empty")
    votes: dict = {}
    labels_by_class = _normalize_label_table(label_table)

    if isinstance(verifier, ThresholdModel):
        if reference is None:
            raise ConfigError("the threshold verifier needs the reference responses")
        if not labels_by_class:
            labels_by_class = verifier.labels_by_class
        if verifier.granularity == "concatenated":
            ref_concat = _concatenated(reference)
            d = cosine_distance(ref_concat, _concatenated(target_responses))
            cls = (
                (1 if d > verifier.tau else 0)
                if verifier.task == "binary"
                else _nearest_centroid(d, verifier.centroids)
            )
            votes[cls] = 1
        else:
            ref = _reference_lookup(reference)
            for rv in target_responses:
                if rv.query_index not in ref:
                    raise DataError(
                        f"target query {rv.query_index} has no reference counterpart"
                    )
                d = cosine_distance(ref[rv.query_index], rv.vector)
                if verifier.task == "binary":
                    cls = 1 if d > verifier.tau else 0
                else:
                    cls = _nearest_centroid(d, verifier.centroids)
                votes[cls] = votes.get(cls, 0) + 1
        task = verifier.task
    elif isinstance(verifier, Predictor) or hasattr(verifier, "predict_proba"):
        X = np.array([rv.vector for rv in target_responses], dtype=float)
        P = verifier.predict_proba(X)
        class_values = getattr(verifier, "class_values", None)
        for row in P:
            idx = int(np.argmax(row))
            cls = int(class_values[idx]) if class_values is not None else idx
            votes[cls] = votes.get(cls, 0) + 1
        task = getattr(verifier, "verifier_task", None)
        if task is None:
            task = (
                "binary"
                if class_values is not None and set(int(v) for v in class_values) <= {0, 1}
                else "multi"
            )
    else:
        raise ConfigError(f"unsupported verifier type {type(verifier).__name__}")

    winner = _vote(task, votes)
    label = labels_by_class.get(winner)
    if label is None:
        label = _binary_label(winner) if winner in (0, 1) and task == "binary" else PipelineLabel(
            winner, winner == 0, () if winner == 0 else None
        )
    total = sum(votes.values())
    return Verdict(
        task=task,
        predicted_label=label,
        vote_counts=dict(sorted(votes.items())),
        confidence=votes.get(winner, 0) / total,
    )


# ---------------------------------------------------------------------------
# Serialization


def threshold_to_payload(t: ThresholdModel) -> dict:
    return {
        "format": "ppverify-threshold",
        "version": 1,
        "task": t.task,
        "granularity": t.granularity,
        "tau": t.tau,
        "centroids": {str(k): v for k, v in (t.centroids or {}).items()} or None,
        "train_min": t.train_min,
        "train_max": t.train_max,
        "labels": {
            str(c): {
                "class_id": lab.class_id,
                "is_proper": lab.is_proper,
                "omitted_steps": list(lab.omitted_steps) if lab.omitted_steps is not None else None,
            }
            for c, lab in t.labels_by_class.items()
        },
    }


def threshold_from_payload(payload: dict) -> ThresholdModel:
    if payload.get("format") != "ppverify-threshold":
        raise DataError("not a threshold verifier file")
    labels = {
        int(c): PipelineLabel(
            entry["class_id"],
            entry["is_proper"],
            tuple(entry["omitted_steps"]) if entry["omitted_steps"] is not None else None,
        )
        for c, entry in payload["labels"].items()
    }
    centroids = payload.get("centroids")
    return ThresholdModel(
        task=payload["task"],
        granularity=payload["granularity"],
        tau=payload["tau"],
        centroids={int(k): float(v) for k, v in centroids.items()} if centroids else None,
        train_min=payload["train_min"],
        train_max=payload["train_max"],
        labels_by_class=labels,
    )


def save_threshold(t: ThresholdModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(threshold_to_payload(t), fh)
        fh.write("\n")


def load_threshold(path: str) -> ThresholdModel:
    with open(path, encoding="utf-8") as fh:
        return threshold_from_payload(json.load(fh))


def responses_to_csv(responses, feature_names, path, include_yhat: bool = True) -> None:
    """Write responses as CSV: feature columns, then intercept, then yhat."""
    dim = len(feature_names) + (2 if include_yhat else 1)
    header = list(feature_names) + ["intercept"] + (["yhat"] if include_yhat else [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rv in sorted(responses, key=lambda r: r.query_index):
            vec = rv.vector if include_yhat else rv.vector[:-1]
            if vec.size != dim:
                raise DataError(
                    f"response vector has {vec.size} entries, expected {dim}"
                )
            writer.writerow([repr(float(v)) for v in vec])


def responses_from_csv(path: str, model_tag: str | None = None) -> list:
    """Read responses written by `responses_to_csv` (with the yhat column)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise DataError(f"{path}: no response rows")
    header = rows[0]
    if len(header) < 3 or header[-1] != "yhat" or header[-2] != "intercept":
        raise DataError(f"{path}: expected trailing intercept,yhat columns")
    tag = model_tag if model_tag is not None else path
    out = []
    for q, row in enumerate(rows[1:]):
        try:
            vec = np.array([float(v) for v in row], dtype=float)
        except ValueError:
            raise DataError(f"{path} line {q + 2}: non-numeric response cell") from None
        if vec.size != len(header):
            raise DataError(f"{path} line {q + 2}: wrong field count")
        out.append(ResponseVector(vec, q, tag))
    return out
