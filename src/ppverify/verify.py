"""Decide whether a target model used proper preprocessing by comparing
per-query explanation responses.

A response vector for one query stacks the explanation attributions, the
surrogate intercept (or SHAP base value), and the predicted label; a
model's responses form one matrix, a row per query. Two verifier families
consume them: a trained classifier over individual response vectors, and a
threshold rule on cosine distances to a reference model's responses, row
against row. Both emit a majority-vote verdict.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, PPVerifyError, json_field, json_number, read_json
from .explain import LimeConfig, lime_explain, model_probe, shap_explain
from .models import Predictor, TrainConfig, model_from_payload, train
from .preprocess import PipelineLabel
from .seeding import derive_seed
from .tabular import ColumnSchema, Dataset, KIND_CONTINUOUS, KIND_DISCRETE, check_unique, read_rows

TASKS = ("binary", "multi")
GRANULARITIES = ("per_query", "concatenated")


@dataclass(frozen=True)
class Responses:
    """One model's answers to a query set: row q stacks query q's
    attributions, intercept (or SHAP base value) and predicted label. `tag`
    names the model in errors. `columns`, when known (a CSV header), names
    the matrix's columns; responses are comparable only under equal names."""

    matrix: np.ndarray
    tag: str = ""
    columns: tuple = ()

    def __post_init__(self):
        if self.matrix.ndim != 2 or not self.matrix.size:
            raise DataError(f"model {self.tag!r} has no responses")


def _check_columns(columns: tuple, owner: str, other: Responses) -> None:
    """Raise DataError when `other` and `owner` both name their response
    columns, differently. `owner` names whose `columns` they are."""
    if columns and other.columns and columns != other.columns:
        raise DataError(f"model {other.tag!r} has response columns {','.join(other.columns)} "
                        f"where {owner} has {','.join(columns)}")


@dataclass
class LabeledResponseSet:
    """Each enumerated model's responses, paired with its pipeline label."""

    items: list  # of (PipelineLabel, Responses)
    task: str = "binary"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if not self.items:
            raise DataError("labeled response set is empty")
        first, labels = self.items[0][1], {}
        for label, responses in self.items:
            _check_columns(first.columns, f"model {first.tag!r}", responses)
            if labels.setdefault(responses.tag, label) != label:
                raise DataError(f"model tag {responses.tag!r} carries conflicting labels")

    def training_class(self, label: PipelineLabel) -> int:
        """The class a verdict names for `label`'s pipeline: 0 (proper) or 1
        (improper) in a binary task, the pipeline class id in a multi one."""
        if self.task == "binary":
            return 0 if label.is_proper else 1
        return label.class_id


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


@dataclass(frozen=True)
class MLVerifier:
    """A classifier over response vectors and the task its classes encode."""

    model: Predictor
    task: str  # checked by LabeledResponseSet or load_verifier, its two makers


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


def build_responses(models, query_sets, explainer_cfg, backgrounds) -> np.ndarray:
    """Every model's responses to its query set, explained against its
    background: one matrix of features + 2 columns whose rows answer model
    0's queries in order, then model 1's, and so on.

    `explainer_cfg` selects the explainer by type (LimeConfig or ShapConfig).
    Query q explains under a seed derived from the config seed and q alone,
    so every model sees the same perturbations for it. The models are probed
    query by query: a query's draws, and its LIME geometry per distinct query
    set, are made once for every model and dropped before the next query. A
    failing model stops its own and every later model's explaining, and the
    first failure in model order is raised, as explaining one model at a
    time would. Each row's last entry is the model's predicted class index.
    """
    explain = lime_explain if isinstance(explainer_cfg, LimeConfig) else shap_explain
    shared, probes, failure = {}, [], None
    for m, queries, background in zip(models, query_sets, backgrounds, strict=True):
        try:
            X = queries.feature_matrix()
            if 0 in X.shape:
                raise DataError(f"query set has {X.shape[0]} rows and {X.shape[1]} features")
            if np.isnan(X).any():
                raise DataError("queries contain missing cells")
            if probes and X.shape[1] != probes[0][0].shape[1]:
                raise DataError(f"model {len(probes)} queries {X.shape[1]} features, "
                                f"model 0 {probes[0][0].shape[1]}")
            probes.append((X, model_probe(m, explainer_cfg, background, X.shape[1], shared)))
        except PPVerifyError as exc:
            failure = exc  # explain only the models before it
            break
    live, first = len(probes), np.cumsum([0] + [len(X) for X, _ in probes])
    out = np.empty((first[-1], probes[0][0].shape[1] + 2 if probes else 0))
    for q in range(max((len(X) for X, _ in probes), default=0)):
        cfg = replace(explainer_cfg, seed=derive_seed(explainer_cfg.seed, "query", q))
        for i, (X, probe) in enumerate(probes[:live]):
            if q >= len(X):
                continue
            try:
                expl = explain(models[i], X[q], cfg, probe)
            except PPVerifyError as exc:
                failure, live = exc, i
                break
            # the explainer already predicted x unless told which class to explain
            if cfg.explained_class is None:
                yhat = float(expl.explained_class)
            else:
                yhat = float(models[i].predict(X[q]))
            out[first[i] + q, :-2] = expl.attributions
            out[first[i] + q, -2:] = expl.intercept_or_base, yhat
        shared.clear()
    if failure is not None:
        raise failure
    return out


# ---------------------------------------------------------------------------
# ML verifier


def fit_ml_verifier(data: LabeledResponseSet, cfg: TrainConfig | None = None) -> MLVerifier:
    """Train a classifier over response vectors (default: random forest).
    Its features are the response columns, named as the first model's
    responses name them, or r0..rN when they are unnamed."""
    cfg = cfg or TrainConfig(architecture="rforest")
    first = data.items[0][1]
    dim = first.matrix.shape[1]
    if any(r.matrix.shape[1] != dim for _, r in data.items):
        raise DataError("response vectors have inconsistent lengths")
    X = np.vstack([r.matrix for _, r in data.items])
    y = np.concatenate([[data.training_class(label)] * len(r.matrix) for label, r in data.items])
    names = first.columns or [f"r{i}" for i in range(dim)]
    schema = tuple(
        [ColumnSchema(name, KIND_CONTINUOUS) for name in names]
        + [ColumnSchema("pipeline_class", KIND_DISCRETE, is_label=True)]
    )
    ds = Dataset(schema, np.column_stack([X, y]))
    return MLVerifier(train(ds, cfg), data.task)


# ---------------------------------------------------------------------------
# Threshold verifier


def _distances(reference: Responses, responses: Responses, granularity: str) -> list:
    """Cosine distances of `responses` to `reference`: one per query row
    (per_query), or one between the whole matrices (concatenated). Every
    response set answers the reference's queries row for row, under the
    reference's column names when both name them."""
    _check_columns(reference.columns, f"model {reference.tag!r}", responses)
    if responses.matrix.shape != reference.matrix.shape:
        raise DataError(
            f"model {responses.tag!r} gives {responses.matrix.shape} responses where the "
            f"reference gives {reference.matrix.shape}; every response set must answer "
            "the reference's queries row for row"
        )
    if granularity == "per_query":
        pairs = zip(reference.matrix, responses.matrix)
    else:
        pairs = [(reference.matrix.ravel(), responses.matrix.ravel())]
    dists = []
    for q, (a, b) in enumerate(pairs):
        try:
            dists.append(cosine_distance(a, b))
        except DataError:
            zero = reference if float(np.linalg.norm(a)) == 0.0 else responses
            queries = f"query {q}" if granularity == "per_query" else "every query"
            raise DataError(f"model {zero.tag!r} responds to {queries} with a zero "
                            "vector; cosine distance is undefined for zero vectors") from None
    return dists


def bare_label(class_id: int) -> PipelineLabel:
    """The label of a class known only by its id: class 0 is proper, the
    rest are improper with the omitted steps unspecified."""
    return PipelineLabel(class_id, class_id == 0, () if class_id == 0 else None)


def fit_threshold_verifier(
    reference: Responses,
    others: LabeledResponseSet,
    granularity: str = "per_query",
) -> ThresholdModel:
    """Fit the distance-threshold verifier.

    `reference` holds the responses of the properly trained model; `others`
    holds labeled responses from every enumerated model to the same queries.
    Per-query granularity compares responses query by query; concatenated
    granularity compares one flattened vector per model.
    """
    if granularity not in GRANULARITIES:
        raise ConfigError(f"granularity must be one of {GRANULARITIES}, got {granularity!r}")
    dists, classes = [], []
    for label, responses in others.items:
        d = _distances(reference, responses, granularity)
        dists += d
        classes += [others.training_class(label)] * len(d)
    dists, classes = np.array(dists), np.array(classes)
    if others.task == "binary":
        return ThresholdModel(others.task, granularity, tau=float(dists.mean()), centroids=None)
    centroids = {int(c): float(dists[classes == c].mean()) for c in np.unique(classes)}
    return ThresholdModel(others.task, granularity, tau=None, centroids=centroids)


# ---------------------------------------------------------------------------
# Classification


def _threshold_classes(t: ThresholdModel, dists: list) -> list:
    """The class of each distance in `dists`. Binary: improper where d > tau.
    Multi: the nearest centroid, ties to the lowest id."""
    if t.task == "binary":
        return [1 if d > t.tau else 0 for d in dists]
    return [min(t.centroids, key=lambda c: (abs(d - t.centroids[c]), c)) for d in dists]


def classify(
    verifier,
    target: Responses,
    reference: Responses | None = None,
) -> Verdict:
    """Aggregate per-query classifications of a target model into one verdict.

    An MLVerifier classifies each response vector directly. A ThresholdModel
    needs the fitted reference responses again and classifies by distance
    (see `_threshold_classes`). The class with the most votes wins: a binary
    tie goes to improper (1), a multi-class tie to the lowest id. The verdict
    carries the winner's bare label. A target that names its columns must
    name them as the reference does, or as the ML verifier's features are
    named.
    """
    if isinstance(verifier, ThresholdModel):
        if reference is None:
            raise ConfigError("the threshold verifier needs the reference responses")
        dists = _distances(reference, target, verifier.granularity)
        classes = _threshold_classes(verifier, dists)
    elif isinstance(verifier, MLVerifier):
        _check_columns(verifier.model.feature_names, "the ml verifier", target)
        dim = len(verifier.model.feature_names)
        if target.matrix.shape[1] != dim:
            raise DataError(f"the ml verifier takes response vectors of {dim} entries")
        P = verifier.model.predict_proba(target.matrix)
        classes = verifier.model.class_values[P.argmax(axis=1)].astype(int).tolist()
    else:
        raise ConfigError(f"unsupported verifier type {type(verifier).__name__}")

    votes = Counter(classes)
    winner = min(votes, key=lambda c: (-votes[c], -c if verifier.task == "binary" else c))
    return Verdict(
        task=verifier.task,
        predicted_label=bare_label(winner),
        vote_counts=dict(sorted(votes.items())),
        confidence=votes[winner] / len(classes),
    )


# ---------------------------------------------------------------------------
# Serialization


VERIFIER_FORMAT = "ppverify-verifier"
VERIFIER_VERSION = 2


def _threshold_from_payload(payload, task: str, path: str) -> ThresholdModel:
    where = f"{path}: threshold payload"
    granularity, tau, centroids = (
        json_field(payload, key, where) for key in ("granularity", "tau", "centroids")
    )
    if granularity not in GRANULARITIES:
        raise DataError(f"{where}: granularity must be one of {GRANULARITIES}")
    try:
        t = ThresholdModel(
            task=task,
            granularity=granularity,
            tau=None if tau is None else json_number(tau),
            centroids={int(k): json_number(v) for k, v in centroids.items()} if centroids else None,
        )
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{where} holds a malformed entry ({exc!r})") from None
    needs = "tau" if task == "binary" else "centroids"
    if getattr(t, needs) is None:
        raise DataError(f"{where}: a {task} threshold needs {needs}")
    return t


def save_verifier(v, path: str) -> None:
    """Write an MLVerifier or a ThresholdModel as a version-2 verifier file."""
    if isinstance(v, MLVerifier):
        method, payload = "ml", v.model.to_payload()
    elif isinstance(v, ThresholdModel):
        centroids = {str(k): c for k, c in (v.centroids or {}).items()} or None
        method = "threshold"
        payload = {"granularity": v.granularity, "tau": v.tau, "centroids": centroids}
    else:
        raise ConfigError(f"unsupported verifier type {type(v).__name__}")
    envelope = {
        "format": VERIFIER_FORMAT,
        "version": VERIFIER_VERSION,
        "method": method,
        "task": v.task,
        "payload": payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh)
        fh.write("\n")


def load_verifier(path: str):
    """The verifier a `save_verifier` file holds; DataError when the file is malformed."""
    envelope = read_json(path)
    if not isinstance(envelope, dict) or envelope.get("format") != VERIFIER_FORMAT:
        raise DataError(f"{path}: not a verifier file")
    if envelope.get("version") != VERIFIER_VERSION:
        raise DataError(f"{path}: verifier file version {envelope.get('version')!r} is not "
                        "read; refit it with `ppverify fit-verifier` to write version "
                        f"{VERIFIER_VERSION}")
    method, task, payload = (json_field(envelope, k, path) for k in ("method", "task", "payload"))
    if task not in TASKS:
        raise DataError(f"{path}: task must be one of {TASKS}, got {task!r}")
    if method == "threshold":
        return _threshold_from_payload(payload, task, path)
    if method != "ml":
        raise DataError(f"{path}: method must be 'ml' or 'threshold', got {method!r}")
    model = model_from_payload(payload)
    ids = model.class_values
    whole = np.isfinite(ids) & (ids >= 0) & (ids == np.floor(ids))
    if not ids.size or not whole.all() or (task == "binary" and (ids > 1).any()):
        raise DataError(f"{path}: classes {ids.tolist()} are not {task} verdict classes")
    return MLVerifier(model, task)


def responses_to_csv(matrix, feature_names, path) -> None:
    """Write a response matrix as CSV: feature columns, then intercept, then
    yhat. A matrix that `responses_from_csv` would refuse is not written."""
    header = list(feature_names) + ["intercept", "yhat"]
    if matrix.shape[1] != len(header):
        raise DataError(f"response vectors have {matrix.shape[1]} entries, expected {len(header)}")
    check_unique(header, path)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise DataError(f"{path} line {int(np.argmin(finite)) + 2}: non-finite response cell")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in matrix)


def responses_from_csv(path: str, model_tag: str | None = None) -> Responses:
    """The responses a `responses_to_csv` file holds, tagged `model_tag`
    (default: the path)."""
    header, body = read_rows(path)
    if not body:
        raise DataError(f"{path}: no response rows")
    if len(header) < 3 or header[-2:] != ["intercept", "yhat"]:
        raise DataError(f"{path}: expected trailing intercept,yhat columns")
    out = []
    for q, row in enumerate(body):
        try:
            out.append([float(v) for v in row])
        except ValueError:
            raise DataError(f"{path} line {q + 2}: non-numeric response cell") from None
        if not np.isfinite(out[-1]).all():
            raise DataError(f"{path} line {q + 2}: non-finite response cell")
    return Responses(np.array(out), path if model_tag is None else model_tag, tuple(header))
