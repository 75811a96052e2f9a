"""Tabular datasets with typed columns, first-class missing cells, and a
deterministic synthetic generator.

Cells are stored in one float64 matrix. Categorical cells hold the integer
code of their category (codes follow the lexicographic order of the category
strings); missing cells hold NaN. Datasets are immutable: every operation
returns a new instance.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, check_field_types, json_field, read_json

KIND_CONTINUOUS = "numeric-continuous"
KIND_DISCRETE = "numeric-discrete"
KIND_CATEGORICAL = "categorical"
COLUMN_KINDS = (KIND_CONTINUOUS, KIND_DISCRETE, KIND_CATEGORICAL)

#: Cells whose text equals one of these tokens load as missing.
MISSING_TOKENS = ("", "?")

#: Integer-valued columns with more distinct values than this infer as continuous.
DISCRETE_DISTINCT_LIMIT = 64


@dataclass(frozen=True)
class ColumnSchema:
    """Name, kind and role of one column.

    `categories` is only populated for categorical columns and is always
    sorted; the position of a category string is its integer code.
    """

    name: str
    kind: str
    categories: tuple[str, ...] = ()
    is_label: bool = False

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise ConfigError(f"unknown column kind {self.kind!r}")
        if self.kind == KIND_CATEGORICAL:
            cats = tuple(self.categories)
            if len(set(cats)) != len(cats):
                raise ConfigError(f"column {self.name!r}: duplicate categories")
            if list(cats) != sorted(cats):
                raise ConfigError(f"column {self.name!r}: categories must be sorted")
            if set(cats) & set(MISSING_TOKENS):
                raise ConfigError(f"column {self.name!r}: categories {MISSING_TOKENS} read as missing")
        elif self.categories:
            raise ConfigError(f"column {self.name!r}: only categorical columns carry categories")


@dataclass(frozen=True)
class ColumnStats:
    """Descriptive statistics over the observed (non-missing) cells of a column."""

    minimum: float
    maximum: float
    distinct_values: np.ndarray


@dataclass
class Dataset:
    """An immutable table of typed columns.

    Exactly one column must be flagged `is_label`.
    """

    schema: tuple[ColumnSchema, ...]
    values: np.ndarray

    def __post_init__(self):
        self.schema = tuple(self.schema)
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.ndim != 2:
            raise DataError(f"values must be 2-D, got shape {vals.shape}")
        if vals.shape[1] != len(self.schema):
            raise DataError(
                f"schema lists {len(self.schema)} columns but values have {vals.shape[1]}"
            )
        names = [c.name for c in self.schema]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names")
        n_labels = sum(c.is_label for c in self.schema)
        if n_labels != 1:
            raise DataError(f"expected exactly one label column, found {n_labels}")
        for j, col in enumerate(self.schema):
            if col.kind == KIND_CATEGORICAL:
                cells = vals[:, j]
                codes = cells[~np.isnan(cells)]
                if codes.size and (
                    np.any(codes != np.floor(codes))
                    or codes.min() < 0
                    or codes.max() >= len(col.categories)
                ):
                    raise DataError(f"column {col.name!r}: category code out of range")
        vals.flags.writeable = False
        self.values = vals

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def label_index(self) -> int:
        return next(j for j, c in enumerate(self.schema) if c.is_label)

    @property
    def feature_indices(self) -> tuple[int, ...]:
        return tuple(j for j, c in enumerate(self.schema) if not c.is_label)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.schema if not c.is_label)

    def column(self, index: int) -> np.ndarray:
        return self.values[:, index]

    def feature_matrix(self) -> np.ndarray:
        return self.values[:, list(self.feature_indices)]

    def labels(self) -> np.ndarray:
        return self.values[:, self.label_index]

    def take(self, row_indices) -> "Dataset":
        """New dataset holding the given rows, in the given order."""
        return Dataset(self.schema, self.values[np.asarray(row_indices, dtype=int)])

    def with_values(self, values: np.ndarray) -> "Dataset":
        return Dataset(self.schema, values)


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Schema identity plus cell-wise equality, treating NaN == NaN."""
    return a.schema == b.schema and a.values.shape == b.values.shape and bool(
        np.array_equal(a.values, b.values, equal_nan=True)
    )


def column_stats(d: Dataset, index: int) -> ColumnStats:
    """Stats over the observed cells of one column.

    Categorical columns are summarized over their integer codes. Raises
    DataError when every cell is missing.
    """
    col = d.column(index)
    observed = col[~np.isnan(col)]
    if observed.size == 0:
        raise DataError(f"column {d.schema[index].name!r} has no observed values")
    return ColumnStats(float(observed.min()), float(observed.max()), np.unique(observed))


# ---------------------------------------------------------------------------
# CSV and schema sidecar IO


def _infer_schema(header, columns_text) -> tuple[ColumnSchema, ...]:
    schema = []
    for j, name in enumerate(header):
        tokens = [t for t in columns_text[j] if t not in MISSING_TOKENS]
        parsed = []
        numeric = len(tokens) > 0
        for t in tokens:
            try:
                v = float(t)
            except ValueError:
                numeric = False
                break
            if math.isnan(v):
                continue  # literal NaN text counts as missing
            parsed.append(v)
        if numeric and parsed:
            integral = all(v.is_integer() for v in parsed if math.isfinite(v))
            distinct = len(set(parsed))
            kind = KIND_DISCRETE if integral and distinct <= DISCRETE_DISTINCT_LIMIT else KIND_CONTINUOUS
        elif numeric:
            kind = KIND_CONTINUOUS  # numeric column whose observed cells were all NaN text
        else:
            kind = KIND_CATEGORICAL
        is_label = j == len(header) - 1  # inference convention: last column is the label
        if kind == KIND_CATEGORICAL:
            cats = tuple(sorted(set(tokens)))
            schema.append(ColumnSchema(name, kind, cats, is_label))
        else:
            schema.append(ColumnSchema(name, kind, (), is_label))
    return tuple(schema)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(
                f"{path} line {i + 2}: expected {len(header)} fields, got {len(row)}"
            )
    return header, body


def load_csv(path: str, schema="infer") -> Dataset:
    """Load a UTF-8 CSV with a header row.

    Empty cells and "?" load as missing. With `schema="infer"`, a column is
    numeric iff every observed cell parses as a number, numeric-discrete iff
    additionally all values are integers with at most 64 distinct values, and
    categorical otherwise; the last column becomes the label. Pass a sequence
    of ColumnSchema to pin kinds and roles instead; header names must then
    match the schema. Categorical schemas with empty `categories` collect
    them from the file (sorted); non-empty ones reject unknown categories.
    """
    header, body = _read_rows(path)
    columns_text = [[row[j] for row in body] for j in range(len(header))]

    if isinstance(schema, str):
        if schema != "infer":
            raise ConfigError(f"unknown schema mode {schema!r}")
        cols = _infer_schema(header, columns_text)
    else:
        cols = tuple(schema)
        if [c.name for c in cols] != list(header):
            raise DataError(
                f"{path}: header {header!r} does not match schema names "
                f"{[c.name for c in cols]!r}"
            )
        filled = []
        for j, col in enumerate(cols):
            if col.kind == KIND_CATEGORICAL and not col.categories:
                observed = sorted(
                    {t for t in columns_text[j] if t not in MISSING_TOKENS}
                )
                col = replace(col, categories=tuple(observed))
            filled.append(col)
        cols = tuple(filled)

    n = len(body)
    values = np.full((n, len(cols)), np.nan)
    for j, col in enumerate(cols):
        if col.kind == KIND_CATEGORICAL:
            code = {c: k for k, c in enumerate(col.categories)}
            for i, t in enumerate(columns_text[j]):
                if t in MISSING_TOKENS:
                    continue
                if t not in code:
                    raise DataError(
                        f"{path} line {i + 2}: unknown category {t!r} in column {col.name!r}"
                    )
                values[i, j] = code[t]
        else:
            for i, t in enumerate(columns_text[j]):
                if t in MISSING_TOKENS:
                    continue
                try:
                    v = float(t)
                except ValueError:
                    raise DataError(
                        f"{path} line {i + 2}: cannot parse {t!r} as a number "
                        f"in column {col.name!r}"
                    ) from None
                if not math.isnan(v):
                    values[i, j] = v
    return Dataset(cols, values)


def _format_cell(v: float, col: ColumnSchema) -> str:
    if np.isnan(v):
        return ""
    if col.kind == KIND_CATEGORICAL:
        return col.categories[int(v)]
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def write_csv(d: Dataset, path: str) -> None:
    """Write a dataset back to CSV. Missing cells become empty fields."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in d.schema])
        for row in d.values:
            writer.writerow([_format_cell(v, c) for v, c in zip(row, d.schema)])


def write_schema_sidecar(schema, path: str) -> None:
    """Save column names, kinds and label flags as a JSON sidecar."""
    payload = []
    for col in schema:
        entry = {"name": col.name, "kind": col.kind, "is_label": col.is_label}
        if col.kind == KIND_CATEGORICAL and col.categories:
            entry["categories"] = list(col.categories)
        payload.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_schema_sidecar(path: str):
    payload = read_json(path)
    if not isinstance(payload, list):
        raise DataError(f"{path}: schema sidecar must be a JSON list")
    cols = []
    for j, entry in enumerate(payload):
        where = f"{path}: sidecar entry {j}"
        name, kind = json_field(entry, "name", where), json_field(entry, "kind", where)
        categories = entry.get("categories", [])
        if not isinstance(categories, list) or not all(isinstance(c, str) for c in categories):
            raise DataError(f"{where}: categories must be a list of strings")
        is_label = bool(entry.get("is_label", False))
        try:
            cols.append(ColumnSchema(name, kind, tuple(categories), is_label))
        except ConfigError as exc:  # unknown kind; unsorted, repeated or missing-token categories
            raise DataError(f"{where}: {exc}") from None
    return cols


# ---------------------------------------------------------------------------
# Partitioning and sampling


def split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Random row partition into (train, test).

    The train part receives round(n * train_fraction) rows; relative row
    order within each part is preserved.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    n = d.n_rows
    if n < 2:
        raise DataError("need at least 2 rows to split")
    k = int(math.floor(n * train_fraction + 0.5))
    perm = np.random.default_rng(seed).permutation(n)
    return d.take(np.sort(perm[:k])), d.take(np.sort(perm[k:]))


def sample_rows(d: Dataset, n: int, seed: int) -> Dataset:
    """Uniform sample of `n` rows without replacement, in draw order."""
    if n > d.n_rows:
        raise DataError(f"cannot sample {n} rows from {d.n_rows}")
    idx = np.random.default_rng(seed).permutation(d.n_rows)[:n]
    return d.take(idx)


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a class-labelled Gaussian table with injected dirt.

    `duplicate_fraction`, `outlier_fraction` and `missing_fraction` each name
    the share of rows carrying that artifact; the three sets of rows are
    disjoint, so the fractions may sum to at most 1.
    """

    rows: int = 2000
    features: int = 8
    classes: int = 2
    separation: float = 2.0
    imbalance: float = 4.0
    duplicate_fraction: float = 0.05
    outlier_fraction: float = 0.02
    missing_fraction: float = 0.02

    def __post_init__(self):
        check_field_types(self)
        if self.rows < self.classes:
            raise ConfigError("rows must be at least the class count")
        if self.features < 1 or self.classes < 1:
            raise ConfigError("need at least one feature and one class")
        if self.separation < 0:
            raise ConfigError("separation must be non-negative")
        if self.imbalance < 1:
            raise ConfigError("imbalance ratio must be >= 1")
        fracs = (self.duplicate_fraction, self.outlier_fraction, self.missing_fraction)
        if any(f < 0 for f in fracs):
            raise ConfigError("artifact fractions must be non-negative")
        if sum(fracs) > 1.0 + 1e-12:
            raise ConfigError(
                f"artifact fractions sum to {sum(fracs):g}, must not exceed 1"
            )


def _class_counts(spec: SyntheticSpec) -> np.ndarray:
    k = spec.classes
    if k == 1:
        return np.array([spec.rows])
    # geometric interpolation from majority (class 0) down to minority
    weights = np.array([spec.imbalance ** ((k - 1 - c) / (k - 1)) for c in range(k)])
    raw = spec.rows * weights / weights.sum()
    counts = np.floor(raw).astype(int)
    remainder = spec.rows - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:remainder]] += 1
    # rows >= classes guarantees this can be repaired
    while (counts == 0).any():
        counts[np.argmin(counts)] += 1
        counts[np.argmax(counts)] -= 1
    return counts


def make_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Generate a labelled Gaussian dataset per `spec`, deterministically.

    Features are class-conditional Gaussians with unit variance. Class means
    are random directions rescaled so the closest pair of means sits exactly
    `spec.separation` apart (zero separation leaves the features carrying no
    label signal). Duplicate rows are exact copies of clean rows, outlier
    rows have one feature pushed far outside three standard deviations,
    missing rows have one feature cell blanked.
    """
    rng = np.random.default_rng(seed)
    n, d, k = spec.rows, spec.features, spec.classes

    means = rng.standard_normal((k, d))
    diffs = means[:, None, :] - means[None, :, :]
    gaps = np.linalg.norm(diffs, axis=2)[np.triu_indices(k, 1)]
    min_gap = gaps.min() if gaps.size else 1.0
    if min_gap == 0.0:
        min_gap = 1.0  # coincident draws; only reachable on a measure-zero event
    means = means * (spec.separation / min_gap)

    counts = _class_counts(spec)
    labels = np.repeat(np.arange(k), counts)
    labels = labels[rng.permutation(n)]
    X = means[labels] + rng.standard_normal((n, d))

    n_dup = int(round(n * spec.duplicate_fraction))
    n_out = int(round(n * spec.outlier_fraction))
    n_miss = int(round(n * spec.missing_fraction))
    artifact_perm = rng.permutation(n)
    dup_idx = artifact_perm[:n_dup]
    out_idx = artifact_perm[n_dup : n_dup + n_out]
    miss_idx = artifact_perm[n_dup + n_out : n_dup + n_out + n_miss]
    clean_idx = artifact_perm[n_dup + n_out + n_miss :]

    if n_dup:
        if clean_idx.size == 0:
            raise ConfigError("duplicate fraction leaves no clean rows to copy")
        sources = rng.choice(clean_idx, size=n_dup, replace=True)
        X[dup_idx] = X[sources]
        labels[dup_idx] = labels[sources]

    if n_out:
        mu = X.mean(axis=0)
        sd = X.std(axis=0)
        feats = rng.integers(0, d, size=n_out)
        signs = rng.choice([-1.0, 1.0], size=n_out)
        for i, j, s in zip(out_idx, feats, signs):
            if sd[j] > 0:
                X[i, j] = mu[j] + s * 6.0 * sd[j]

    if n_miss:
        feats = rng.integers(0, d, size=n_miss)
        X[miss_idx, feats] = np.nan

    schema = tuple(
        [ColumnSchema(f"f{j}", KIND_CONTINUOUS) for j in range(d)]
        + [ColumnSchema("label", KIND_DISCRETE, is_label=True)]
    )
    values = np.column_stack([X, labels.astype(float)])
    return Dataset(schema, values)
