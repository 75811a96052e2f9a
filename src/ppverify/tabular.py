"""Tabular datasets with typed columns, first-class missing cells, and a
deterministic synthetic generator.

Cells are stored in one float64 matrix. Categorical cells hold the integer
code of their category (codes follow the lexicographic order of the category
strings); missing cells hold NaN. Datasets are immutable: every operation
returns a new instance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, check_field_types, json_field, read_json, write_json

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


def check_unique(header, path) -> None:
    """DataError naming the columns that `header` repeats."""
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise DataError(f"{path}: the header repeats column {', '.join(repeated)}")


def read_rows(path):
    """The header and body rows of the CSV at `path`, read as UTF-8 with a
    leading BOM dropped. DataError, naming the file, when a byte is not
    UTF-8, the csv module refuses a line (named too), the file is empty, the
    header repeats a column, or a row has other than the header's field count."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:  # a field longer than the csv module's limit
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    check_unique(header, path)
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(
                f"{path} line {i + 2}: expected {len(header)} fields, got {len(row)}"
            )
    return header, body


def _numbers(cells):
    """The cells as floats, NaN where a cell is missing or NaN text, or the
    row index of the first cell that does not parse as a number."""
    floats = []
    for t in cells:
        try:
            floats.append(math.nan if t in MISSING_TOKENS else float(t))
        except ValueError:
            return len(floats)
    floats = np.array(floats)
    floats[np.isnan(floats)] = math.nan  # "-nan" text loads as the one NaN
    return floats


def _infer_kind(cells, floats) -> str:
    """Numeric iff every observed cell parses as a number; discrete iff the
    finite values are also integers, at most 64 distinct; else categorical.
    `floats` is what `_numbers` made of `cells`."""
    if isinstance(floats, int):
        return KIND_CATEGORICAL
    observed = floats[~np.isnan(floats)]
    if not observed.size:  # continuous if some cell was NaN text, not missing
        return KIND_CONTINUOUS if any(t not in MISSING_TOKENS for t in cells) else KIND_CATEGORICAL
    integral = np.array_equal(observed, np.floor(observed))  # floor(inf) is inf
    distinct = len(set(observed.tolist()))
    return KIND_DISCRETE if integral and distinct <= DISCRETE_DISTINCT_LIMIT else KIND_CONTINUOUS


def load_csv(path: str, schema=None) -> Dataset:
    """Load a UTF-8 CSV with a header row.

    Empty cells and "?" load as missing. Without a schema, a column is
    numeric iff every observed cell parses as a number, numeric-discrete iff
    additionally all values are integers with at most 64 distinct values, and
    categorical otherwise; the last column becomes the label. Pass a sequence
    of ColumnSchema to pin kinds and roles instead; header names must then
    match the schema. Categorical schemas with empty `categories` collect
    them from the file (sorted); non-empty ones reject unknown categories.
    """
    header, body = read_rows(path)
    columns = list(zip(*body)) or [()] * len(header)
    if schema is not None and [c.name for c in schema] != header:
        raise DataError(
            f"{path}: header {header!r} does not match schema names "
            f"{[c.name for c in schema]!r}"
        )

    cols, values = [], np.full((len(body), len(header)), np.nan)
    for j, cells in enumerate(columns):
        col = schema[j] if schema is not None else None
        floats = None if col is not None and col.kind == KIND_CATEGORICAL else _numbers(cells)
        if col is None:
            col = ColumnSchema(header[j], _infer_kind(cells, floats), (), j == len(header) - 1)
        if col.kind == KIND_CATEGORICAL:
            if not col.categories:
                observed = sorted({t for t in cells if t not in MISSING_TOKENS})
                col = replace(col, categories=tuple(observed))
            code = dict.fromkeys(MISSING_TOKENS, math.nan)
            code.update((c, k) for k, c in enumerate(col.categories))
            unknown = next((i for i, t in enumerate(cells) if t not in code), None)
            if unknown is not None:
                raise DataError(f"{path} line {unknown + 2}: unknown category "
                                f"{cells[unknown]!r} in column {col.name!r}")
            values[:, j] = [code[t] for t in cells]
        elif isinstance(floats, int):
            raise DataError(
                f"{path} line {floats + 2}: cannot parse {cells[floats]!r} as a number "
                f"in column {col.name!r}"
            )
        else:
            values[:, j] = floats
        cols.append(col)
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
    write_json(path, payload, indent=2)


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
        is_label = entry.get("is_label", False)
        if not isinstance(is_label, bool):
            raise DataError(f"{where}: is_label must be true or false, got {is_label!r}")
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
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
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
