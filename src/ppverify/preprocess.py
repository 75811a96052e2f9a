"""Preprocessing steps and pipeline enumeration.

Two steps are always required (drop rows with missing cells, encode
non-numeric columns). Four optional steps apply in a fixed order when
present: (1) drop duplicate rows, (2) drop outlier rows, (3) standardize
features, (4) oversample minority classes. A pipeline is proper iff it
includes all four optional steps; every other subset is improper.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .seeding import derive_seed
from .tabular import (
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_DISCRETE,
    ColumnSchema,
    Dataset,
)

DROP_DUPLICATES = 1
DROP_OUTLIERS = 2
STANDARDIZE = 3
OVERSAMPLE = 4
ALL_STEPS = (DROP_DUPLICATES, DROP_OUTLIERS, STANDARDIZE, OVERSAMPLE)
STEP_NAMES = {
    DROP_DUPLICATES: "drop-duplicates",
    DROP_OUTLIERS: "drop-outliers",
    STANDARDIZE: "standardize",
    OVERSAMPLE: "oversample",
}

#: Rows whose feature deviates from the column mean by more than this many
#: population standard deviations are outliers.
OUTLIER_SIGMA = 3.0

ENUMERATION_MODES = ("paper-compat", "full")


@dataclass(frozen=True)
class Pipeline:
    """The subset of optional steps to apply, in ascending step order."""

    steps: tuple[int, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        if any(s not in ALL_STEPS for s in steps):
            raise ConfigError(f"unknown pipeline step in {steps!r}")
        if list(steps) != sorted(set(steps)):
            raise ConfigError("pipeline steps must be strictly increasing")
        object.__setattr__(self, "steps", steps)

    @property
    def is_proper(self) -> bool:
        return self.steps == ALL_STEPS

    @property
    def omitted_steps(self) -> tuple[int, ...]:
        return tuple(s for s in ALL_STEPS if s not in self.steps)

    @property
    def bitmask(self) -> int:
        return sum(1 << (s - 1) for s in self.steps)

    @classmethod
    def from_bitmask(cls, mask: int) -> "Pipeline":
        if not 0 <= mask <= 0b1111:
            raise ConfigError(f"pipeline bitmask must lie in [0, 15], got {mask}")
        return cls(tuple(s for s in ALL_STEPS if mask & (1 << (s - 1))))

    def describe(self) -> str:
        if not self.steps:
            return "none"
        return "+".join(STEP_NAMES[s] for s in self.steps)


@dataclass(frozen=True)
class PipelineLabel:
    """Class identity of a pipeline. Class 0 is always the proper pipeline.

    `omitted_steps` is None when the label stands for "improper, steps
    unspecified" (the generic improper class of a binary verdict).
    """

    class_id: int
    is_proper: bool
    omitted_steps: tuple[int, ...] | None

    def __post_init__(self):
        if self.is_proper != (self.class_id == 0):
            raise ConfigError("class 0 and only class 0 is proper")
        if self.is_proper and self.omitted_steps:
            raise ConfigError("the proper pipeline omits nothing")


def drop_missing(d: Dataset) -> Dataset:
    """Remove every row containing at least one missing cell."""
    keep = ~np.isnan(d.values).any(axis=1)
    if not keep.any():
        warnings.warn("drop_missing removed every row", stacklevel=2)
    return d.take(np.flatnonzero(keep))


def encode_nonnumeric(d: Dataset) -> Dataset:
    """Replace categorical columns by their integer codes.

    Cell values already hold the codes internally, so only the schema
    changes: categorical kinds become numeric-discrete. Idempotent.
    """
    if not any(c.kind == KIND_CATEGORICAL for c in d.schema):
        return d
    schema = tuple(
        ColumnSchema(c.name, KIND_DISCRETE, (), c.is_label)
        if c.kind == KIND_CATEGORICAL
        else c
        for c in d.schema
    )
    return Dataset(schema, d.values)


def drop_duplicates(d: Dataset) -> Dataset:
    """Keep the first occurrence of each exact row (label included)."""
    seen = set()
    keep = []
    for i in range(d.n_rows):
        key = d.values[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return d.take(keep)


def drop_outliers(d: Dataset) -> Dataset:
    """Remove rows with a non-label numeric cell beyond 3 sigma of its column.

    Statistics come from the input itself (population stddev over observed
    cells); a zero-variance column removes nothing, and missing cells never
    count as outliers.
    """
    bad = np.zeros(d.n_rows, dtype=bool)
    for j, col in enumerate(d.schema):
        if col.is_label or col.kind == KIND_CATEGORICAL:
            continue
        column = d.column(j)
        observed = ~np.isnan(column)
        if not observed.any():
            continue
        mean = column[observed].mean()
        sd = column[observed].std()
        if sd == 0:
            continue
        with np.errstate(invalid="ignore"):
            bad |= observed & (np.abs(column - mean) > OUTLIER_SIGMA * sd)
    return d.take(np.flatnonzero(~bad))


def standardize(train: Dataset, test: Dataset | None = None) -> tuple[Dataset, Dataset | None]:
    """Standardize the non-label numeric columns of `train`, and of `test`
    when given, by train's mean and population stddev over observed cells.

    Columns whose stddev is 0 map to 0, and missing cells stay missing.
    Scaled columns become numeric-continuous, since standardized values are
    no longer codes. `test` must name its columns as train does at every
    scaled position.
    """
    stats = {}  # column index -> (mean, stddev) over train's observed cells
    for j, col in enumerate(train.schema):
        if col.is_label or col.kind == KIND_CATEGORICAL:
            continue
        observed = train.column(j)[~np.isnan(train.column(j))]
        stats[j] = (float(observed.mean()), float(observed.std())) if observed.size else (0.0, 0.0)
    names = [train.schema[j].name for j in stats]
    if test is not None and names != [test.schema[j].name for j in stats if j < test.n_cols]:
        raise DataError(f"test columns do not match the standardized training columns {names}")

    def scale(d: Dataset) -> Dataset:
        out, schema = np.array(d.values, copy=True), list(d.schema)
        for j, (mean, sd) in stats.items():
            column = out[:, j]
            observed = ~np.isnan(column)
            column[observed] = 0.0 if sd == 0 else (column[observed] - mean) / sd
            schema[j] = ColumnSchema(d.schema[j].name, KIND_CONTINUOUS, (), d.schema[j].is_label)
        return Dataset(tuple(schema), out)

    return scale(train), None if test is None else scale(test)


def resample_oversample(d: Dataset, seed: int) -> Dataset:
    """Oversample every minority class to the majority count, with replacement.

    Original rows are all retained; drawn copies are appended per class in
    ascending label order.
    """
    labels = d.labels()
    if np.isnan(labels).any():
        raise DataError("oversampling requires observed labels on every row")
    classes, counts = np.unique(labels, return_counts=True)
    target = counts.max()
    rng = np.random.default_rng(seed)
    extra = []
    for cls, count in zip(classes, counts):
        need = int(target - count)
        if need == 0:
            continue
        pool = np.flatnonzero(labels == cls)
        extra.append(rng.choice(pool, size=need, replace=True))
    if not extra:
        return d
    order = np.concatenate([np.arange(d.n_rows)] + extra)
    return d.take(order)


def apply_pipeline(
    train: Dataset,
    test: Dataset | None,
    pipeline: Pipeline,
    seed: int,
) -> tuple[Dataset, Dataset | None]:
    """Apply the required steps plus `pipeline`'s optional steps.

    The training set receives everything. The test set receives only the
    required steps (drop missing, encode) and, when step 3 is present, the
    training set's standardization; it is never deduplicated,
    outlier-filtered or resampled.
    """
    tr = encode_nonnumeric(drop_missing(train))
    te = encode_nonnumeric(drop_missing(test)) if test is not None else None
    for step in pipeline.steps:
        if step == DROP_DUPLICATES:
            tr = drop_duplicates(tr)
        elif step == DROP_OUTLIERS:
            tr = drop_outliers(tr)
        elif step == STANDARDIZE:
            tr, te = standardize(tr, te)
        elif step == OVERSAMPLE:
            tr = resample_oversample(tr, derive_seed(seed, "oversample"))
    if tr.n_rows == 0:
        raise DataError(f"pipeline {pipeline.describe()} emptied the training set")
    return tr, te


def enumerate_pipelines(mode: str = "paper-compat") -> list[tuple[Pipeline, PipelineLabel]]:
    """All pipeline classes for a verification task.

    Class 0 is the proper pipeline. Improper classes follow, ordered by how
    many steps they omit and omitting later steps first, so class 1 omits
    only the oversampling step. "paper-compat" mode skips the subset that
    omits all four optional steps (15 classes total); "full" keeps it
    (16 classes).
    """
    if mode not in ENUMERATION_MODES:
        raise ConfigError(f"enumeration mode must be one of {ENUMERATION_MODES}, got {mode!r}")
    out = [(Pipeline(ALL_STEPS), PipelineLabel(0, True, ()))]
    class_id = 1
    max_omit = 4 if mode == "full" else 3
    for r in range(1, max_omit + 1):
        for omitted in itertools.combinations(reversed(ALL_STEPS), r):
            steps = tuple(s for s in ALL_STEPS if s not in omitted)
            label = PipelineLabel(class_id, False, tuple(sorted(omitted)))
            out.append((Pipeline(steps), label))
            class_id += 1
    return out
