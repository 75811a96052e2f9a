"""Local differential privacy for tabular data via the Laplace mechanism.

Each feature column is noised independently with scale sensitivity/epsilon,
where sensitivity is the column's observed range, then snapped back into the
column's domain. An infinite budget produces zero noise, making the release
bit-identical to the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .seeding import derive_seed
from .tabular import (
    KIND_CONTINUOUS,
    ColumnStats,
    Dataset,
    column_stats,
)

INFINITE = math.inf


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-release epsilon. Must be positive; math.inf disables noise."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.epsilon)

    @classmethod
    def parse(cls, text: str) -> "PrivacyBudget":
        token = str(text).strip().lower()
        if token in ("inf", "infinity", "infinite"):
            return cls(math.inf)
        try:
            return cls(float(token))
        except ValueError:
            raise ConfigError(f"cannot parse epsilon {text!r}") from None


def laplace_scale(stats: ColumnStats, budget: PrivacyBudget) -> float:
    """Scale of one column's noise: its observed range over epsilon, 0 at inf."""
    return 0.0 if budget.is_infinite else (stats.maximum - stats.minimum) / budget.epsilon


def _laplace_noise(scale: float, size: int, rng: np.random.Generator) -> np.ndarray:
    if scale == 0.0:
        return np.zeros(size)
    u = rng.random(size) - 0.5
    # inverse CDF of Laplace(0, scale); clamp the log argument so the
    # measure-zero u == -0.5 draw cannot yield infinity
    t = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(float).tiny)
    return -scale * np.sign(u) * np.log(t)


def laplace_sample(scale: float, rng: np.random.Generator) -> float:
    """One draw from Laplace(0, scale) via inverse-CDF on a uniform draw.

    Scale 0 returns exactly 0.0.
    """
    if scale < 0:
        raise ConfigError(f"scale must be non-negative, got {scale}")
    if scale == 0.0:
        return 0.0
    return float(_laplace_noise(scale, 1, rng)[0])


def snap_to_nearest(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Move each value to the nearest entry of the sorted `grid`, ties toward
    the smaller entry."""
    pos = np.searchsorted(grid, values)
    lo = grid[np.clip(pos - 1, 0, grid.size - 1)]
    hi = grid[np.clip(pos, 0, grid.size - 1)]
    return np.where(values - lo <= hi - values, lo, hi)


def _snap_array(values: np.ndarray, stats: ColumnStats, kind: str) -> np.ndarray:
    if kind == KIND_CONTINUOUS:
        return np.clip(values, stats.minimum, stats.maximum)
    return snap_to_nearest(values, stats.distinct_values)


def snap(value: float, stats: ColumnStats, kind: str) -> float:
    """Post-process one noised cell back into the column's domain.

    Continuous columns clip to the observed [min, max]; discrete and
    categorical columns move to the nearest observed value, ties toward the
    smaller one.
    """
    return float(_snap_array(np.asarray([value], dtype=float), stats, kind)[0])


def privatize(
    d: Dataset,
    budget: PrivacyBudget,
    seed: int,
    noise_label: bool = False,
) -> Dataset:
    """Release a noised copy of `d` under the Laplace mechanism.

    Every observed non-label cell receives independent Laplace noise with
    scale (column range / epsilon) and is then snapped into the column's
    domain; missing cells stay missing. The label column is noised only when
    `noise_label` is set. Each column draws from its own substream derived
    from `seed` and the column index, so the release is deterministic.
    """
    out = np.array(d.values, copy=True)
    for j, col in enumerate(d.schema):
        if col.is_label and not noise_label:
            continue
        stats = column_stats(d, j)
        scale = laplace_scale(stats, budget)
        if scale == 0.0:
            continue
        if not math.isfinite(scale):
            raise DataError(f"cannot noise column {col.name!r}: its Laplace scale is {scale}")
        column = out[:, j]
        observed = ~np.isnan(column)
        rng = np.random.default_rng(derive_seed(seed, "ldp-column", j))
        noised = column[observed] + _laplace_noise(scale, int(observed.sum()), rng)
        column[observed] = _snap_array(noised, stats, col.kind)
    return d.with_values(out)
