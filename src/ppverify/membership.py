"""Membership-inference power of a noised data release.

The attacker scores a candidate row by its minimum Hamming distance to the
released rows. Cells are compared after quantizing onto the released
column's observed values (nearest value, ties toward the smaller), which
puts continuous columns on a discrete footing; two missing cells compare
equal. The decision threshold gamma is calibrated on a control group so
that at most `target_fpr` of non-members score below it, and power is the
fraction of the case group scoring strictly below gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .ldp import snap_to_nearest
from .tabular import Dataset, KIND_CONTINUOUS

_CHUNK_ROWS = 64  # case/control rows per broadcast block


@dataclass(frozen=True)
class AttackConfig:
    """Case group (true members of the source data) and control group
    (same distribution, not in the source data). It checks itself when
    built and cannot be changed after."""

    case_group: Dataset
    control_group: Dataset
    target_fpr: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.target_fpr < 1.0:
            raise ConfigError(f"target_fpr must lie in (0, 1), got {self.target_fpr}")


@dataclass
class AttackResult:
    gamma: float
    power: float
    case_distances: np.ndarray
    control_distances: np.ndarray


def _check_schema(sample: Dataset, released: Dataset, role: str) -> None:
    names = tuple(c.name for c in sample.schema)
    released_names = tuple(c.name for c in released.schema)
    if names != released_names:
        raise DataError(
            f"{role} columns {names!r} do not match the released columns {released_names!r}"
        )


def _distances(samples: np.ndarray, released: Dataset) -> np.ndarray:
    """Minimum Hamming distance of each sample row to the released rows.

    In continuous columns, observed cells of both tables first snap to the
    released column's observed values. Cells then compare as per-column
    integer codes: -0.0 shares the code of 0.0, and all missing cells share
    one code.
    """
    m, codes = samples.shape[0], []
    for col, schema in zip(np.vstack([samples, released.values]).T, released.schema):
        observed = ~np.isnan(col)
        if schema.kind == KIND_CONTINUOUS and observed[m:].any():
            col[observed] = snap_to_nearest(col[observed], np.unique(col[m:][observed[m:]]))
        codes.append(np.unique(col, return_inverse=True, equal_nan=True)[1])
    out = np.empty(m, dtype=int)
    for a in range(0, m, _CHUNK_ROWS):
        b = min(a + _CHUNK_ROWS, m)
        mismatches = np.zeros((b - a, released.n_rows), dtype=np.int16)
        for code in codes:
            mismatches += code[a:b, None] != code[m:]
        out[a:b] = mismatches.min(axis=1)
    return out


def min_hamming(sample_row: np.ndarray, released: Dataset) -> int:
    """Minimum count of differing cells between one row and any released row."""
    row = np.asarray(sample_row, dtype=float)
    if row.shape != (released.n_cols,):
        raise DataError(
            f"sample row has {row.size} cells, released rows have {released.n_cols}"
        )
    if released.n_rows == 0:
        raise DataError("released dataset is empty")
    return int(_distances(row[None, :], released)[0])


def mia_power(released: Dataset, cfg: AttackConfig) -> AttackResult:
    """Calibrate gamma on the control group and measure case-group power.

    gamma is the `target_fpr` quantile of control distances under lower
    interpolation; a row is flagged a member when its minimum distance is
    strictly below gamma.
    """
    if released.n_rows == 0:
        raise DataError("released dataset is empty")
    _check_schema(cfg.case_group, released, "case group")
    _check_schema(cfg.control_group, released, "control group")
    if cfg.case_group.n_rows == 0 or cfg.control_group.n_rows == 0:
        raise DataError("case and control groups must be non-empty")

    both = np.vstack([cfg.case_group.values, cfg.control_group.values])
    case_d, control_d = np.split(_distances(both, released), [cfg.case_group.n_rows])

    gamma = float(np.quantile(control_d, cfg.target_fpr, method="lower"))
    power = float(np.mean(case_d < gamma))
    return AttackResult(gamma, power, case_d, control_d)
