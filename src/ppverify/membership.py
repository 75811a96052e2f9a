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


@dataclass
class AttackConfig:
    """Case group (true members of the source data) and control group
    (same distribution, not in the source data)."""

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


def _column_grids(released: Dataset):
    """Snap grids for sample cells: continuous columns quantize to the
    released column's observed values, discrete and categorical cells compare
    exactly and get no grid."""
    grids = []
    for j, col_schema in enumerate(released.schema):
        if col_schema.kind != KIND_CONTINUOUS:
            grids.append(None)
            continue
        col = released.column(j)
        observed = col[~np.isnan(col)]
        grids.append(np.unique(observed) if observed.size else None)
    return grids


def _snap_matrix(X: np.ndarray, grids) -> np.ndarray:
    """Snap each observed cell of a gridded column to its nearest grid value."""
    out = np.array(X, copy=True)
    for j, grid in enumerate(grids):
        if grid is not None:
            column = out[:, j]
            observed = ~np.isnan(column)
            column[observed] = snap_to_nearest(column[observed], grid)
    return out


def _check_schema(sample: Dataset, released: Dataset, role: str) -> None:
    names = tuple(c.name for c in sample.schema)
    released_names = tuple(c.name for c in released.schema)
    if names != released_names:
        raise DataError(
            f"{role} columns {names!r} do not match the released columns {released_names!r}"
        )


def _distances(samples: np.ndarray, released_q: np.ndarray, grids) -> np.ndarray:
    """Minimum Hamming distance of each sample row to the released rows."""
    S = _snap_matrix(samples, grids)
    out = np.empty(S.shape[0], dtype=int)
    for start in range(0, S.shape[0], _CHUNK_ROWS):
        block = S[start : start + _CHUNK_ROWS]  # (b, c)
        eq = (block[:, None, :] == released_q[None, :, :]) | (
            np.isnan(block)[:, None, :] & np.isnan(released_q)[None, :, :]
        )
        out[start : start + _CHUNK_ROWS] = (~eq).sum(axis=2).min(axis=1)
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
    grids = _column_grids(released)
    released_q = _snap_matrix(released.values, grids)
    return int(_distances(row[None, :], released_q, grids)[0])


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

    grids = _column_grids(released)
    released_q = _snap_matrix(released.values, grids)
    case_d = _distances(cfg.case_group.values, released_q, grids)
    control_d = _distances(cfg.control_group.values, released_q, grids)

    gamma = float(np.quantile(control_d, cfg.target_fpr, method="lower"))
    power = float(np.mean(case_d < gamma))
    return AttackResult(gamma, power, case_d, control_d)
