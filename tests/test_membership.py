import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_dataset
from ppverify import membership
from ppverify.errors import ConfigError, DataError
from ppverify.membership import AttackConfig, AttackResult, mia_power, min_hamming
from ppverify.tabular import (
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_DISCRETE,
    ColumnSchema,
    Dataset,
)


def grid_dataset(rows):
    return build_dataset(rows, kinds=[KIND_DISCRETE] * len(rows[0]))


def test_min_hamming_verbatim_row_is_zero():
    released = grid_dataset([[0.0, 1.0, 0.0], [2.0, 3.0, 1.0]])
    assert min_hamming(np.array([0.0, 1.0, 0.0]), released) == 0


def test_min_hamming_counts_differing_cells():
    released = grid_dataset([[0.0, 1.0, 3.0], [9.0, 9.0, 9.0]])
    assert min_hamming(np.array([0.0, 1.0, 2.0]), released) == 1


def test_min_hamming_all_cells_differ():
    released = grid_dataset([[5.0, 5.0, 5.0]])
    assert min_hamming(np.array([0.0, 1.0, 2.0]), released) == 3


def test_min_hamming_quantizes_continuous_cells_only():
    # continuous cells snap to the released column's values before comparing:
    # 1.4 goes to 1, the 2.0 tie between 1 and 3 takes the smaller
    released = build_dataset([[1.0, 1.0, 0.0], [3.0, 3.0, 1.0]])
    assert min_hamming(np.array([1.4, 2.0, 0.0]), released) == 0
    # discrete cells compare exactly, no snapping
    assert min_hamming(np.array([1.0, 1.0, 2.0]), grid_dataset([[1.0, 1.0, 0.0]])) == 1


def test_min_hamming_missing_matches_missing():
    released = build_dataset([[np.nan, 2.0, 0.0], [1.0, 2.0, 1.0]])
    assert min_hamming(np.array([np.nan, 2.0, 0.0]), released) == 0
    # a present cell never equals a missing one
    assert min_hamming(np.array([1.0, np.nan, 0.0]), released) == 2


def test_mia_power_case_in_release_is_one():
    rng = np.random.default_rng(3)
    rows = np.column_stack(
        [rng.integers(0, 50, size=(200, 4)), rng.integers(0, 2, size=200)]
    ).astype(float)
    released = grid_dataset(rows.tolist())
    case = released.take(range(40))
    control_rows = rng.integers(60, 120, size=(40, 4))  # disjoint value range
    control = grid_dataset(
        np.column_stack([control_rows, rng.integers(0, 2, size=40)]).astype(float).tolist()
    )
    result = mia_power(released, AttackConfig(case, control, 0.05))
    assert isinstance(result, AttackResult)
    assert (result.case_distances == 0).all()
    assert result.gamma > 0
    assert result.power == 1.0


def perturb_rows(rng, base, p, alphabet=10):
    out = np.array(base, copy=True)
    mask = rng.random(out.shape) < p
    out[mask] = rng.integers(0, alphabet, size=int(mask.sum()))
    return out


def test_mia_power_calibrates_when_case_equals_control_distribution():
    # case and control drawn from the same distribution: power ~ fpr. Wide
    # rows keep the min-distance distribution fine-grained enough for the 5%
    # quantile to resolve.
    master = np.random.default_rng(42)
    released_rows = master.integers(0, 10, size=(400, 80))
    released = grid_dataset(released_rows.astype(float).tolist())
    powers = []
    for s in range(10):
        r = np.random.default_rng(1000 + s)
        case_base = released_rows[r.permutation(400)[:150]]
        ctrl_base = released_rows[r.permutation(400)[:150]]
        case = grid_dataset(perturb_rows(r, case_base, 0.35).astype(float).tolist())
        control = grid_dataset(perturb_rows(r, ctrl_base, 0.35).astype(float).tolist())
        powers.append(mia_power(released, AttackConfig(case, control, 0.05)).power)
    assert abs(float(np.mean(powers)) - 0.05) <= 0.02


def test_mia_gamma_is_lower_quantile_of_control():
    released = grid_dataset([[0.0, 0.0, 0.0], [9.0, 9.0, 1.0]])
    case = grid_dataset([[0.0, 0.0, 0.0]])
    control = grid_dataset([[0.0, 9.0, 0.0]] * 10 + [[9.0, 0.0, 1.0]] * 10)
    result = mia_power(released, AttackConfig(case, control, 0.05))
    # every control row sits at distance 1; the 5% lower quantile is 1
    assert result.gamma == 1.0
    assert result.power == 1.0  # case at 0 < 1


def test_mia_power_counts_strictly_below_gamma():
    released = grid_dataset([[0.0, 0.0, 0.0]])
    case = grid_dataset([[0.0, 9.0, 0.0]] * 5)  # distance 1 each
    control = grid_dataset([[9.0, 9.0, 0.0]] * 20)  # distance 2 each
    result = mia_power(released, AttackConfig(case, control, 0.25))
    assert result.gamma == 2.0
    assert result.power == 1.0  # 1 < 2
    # when gamma equals the case distance, strictness empties the power
    tight = mia_power(released, AttackConfig(case, case, 0.25))
    assert tight.gamma == 1.0
    assert tight.power == 0.0  # 1 < 1 is false


def test_mia_schema_mismatch_is_an_error():
    released = grid_dataset([[0.0, 1.0, 0.0]])
    other = build_dataset([[0.0, 0.0]], names=["a", "label"])
    with pytest.raises(DataError):
        mia_power(released, AttackConfig(other, other, 0.05))


def test_mia_fpr_must_be_a_rate():
    released = grid_dataset([[0.0, 1.0, 0.0]])
    with pytest.raises(ConfigError):
        AttackConfig(released, released, 0.0)
    with pytest.raises(ConfigError):
        AttackConfig(released, released, 1.0)


# per kind, the cells a released column may hold, and the extra cells a
# sample may hold besides: NaN, -0.0 next to 0.0, and off-grid values
_CELLS = {
    KIND_CONTINUOUS: ([math.nan, -0.0, 0.0, 0.5, 1.0, 2.0, 2.5, -1.0],
                      [0.2, 0.75, 1.5, 2.25, 3.0, -2.0, -0.5]),
    KIND_DISCRETE: ([math.nan, -0.0, 0.0, 1.0, 2.0, 3.0, -1.0], [4.0, -2.0]),
    KIND_CATEGORICAL: ([math.nan, -0.0, 0.0, 1.0, 2.0, 3.0], []),
}


def reference_distances(samples, released, kinds):
    """Minimum Hamming distance per sample row, one (row, released row) pair
    at a time: continuous cells first move to the nearest value the released
    column holds (ties toward the smaller), and two missing cells match."""

    def snap(v, column):
        observed = [x for x in column if not math.isnan(x)]
        if math.isnan(v) or not observed:
            return v
        return min(observed, key=lambda g: (abs(v - g), g))

    def same(a, b):
        return (math.isnan(a) and math.isnan(b)) or a == b

    out = []
    for row in samples:
        row = [snap(v, [r[j] for r in released]) if kinds[j] == KIND_CONTINUOUS else v
               for j, v in enumerate(row)]
        out.append(min(sum(not same(a, b) for a, b in zip(row, rel)) for rel in released))
    return out


@st.composite
def attack_tables(draw):
    """Small released and sample tables over mixed column kinds, with repeats."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4))

    def rows(extra, most):
        cells = [st.sampled_from(_CELLS[kind][0] + (_CELLS[kind][1] if extra else []))
                 for kind in kinds]
        return draw(st.lists(st.tuples(*cells).map(list), min_size=1, max_size=most))

    released = rows(False, 12)
    samples = rows(True, 20) + draw(st.lists(st.sampled_from(released), max_size=4))
    return kinds, released, samples


@settings(max_examples=150, deadline=None)
@given(tables=attack_tables(), chunk=st.integers(1, 5))
def test_distances_equal_a_per_pair_reference(tables, chunk):
    kinds, released, samples = tables
    schema = [ColumnSchema(f"c{j}", kind, ("a", "b", "c", "d") if kind == KIND_CATEGORICAL
                           else (), j == 0) for j, kind in enumerate(kinds)]
    dataset = Dataset(schema, np.array(released, dtype=float))
    with mock.patch.object(membership, "_CHUNK_ROWS", chunk):  # blocks cross rows
        got = membership._distances(np.array(samples, dtype=float), dataset)
    assert got.tolist() == reference_distances(samples, released, kinds)
