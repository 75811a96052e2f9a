import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_dataset
from ppverify.errors import ConfigError, DataError
from ppverify.ldp import (
    INFINITE,
    PrivacyBudget,
    laplace_sample,
    laplace_scale,
    privatize,
    snap,
    snap_to_nearest,
)
from ppverify.tabular import (
    ColumnSchema,
    Dataset,
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_DISCRETE,
    column_stats,
    datasets_equal,
)


def test_budget_parsing():
    assert PrivacyBudget.parse("0.5").epsilon == 0.5
    assert PrivacyBudget.parse("inf").is_infinite
    assert PrivacyBudget.parse("Infinity").is_infinite
    assert not PrivacyBudget.parse("10").is_infinite


def test_budget_must_be_positive():
    with pytest.raises(ConfigError):
        PrivacyBudget(0.0)
    with pytest.raises(ConfigError):
        PrivacyBudget.parse("-1")


def test_scale_is_range_over_epsilon():
    d = build_dataset([[0.0, 0.0], [10.0, 1.0]])
    stats = column_stats(d, 0)
    assert laplace_scale(stats, PrivacyBudget(2.0)) == pytest.approx(5.0)
    assert laplace_scale(stats, PrivacyBudget(INFINITE)) == 0.0


def test_laplace_sample_statistics():
    # mean absolute deviation of Laplace(0, b) equals b
    rng = np.random.default_rng(77)
    draws = np.array([laplace_sample(2.0, rng) for _ in range(100_000)])
    assert abs(np.abs(draws).mean() - 2.0) / 2.0 < 0.02
    assert abs(np.median(draws)) < 0.05 * 2.0


def test_laplace_zero_scale_is_exactly_zero():
    rng = np.random.default_rng(1)
    assert laplace_sample(0.0, rng) == 0.0


def test_snap_continuous_clips_to_range():
    d = build_dataset([[0.0, 0.0], [5.0, 1.0]])
    stats = column_stats(d, 0)
    assert snap(7.3, stats, KIND_CONTINUOUS) == 5.0
    assert snap(-4.0, stats, KIND_CONTINUOUS) == 0.0
    assert snap(2.6, stats, KIND_CONTINUOUS) == 2.6  # in range: untouched


def test_snap_discrete_nearest_with_ties_down():
    vals = [[0.0, 0.0], [5.0, 0.0], [10.0, 1.0]]
    d = build_dataset(vals, kinds=[KIND_DISCRETE, KIND_DISCRETE])
    stats = column_stats(d, 0)
    assert snap(7.3, stats, KIND_DISCRETE) == 5.0
    assert snap(7.6, stats, KIND_DISCRETE) == 10.0
    assert snap(2.5, stats, KIND_DISCRETE) == 0.0  # equidistant: smaller value wins
    assert snap(-4.0, stats, KIND_DISCRETE) == 0.0
    assert snap(99.0, stats, KIND_DISCRETE) == 10.0


def test_privatize_infinite_budget_is_identity():
    d = build_dataset([[1.25, 0.0], [np.nan, 1.0], [3.5, 0.0]])
    out = privatize(d, PrivacyBudget(INFINITE), seed=3)
    assert datasets_equal(d, out)
    assert np.array_equal(
        d.values, out.values, equal_nan=True
    )  # bit-for-bit, not merely approximately


def test_privatize_refuses_an_infinite_range_unless_the_budget_is_infinite():
    d = build_dataset([[1.25, 0.0], [np.inf, 1.0], [3.5, 0.0]])
    assert np.array_equal(privatize(d, PrivacyBudget(INFINITE), seed=3).values, d.values)
    with pytest.raises(DataError, match="Laplace scale is inf"):
        privatize(d, PrivacyBudget(1.0), seed=3)


def test_privatize_is_deterministic_per_seed():
    d = build_dataset([[float(i), float(i % 2)] for i in range(50)])
    a = privatize(d, PrivacyBudget(1.0), seed=4)
    b = privatize(d, PrivacyBudget(1.0), seed=4)
    c = privatize(d, PrivacyBudget(1.0), seed=5)
    assert datasets_equal(a, b)
    assert not datasets_equal(a, c)


def test_privatize_outputs_stay_in_domain():
    rng = np.random.default_rng(6)
    cont = rng.normal(size=60)
    disc = rng.choice([1.0, 4.0, 9.0], size=60)
    label = rng.integers(0, 2, size=60).astype(float)
    d = build_dataset(
        np.column_stack([cont, disc, label]),
        kinds=[KIND_CONTINUOUS, KIND_DISCRETE, KIND_DISCRETE],
    )
    out = privatize(d, PrivacyBudget(0.5), seed=9)
    assert out.values[:, 0].min() >= cont.min()
    assert out.values[:, 0].max() <= cont.max()
    assert set(np.unique(out.values[:, 1])) <= {1.0, 4.0, 9.0}


def test_privatize_keeps_missing_cells_missing():
    d = build_dataset([[1.0, 0.0], [np.nan, 1.0], [3.0, 0.0]])
    out = privatize(d, PrivacyBudget(0.2), seed=2)
    assert np.isnan(out.values[1, 0])
    assert not np.isnan(out.values[0, 0])


def test_privatize_label_untouched_by_default():
    d = build_dataset([[float(i), float(i % 2)] for i in range(40)])
    out = privatize(d, PrivacyBudget(0.1), seed=11)
    assert np.array_equal(out.labels(), d.labels())
    noised = privatize(d, PrivacyBudget(0.1), seed=11, noise_label=True)
    assert not np.array_equal(noised.labels(), d.labels())


def test_binary_flip_rate_matches_closed_form():
    # {0,1} column at eps = 0.1: scale 10, flip when noise crosses the 0.5
    # midpoint, one-sided: 0.5 * exp(-0.5/10) ~= 0.4756
    n = 40_000
    vals = np.zeros((n, 2))
    vals[: n // 2, 0] = 1.0
    vals[:, 1] = np.arange(n) % 2
    d = build_dataset(vals, kinds=[KIND_DISCRETE, KIND_DISCRETE])
    out = privatize(d, PrivacyBudget(0.1), seed=13)
    flip = float(np.mean(out.values[:, 0] != d.values[:, 0]))
    assert flip == pytest.approx(0.5 * math.exp(-0.05), abs=0.01)


def test_categorical_column_snaps_to_observed_codes():
    schema = (
        ColumnSchema("c", KIND_CATEGORICAL, ("a", "b", "c", "d")),
        ColumnSchema("y", KIND_DISCRETE, (), True),
    )
    vals = np.array([[0.0, 0.0], [3.0, 1.0], [3.0, 0.0], [0.0, 1.0]] * 10, dtype=float)
    d = Dataset(schema, vals)
    out = privatize(d, PrivacyBudget(0.3), seed=21)
    assert set(np.unique(out.values[:, 0])) <= {0.0, 3.0}  # codes 1, 2 never observed


_GRID_VALUES = st.one_of(st.integers(-6, 6).map(lambda v: v / 2.0),  # ties at the midpoints
                         st.floats(-1e6, 1e6, allow_nan=False), st.just(-0.0))


@given(grid=st.lists(_GRID_VALUES, min_size=1, max_size=12),
       values=st.lists(_GRID_VALUES, min_size=1, max_size=20))
def test_snap_to_nearest_is_idempotent(grid, values):
    grid = np.sort(np.array(grid + grid[:3]))  # duplicated grid entries
    once = snap_to_nearest(np.array(values), grid)
    assert np.isin(once, grid).all()
    assert np.array_equal(snap_to_nearest(once, grid), once)
