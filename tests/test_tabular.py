import csv
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import csv_reference
from conftest import build_dataset
from ppverify.errors import ConfigError, DataError
from ppverify.tabular import (
    COLUMN_KINDS,
    MISSING_TOKENS,
    ColumnSchema,
    Dataset,
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_DISCRETE,
    SyntheticSpec,
    column_stats,
    datasets_equal,
    load_csv,
    load_schema_sidecar,
    make_synthetic,
    sample_rows,
    split,
    write_csv,
    write_schema_sidecar,
)


def test_dataset_requires_exactly_one_label():
    schema = (
        ColumnSchema("a", KIND_CONTINUOUS),
        ColumnSchema("b", KIND_CONTINUOUS),
    )
    with pytest.raises(DataError):
        Dataset(schema, np.zeros((2, 2)))


def test_dataset_values_are_immutable():
    d = build_dataset([[1.0, 0.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        d.values[0, 0] = 9.0


def test_duplicate_column_names_rejected():
    schema = (
        ColumnSchema("x", KIND_CONTINUOUS),
        ColumnSchema("x", KIND_DISCRETE, (), True),
    )
    with pytest.raises(DataError):
        Dataset(schema, np.zeros((1, 2)))


def test_column_stats_matches_hand_computation():
    d = build_dataset([[1.0, 0.0], [2.0, 0.0], [3.0, 1.0]])
    st = column_stats(d, 0)
    assert st.minimum == 1.0 and st.maximum == 3.0
    assert st.distinct_values.tolist() == [1.0, 2.0, 3.0]


def test_column_stats_ignores_missing_cells():
    d = build_dataset([[1.0, 0.0], [np.nan, 0.0], [3.0, 1.0]])
    st = column_stats(d, 0)
    assert st.minimum == 1.0 and st.maximum == 3.0
    assert st.distinct_values.tolist() == [1.0, 3.0]


def test_column_stats_all_missing_is_an_error():
    d = build_dataset([[np.nan, 0.0], [np.nan, 1.0]])
    with pytest.raises(DataError):
        column_stats(d, 0)


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
# large, tiny, non-integer and infinite values; -0.0 reloads as 0.0, which
# datasets_equal accepts
_NUMBER = st.floats(allow_nan=False)


@st.composite
def _schemas(draw):
    n_cols = draw(st.integers(2, 5))
    names = draw(st.lists(_TEXT, min_size=n_cols, max_size=n_cols, unique=True))
    label = draw(st.integers(0, n_cols - 1))
    cols = []
    for j, name in enumerate(names):
        kind = draw(st.sampled_from(COLUMN_KINDS))
        cats = ()
        if kind == KIND_CATEGORICAL:
            cats = tuple(sorted(draw(st.sets(_TEXT.filter(lambda t: t not in MISSING_TOKENS),
                                             min_size=1, max_size=4))))
        cols.append(ColumnSchema(name, kind, cats, j == label))
    return tuple(cols)


@st.composite
def _tables(draw):
    """A mixed-kind table with missing cells."""
    schema = draw(_schemas())
    n = draw(st.integers(0, 6))
    columns = []
    for col in schema:
        if col.kind == KIND_CATEGORICAL:
            observed = st.integers(0, len(col.categories) - 1).map(float)
        else:
            observed = _NUMBER
        cell = st.one_of(st.just(np.nan), observed)
        columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
    return Dataset(schema, np.array(columns, dtype=float).T.reshape(n, len(schema)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=_tables())
def test_csv_roundtrip_preserves_values_and_schema(tmp_path, d):
    path = tmp_path / "data.csv"
    write_csv(d, str(path))
    back = load_csv(str(path), schema=d.schema)
    assert datasets_equal(d, back)


def test_csv_inference_kinds_and_label(tmp_path):
    path = tmp_path / "mix.csv"
    path.write_text(
        "height,color,grade\n"
        "1.5,red,2\n"
        "2.5,blue,0\n"
        ",red,1\n"
        "3.5,green,2\n"
    )
    d = load_csv(str(path))
    assert d.schema[0].kind == KIND_CONTINUOUS
    assert d.schema[1].kind == KIND_CATEGORICAL
    # categories are sorted, codes follow that order
    assert d.schema[1].categories == ("blue", "green", "red")
    assert d.values[0, 1] == 2.0  # red
    assert d.schema[2].kind == KIND_DISCRETE
    assert d.schema[2].is_label and not d.schema[0].is_label
    assert np.isnan(d.values[2, 0])


# Cell text for inference: integers (70 distinct, so that a column can
# cross the 64-value discrete limit), decimals, NaN and infinity spellings,
# missing tokens and words. Each column draws from a few of these sources.
_TOKEN_SOURCES = (
    st.integers(-10, 59).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "1e400"]),
    st.sampled_from(list(MISSING_TOKENS)),
    st.sampled_from(["a", "b", "red", "x1"]),
)


@st.composite
def _token_tables(draw):
    """(header, body) of 1-4 columns and 1-80 rows of cell text."""
    n_rows, n_cols = draw(st.integers(1, 80)), draw(st.integers(1, 4))
    columns = []
    for _ in range(n_cols):
        sources = draw(st.sets(st.sampled_from(_TOKEN_SOURCES), min_size=1, max_size=3))
        columns.append(draw(st.lists(st.one_of(*sources), min_size=n_rows, max_size=n_rows)))
    return [f"c{j}" for j in range(n_cols)], [list(row) for row in zip(*columns)]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_token_tables())
@example(table=(["c0", "y"], [[str(i), str(i % 2)] for i in range(64)]))
@example(table=(["c0", "y"], [[str(i), str(i % 2)] for i in range(65)]))
def test_inferred_schema_and_values_equal_the_two_pass_reference(tmp_path, table):
    header, body = table
    path = tmp_path / "tokens.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + body)
    schema, values = csv_reference.load_table(header, body)
    d = load_csv(str(path))
    assert d.schema == schema
    assert d.values.tobytes() == values.tobytes()


def test_csv_question_mark_is_missing(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("a,y\n?,1\n2,0\n")
    d = load_csv(str(path))
    assert np.isnan(d.values[0, 0])


def test_unknown_category_under_fixed_schema_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("c,y\nred,1\npurple,0\n")
    schema = (
        ColumnSchema("c", KIND_CATEGORICAL, ("blue", "red")),
        ColumnSchema("y", KIND_DISCRETE, (), True),
    )
    with pytest.raises(DataError) as err:
        load_csv(str(path), schema=schema)
    assert "purple" in str(err.value)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(schema=_schemas())
def test_schema_sidecar_roundtrip(tmp_path, schema):
    path = tmp_path / "schema.json"
    write_schema_sidecar(schema, str(path))
    assert tuple(load_schema_sidecar(str(path))) == schema


@pytest.mark.parametrize("token", MISSING_TOKENS)
def test_a_missing_token_is_not_a_category(tmp_path, token):
    # a category that reads back as missing would turn its cells into NaN
    with pytest.raises(ConfigError, match="read as missing"):
        ColumnSchema("c", KIND_CATEGORICAL, tuple(sorted((token, "a"))))
    path = tmp_path / "schema.json"
    path.write_text(json.dumps([
        {"name": "c", "kind": KIND_CATEGORICAL, "categories": sorted([token, "a"])},
        {"name": "y", "kind": KIND_DISCRETE, "is_label": True},
    ]))
    with pytest.raises(DataError, match="read as missing"):
        load_schema_sidecar(str(path))


def test_split_sizes_and_disjointness():
    d = build_dataset([[float(i), float(i % 2)] for i in range(10)])
    tr, te = split(d, 0.8, seed=5)
    assert tr.n_rows == 8 and te.n_rows == 2
    seen = np.concatenate([tr.values[:, 0], te.values[:, 0]])
    assert sorted(seen.tolist()) == [float(i) for i in range(10)]


def test_split_rounds_half_up():
    d = build_dataset([[float(i), 0.0 if i else 1.0] for i in range(5)])
    tr, te = split(d, 0.5, seed=0)
    assert tr.n_rows == 3 and te.n_rows == 2


def test_split_is_deterministic_and_seed_sensitive():
    d = build_dataset([[float(i), float(i % 2)] for i in range(30)])
    a1, _ = split(d, 0.7, seed=1)
    a2, _ = split(d, 0.7, seed=1)
    b1, _ = split(d, 0.7, seed=2)
    assert datasets_equal(a1, a2)
    assert not datasets_equal(a1, b1)


def test_split_rejects_degenerate_fraction():
    d = build_dataset([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ConfigError):
        split(d, 1.0, seed=0)
    with pytest.raises(ConfigError):
        split(d, 0.0, seed=0)


def test_sample_rows_deterministic_and_bounded():
    d = build_dataset([[float(i), float(i % 2)] for i in range(20)])
    s1 = sample_rows(d, 6, seed=3)
    s2 = sample_rows(d, 6, seed=3)
    assert datasets_equal(s1, s2)
    assert s1.n_rows == 6
    with pytest.raises(DataError):
        sample_rows(d, 21, seed=3)


def test_synthetic_shape_and_schema():
    spec = SyntheticSpec(rows=200, features=5, classes=3)
    d = make_synthetic(spec, seed=11)
    assert d.n_rows == 200 and d.n_cols == 6
    assert d.schema[-1].is_label
    labels = d.labels()
    present = np.unique(labels[~np.isnan(labels)])
    assert present.tolist() == [0.0, 1.0, 2.0]


def test_synthetic_is_deterministic():
    spec = SyntheticSpec(rows=120, features=4)
    assert datasets_equal(make_synthetic(spec, 9), make_synthetic(spec, 9))
    assert not datasets_equal(make_synthetic(spec, 9), make_synthetic(spec, 10))


def test_synthetic_duplicate_fraction_is_respected():
    spec = SyntheticSpec(
        rows=400, features=4, duplicate_fraction=0.1,
        outlier_fraction=0.0, missing_fraction=0.0,
    )
    d = make_synthetic(spec, seed=2)
    keys = {d.values[i].tobytes() for i in range(d.n_rows)}
    assert d.n_rows - len(keys) == 40


def test_synthetic_missing_fraction_is_respected():
    spec = SyntheticSpec(
        rows=400, features=4, duplicate_fraction=0.0,
        outlier_fraction=0.0, missing_fraction=0.05,
    )
    d = make_synthetic(spec, seed=2)
    assert int(np.isnan(d.values).sum()) == 20


def test_synthetic_imbalance_ratio():
    spec = SyntheticSpec(
        rows=1000, features=3, classes=2, imbalance=4.0,
        duplicate_fraction=0.0, outlier_fraction=0.0, missing_fraction=0.0,
    )
    d = make_synthetic(spec, seed=4)
    counts = np.bincount(d.labels().astype(int))
    assert counts[0] == 800 and counts[1] == 200


def test_synthetic_zero_separation_carries_no_signal():
    spec = SyntheticSpec(
        rows=600, features=4, classes=2, separation=0.0, imbalance=1.0,
        duplicate_fraction=0.0, outlier_fraction=0.0, missing_fraction=0.0,
    )
    d = make_synthetic(spec, seed=8)
    X = d.feature_matrix()
    y = d.labels()
    mean_gap = np.abs(X[y == 0].mean(axis=0) - X[y == 1].mean(axis=0))
    assert mean_gap.max() < 0.25  # ~N(0, 1/sqrt(300)) per coordinate
