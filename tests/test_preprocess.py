import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_dataset
from ppverify.cli import main
from ppverify.errors import ConfigError, DataError
from ppverify.preprocess import (
    ALL_STEPS,
    Pipeline,
    PipelineLabel,
    apply_pipeline,
    drop_duplicates,
    drop_missing,
    drop_outliers,
    encode_nonnumeric,
    enumerate_pipelines,
    resample_oversample,
    standardize,
)
from ppverify.tabular import (
    COLUMN_KINDS,
    ColumnSchema,
    Dataset,
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_DISCRETE,
    datasets_equal,
    write_csv,
)


def test_drop_missing_removes_rows_with_any_nan():
    d = build_dataset([[1.0, 0.0], [np.nan, 1.0], [3.0, 0.0]])
    out = drop_missing(d)
    assert out.n_rows == 2
    assert not np.isnan(out.values).any()


def test_encode_nonnumeric_recodes_kind_only():
    schema = (
        ColumnSchema("c", KIND_CATEGORICAL, ("x", "y")),
        ColumnSchema("label", KIND_DISCRETE, (), True),
    )
    d = Dataset(schema, np.array([[0.0, 0.0], [1.0, 1.0]]))
    out = encode_nonnumeric(d)
    assert out.schema[0].kind == KIND_DISCRETE
    assert np.array_equal(out.values, d.values)
    again = encode_nonnumeric(out)  # idempotent
    assert again.schema == out.schema


def test_drop_duplicates_keeps_first_occurrence():
    d = build_dataset([[1.0, 0.0], [2.0, 1.0], [1.0, 0.0], [2.0, 0.0]])
    out = drop_duplicates(d)
    assert out.n_rows == 3
    assert out.values[0].tolist() == [1.0, 0.0]
    # same features, different label: not a duplicate
    assert out.values[2].tolist() == [2.0, 0.0]


def test_drop_outliers_three_sigma_example():
    # 99 zeros and one 100: mean 1, population sigma ~ 9.95, so only the
    # 100-row crosses the 3-sigma line
    vals = [[0.0, 0.0]] * 99 + [[100.0, 1.0]]
    d = build_dataset(vals)
    out = drop_outliers(d)
    assert out.n_rows == 99
    assert (out.values[:, 0] == 0.0).all()


def test_drop_outliers_constant_column_removes_nothing():
    d = build_dataset([[5.0, 0.0], [5.0, 1.0], [5.0, 0.0]])
    assert drop_outliers(d).n_rows == 3


def test_drop_outliers_ignores_label_column():
    # labels are not outlier-checked even when numerically extreme
    vals = [[0.0, 0.0]] * 99 + [[0.0, 50.0]]
    d = build_dataset(vals)
    assert drop_outliers(d).n_rows == 100


def test_scaler_standardizes_with_population_sigma():
    d = build_dataset([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    out, no_test = standardize(d)
    expect = np.array([-1.224744871391589, 0.0, 1.224744871391589])
    assert np.allclose(out.values[:, 0], expect, atol=1e-12)
    assert out.schema[0].kind == KIND_CONTINUOUS
    assert no_test is None


def test_scaler_zero_sigma_maps_to_zero():
    d = build_dataset([[4.0, 0.0], [4.0, 1.0]])
    out = standardize(d)[0]
    assert (out.values[:, 0] == 0.0).all()


def test_scaler_rejects_mismatched_schema():
    d = build_dataset([[1.0, 0.0], [2.0, 1.0]])
    other = build_dataset([[1.0, 0.0], [2.0, 1.0]], names=["zz", "label"])
    with pytest.raises(DataError):
        standardize(d, other)


def fit_then_apply(train, test):
    """The two-step rule `standardize` replaced: fit each non-label numeric
    column's mean and population stddev on train, then apply them to each set."""
    fitted = []
    for j, col in enumerate(train.schema):
        if col.is_label or col.kind == KIND_CATEGORICAL:
            continue
        column = train.column(j)
        observed = column[~np.isnan(column)]
        if observed.size == 0:
            fitted.append((j, col.name, 0.0, 0.0))
        else:
            fitted.append((j, col.name, float(observed.mean()), float(observed.std())))

    def apply(d):
        names = tuple(d.schema[j].name if j < d.n_cols else None for j, _, _, _ in fitted)
        if names != tuple(name for _, name, _, _ in fitted):
            raise DataError("scaler was fitted on different columns")
        out = np.array(d.values, copy=True)
        schema = list(d.schema)
        for j, _, mean, sd in fitted:
            column = out[:, j]
            observed = ~np.isnan(column)
            if sd == 0:
                column[observed] = 0.0
            else:
                column[observed] = (column[observed] - mean) / sd
            schema[j] = ColumnSchema(d.schema[j].name, KIND_CONTINUOUS, (), d.schema[j].is_label)
        return Dataset(tuple(schema), out)

    return apply(train), None if test is None else apply(test)


@st.composite
def scaling_tables(draw, names):
    """A table over `names` (the last one the label) whose feature columns
    draw a kind each, may be constant and may miss cells."""
    rows = draw(st.integers(1, 8))
    schema, columns = [], []
    for name in names[:-1]:
        kind = draw(st.sampled_from(COLUMN_KINDS))
        cell = st.sampled_from([0.0, 1.0, 2.0])
        if kind != KIND_CATEGORICAL:
            cell = st.one_of(cell, st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False))
        cells = st.one_of(cell, st.just(np.nan))
        if draw(st.booleans()):  # a constant column, with or without missing cells
            cells = st.sampled_from([draw(cell), np.nan] if draw(st.booleans()) else [draw(cell)])
        columns.append(draw(st.lists(cells, min_size=rows, max_size=rows)))
        categories = ("x", "y", "z") if kind == KIND_CATEGORICAL else ()
        schema.append(ColumnSchema(name, kind, categories))
    schema.append(ColumnSchema(names[-1], KIND_DISCRETE, (), True))
    columns.append(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=rows, max_size=rows)))
    return Dataset(tuple(schema), np.column_stack(columns))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_standardize_equals_fit_then_apply_bit_for_bit(data):
    names = ["f0", "f1", "f2", "label"][-data.draw(st.integers(2, 4)):]
    train = data.draw(scaling_tables(names))
    if data.draw(st.booleans()):  # rename the last feature
        names = names[:-2] + ["zz"] + names[-1:]
    test = data.draw(st.none() | scaling_tables(names))
    try:
        want = fit_then_apply(train, test)
    except DataError:
        with pytest.raises(DataError):
            standardize(train, test)
        return
    got = standardize(train, test)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.schema == w.schema and g.values.tobytes() == w.values.tobytes()


def test_cli_preprocess_rejects_a_test_set_with_a_renamed_feature(tmp_path, capsys):
    train = build_dataset([[1.0, 2.0, 0.0], [2.0, 1.0, 1.0], [3.0, 5.0, 0.0], [4.0, 3.0, 1.0]])
    test = build_dataset([[1.5, 2.0, 0.0]], names=["f0", "g1", "label"])
    write_csv(train, str(tmp_path / "train.csv"))
    write_csv(test, str(tmp_path / "test.csv"))
    capsys.readouterr()
    argv = ["preprocess", "--input", str(tmp_path / "train.csv"), "--pipeline", "15",
            "--test", str(tmp_path / "test.csv"), "--output", str(tmp_path / "out.csv"),
            "--test-output", str(tmp_path / "test_out.csv")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("data error: test columns do not match")
    assert not (tmp_path / "out.csv").exists()


def test_cli_preprocess_with_a_test_set_but_no_test_output_writes_nothing(tmp_path, capsys):
    train = build_dataset([[1.0, 2.0, 0.0], [2.0, 1.0, 1.0], [3.0, 5.0, 0.0], [4.0, 3.0, 1.0]])
    write_csv(train, str(tmp_path / "train.csv"))
    write_csv(train, str(tmp_path / "test.csv"))
    capsys.readouterr()
    argv = ["preprocess", "--input", str(tmp_path / "train.csv"), "--pipeline", "15",
            "--test", str(tmp_path / "test.csv"), "--output", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == (
        "config error: --test-output is required when --test is given")
    assert not (tmp_path / "out.csv").exists()


def test_oversample_balances_to_majority_count():
    vals = [[float(i), 0.0] for i in range(8)] + [[9.0, 1.0], [10.0, 1.0]]
    d = build_dataset(vals)
    out = resample_oversample(d, seed=3)
    counts = np.bincount(out.labels().astype(int))
    assert counts.tolist() == [8, 8]
    # originals all retained, extras appended at the end
    assert np.array_equal(out.values[: d.n_rows], d.values)
    extras = out.values[d.n_rows :]
    assert set(extras[:, 1]) == {1.0}
    assert set(extras[:, 0]) <= {9.0, 10.0}


def test_oversample_is_deterministic():
    vals = [[float(i), float(i % 3 == 0)] for i in range(12)]
    d = build_dataset(vals)
    a = resample_oversample(d, seed=7)
    b = resample_oversample(d, seed=7)
    assert np.array_equal(a.values, b.values)


def test_oversample_rejects_missing_labels():
    d = build_dataset([[1.0, np.nan], [2.0, 1.0], [2.5, 0.0]])
    with pytest.raises(DataError):
        resample_oversample(d, seed=0)


def test_pipeline_steps_must_increase():
    with pytest.raises(ConfigError):
        Pipeline((2, 1))
    with pytest.raises(ConfigError):
        Pipeline((1, 1))
    with pytest.raises(ConfigError):
        Pipeline((0, 1))


def test_pipeline_bitmask_roundtrip():
    for steps in [(), (1,), (2, 4), (1, 2, 3, 4)]:
        p = Pipeline(steps)
        assert Pipeline.from_bitmask(p.bitmask).steps == steps
    assert Pipeline(ALL_STEPS).bitmask == 0b1111
    assert Pipeline((1, 3)).omitted_steps == (2, 4)


def test_enumeration_paper_compat_has_15_classes():
    table = enumerate_pipelines("paper-compat")
    assert len(table) == 15
    pipe0, label0 = table[0]
    assert label0 == PipelineLabel(0, True, ())
    assert pipe0.steps == ALL_STEPS
    ids = [label.class_id for _, label in table]
    assert ids == list(range(15))
    assert all(not label.is_proper for _, label in table[1:])
    # single omissions come first, later steps first within a tier
    assert [p.omitted_steps for p, _ in table[1:5]] == [(4,), (3,), (2,), (1,)]
    omit_counts = [len(p.omitted_steps) for p, _ in table[1:]]
    assert omit_counts == sorted(omit_counts)


def test_enumeration_full_has_16_classes():
    table = enumerate_pipelines("full")
    assert len(table) == 16
    assert table[-1][0].steps == ()
    assert table[-1][0].omitted_steps == (1, 2, 3, 4)


def test_enumeration_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        enumerate_pipelines("everything")


def test_apply_pipeline_proper_transforms_train_and_test():
    rng = np.random.default_rng(5)
    vals = np.column_stack([rng.normal(2.0, 1.0, 40), (np.arange(40) % 2).astype(float)])
    vals[3] = vals[0]  # duplicate
    train = build_dataset(vals)
    test = build_dataset(np.column_stack([rng.normal(2.0, 1.0, 10), np.ones(10)]))
    tr, te = apply_pipeline(train, test, Pipeline(ALL_STEPS), seed=1)
    # test is standardized by the deduplicated, outlier-filtered train set
    unscaled, raw_te = apply_pipeline(train, test, Pipeline((1, 2)), seed=1)
    assert datasets_equal(te, standardize(unscaled, raw_te)[1])
    assert te.n_rows == 10  # never deduped or rebalanced
    assert abs(tr.feature_matrix().mean()) < 1.0
    # test is scaled with train statistics, not its own
    scaled_means = te.values[:, 0].mean()
    assert scaled_means != pytest.approx(0.0, abs=1e-6)


def test_apply_pipeline_without_standardize_has_no_scaler():
    train = build_dataset([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [4.0, 1.0]])
    tr, te = apply_pipeline(train, None, Pipeline((1, 2, 4)), seed=0)
    assert te is None
    assert set(tr.values[:, 0]) == {1.0, 2.0, 3.0, 4.0}  # unscaled


def test_apply_pipeline_runs_required_steps_on_test_too():
    train = build_dataset([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [4.0, 1.0]])
    test = build_dataset([[np.nan, 1.0], [2.0, 0.0]])
    _, te = apply_pipeline(train, test, Pipeline(()), seed=0)
    assert te.n_rows == 1  # missing row dropped by the required step


def test_apply_pipeline_empty_train_is_an_error():
    train = build_dataset([[np.nan, 0.0], [np.nan, 1.0]])
    with pytest.warns(UserWarning), pytest.raises(DataError):
        apply_pipeline(train, None, Pipeline(()), seed=0)


def test_pipeline_describe_reads_well():
    assert Pipeline(()).describe() == "none"
    text = Pipeline((1, 4)).describe()
    assert "drop-duplicates" in text and "oversample" in text
