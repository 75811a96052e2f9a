import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import build_dataset
from ppverify.errors import ConfigError, DataError
from ppverify.models import (
    TrainConfig,
    load_model,
    logreg_loss_grad,
    model_from_payload,
    predict_batch,
    row_sum,
    save_model,
    schema_fingerprint,
    softmax,
    train,
)
from ppverify.tabular import SyntheticSpec, make_synthetic


def separable_data(seed=0, rows=500, features=4):
    spec = SyntheticSpec(
        rows=rows, features=features, classes=2, separation=5.0, imbalance=1.0,
        duplicate_fraction=0.0, outlier_fraction=0.0, missing_fraction=0.0,
    )
    return make_synthetic(spec, seed)


def accuracy(model, d):
    preds = predict_batch(model, d)
    y = d.labels()
    values = np.asarray(model.class_values)
    return float(np.mean([values[c] == t for (c, _), t in zip(preds, y)]))


@pytest.mark.parametrize("arch", ["logreg", "dtree", "rforest"])
def test_separable_training_accuracy(arch):
    d = separable_data()
    cfg = TrainConfig(architecture=arch, seed=1, n_trees=20)
    model = train(d, cfg)
    assert accuracy(model, d) >= 0.98


@pytest.mark.parametrize("arch", ["logreg", "dtree", "rforest"])
def test_training_is_deterministic(arch):
    d = separable_data(seed=3, rows=200)
    cfg = TrainConfig(architecture=arch, seed=5, iterations=100, n_trees=10)
    a = train(d, cfg)
    b = train(d, cfg)
    X = d.feature_matrix()
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


def test_logreg_gradient_matches_finite_differences(rng):
    # central differences on random small problems
    for _ in range(5):
        n, d, k = 12, 3, 3
        X1 = np.column_stack([rng.normal(size=(n, d)), np.ones(n)])
        Y = np.eye(k)[rng.integers(0, k, size=n)]
        params = rng.normal(scale=0.5, size=(d + 1, k))
        _, grad = logreg_loss_grad(params, X1, Y, l2=0.01)
        eps = 1e-6
        num = np.zeros_like(params)
        for i in range(d + 1):
            for j in range(k):
                up = params.copy(); up[i, j] += eps
                dn = params.copy(); dn[i, j] -= eps
                lu, _ = logreg_loss_grad(up, X1, Y, l2=0.01)
                ld, _ = logreg_loss_grad(dn, X1, Y, l2=0.01)
                num[i, j] = (lu - ld) / (2 * eps)
        rel = np.abs(grad - num) / np.maximum(1.0, np.abs(num))
        assert rel.max() < 1e-5


def test_logreg_loss_decreases_under_training(rng):
    n, d, k = 60, 4, 2
    X1 = np.column_stack([rng.normal(size=(n, d)), np.ones(n)])
    Y = np.eye(k)[rng.integers(0, k, size=n)]
    params = np.zeros((d + 1, k))
    losses = []
    for _ in range(40):
        loss, grad = logreg_loss_grad(params, X1, Y, l2=1e-4)
        losses.append(loss)
        params -= 0.5 * grad
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_logreg_probabilities_are_normalized():
    d = separable_data(seed=9, rows=150)
    model = train(d, TrainConfig(architecture="logreg", seed=0, iterations=100))
    P = model.predict_proba(d.feature_matrix())
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
    assert (P >= 0).all()


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 300), rows=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
@example(k=7, rows=5, seed=0)
@example(k=8, rows=5, seed=1)
@example(k=127, rows=5, seed=2)
@example(k=128, rows=5, seed=3)
@example(k=129, rows=5, seed=4)
@example(k=136, rows=5, seed=5)
@example(k=257, rows=5, seed=6)
def test_row_sum_equals_numpy_sum_bit_for_bit(k, rows, seed):
    # numpy's pairwise order: left to right under 8 columns, 8 running sums
    # up to 128, and above that two halves cut at a multiple of 8
    rng = np.random.default_rng(seed)
    A = rng.choice([-1.0, 1.0], (rows, k)) * 10.0 ** rng.uniform(-3, 6, (rows, k))
    A[:, rng.random(k) < 0.2] = 0.0
    assert np.array_equal(row_sum(list(A.T)), np.sum(A, axis=1))


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, 20), rows=st.integers(1, 40), scale=st.sampled_from([1.0, 30.0, 700.0]),
       seed=st.integers(0, 2**32 - 1))
def test_softmax_equals_the_three_line_reference_bit_for_bit(k, rows, scale, seed):
    Z = np.random.default_rng(seed).uniform(-scale, scale, (rows, k))
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    want = E / np.sum(E, axis=1, keepdims=True)
    assert np.array_equal(softmax(Z.copy()), want)


def test_dtree_respects_depth_and_leaf_bounds():
    d = separable_data(seed=4, rows=300)
    model = train(d, TrainConfig(architecture="dtree", seed=0, max_depth=1, min_leaf=50))
    # a depth-1 tree realizes at most two distinct probability rows
    P = model.predict_proba(d.feature_matrix())
    assert len(np.unique(P.round(12), axis=0)) <= 2


def test_dtree_pure_node_stops_splitting():
    d = build_dataset([[0.0, 0.0], [0.1, 0.0], [5.0, 1.0], [5.1, 1.0]])
    model = train(d, TrainConfig(architecture="dtree", seed=0, max_depth=6, min_leaf=1))
    P = model.predict_proba(d.feature_matrix())
    assert np.allclose(P[:2, 0], 1.0)
    assert np.allclose(P[2:, 1], 1.0)


def test_single_tree_forest_with_full_features_and_no_bootstrap_matches_dtree():
    d = separable_data(seed=6, rows=200)
    t = train(d, TrainConfig(architecture="dtree", seed=0, max_depth=4, min_leaf=5))
    f = train(
        d,
        TrainConfig(
            architecture="rforest", seed=0, n_trees=1, max_depth=4, min_leaf=5,
            n_features=d.n_cols - 1, bootstrap=False,
        ),
    )
    X = d.feature_matrix()
    assert np.allclose(t.predict_proba(X), f.predict_proba(X))


def test_forest_votes_average_tree_probabilities():
    d = separable_data(seed=2, rows=200)
    model = train(d, TrainConfig(architecture="rforest", seed=1, n_trees=8, max_depth=3))
    P = model.predict_proba(d.feature_matrix())
    assert P.shape == (200, 2)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)


def test_predict_ties_resolve_to_lowest_class():
    # two identical rows with opposite labels force a 50/50 leaf
    d = build_dataset([[1.0, 0.0], [1.0, 1.0]])
    model = train(d, TrainConfig(architecture="dtree", seed=0, min_leaf=1))
    assert model.predict(np.array([1.0])) == 0


def test_class_values_are_sorted_and_preserved():
    d = build_dataset([[0.0, 7.0], [1.0, 3.0], [2.0, 7.0], [3.0, 3.0]])
    model = train(d, TrainConfig(architecture="logreg", seed=0, iterations=50))
    assert tuple(model.class_values) == (3.0, 7.0)


def test_schema_fingerprint_depends_on_names_only():
    assert schema_fingerprint(("a", "b")) == schema_fingerprint(("a", "b"))
    assert schema_fingerprint(("a", "b")) != schema_fingerprint(("a", "c"))


def test_predict_batch_rejects_schema_mismatch():
    d = separable_data(seed=1, rows=60)
    model = train(d, TrainConfig(architecture="logreg", seed=0, iterations=50))
    other = build_dataset(
        [[0.0, 0.0, 0.0, 0.0, 1.0]], names=["a", "b", "c", "d", "label"]
    )
    with pytest.raises(DataError):
        predict_batch(model, other)


def test_predict_batch_rejects_missing_cells():
    d = separable_data(seed=1, rows=60)
    model = train(d, TrainConfig(architecture="logreg", seed=0, iterations=50))
    vals = np.array(d.values[:3], copy=True)
    vals[0, 0] = np.nan
    broken = d.take([0, 1, 2]).with_values(vals)
    with pytest.raises(DataError):
        predict_batch(model, broken)


def test_training_rejects_single_class():
    d = build_dataset([[1.0, 1.0], [2.0, 1.0]])
    with pytest.raises(DataError):
        train(d, TrainConfig(architecture="logreg", seed=0))


def test_training_rejects_missing_features():
    d = build_dataset([[np.nan, 0.0], [2.0, 1.0]])
    with pytest.raises(DataError):
        train(d, TrainConfig(architecture="logreg", seed=0))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        train(separable_data(rows=50), TrainConfig(architecture="svm", seed=0))
    with pytest.raises(ConfigError):
        TrainConfig(architecture="logreg", seed=0, iterations=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(architecture="rforest", seed=0, n_trees=0).validate()


@pytest.mark.parametrize("field", ["learning_rate", "l2"])
def test_train_config_rejects_nan(field):
    with pytest.raises(ConfigError):
        TrainConfig(**{field: float("nan")}).validate()


@pytest.mark.parametrize("arch", ["logreg", "dtree", "rforest"])
def test_save_load_roundtrip(tmp_path, arch):
    d = separable_data(seed=8, rows=120)
    model = train(d, TrainConfig(architecture=arch, seed=2, iterations=80, n_trees=5))
    path = tmp_path / f"{arch}.json"
    save_model(model, str(path))
    back = load_model(str(path))
    X = d.feature_matrix()
    assert np.allclose(model.predict_proba(X), back.predict_proba(X))
    assert back.feature_names == model.feature_names


def test_load_model_rejects_foreign_json(tmp_path):
    path = tmp_path / "alien.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(DataError):
        load_model(str(path))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    arch=st.sampled_from(["logreg", "dtree", "rforest"]),
    n=st.integers(4, 40),
    d=st.integers(1, 5),
    k=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)
def test_payload_round_trips_predict_identical_probabilities(arch, n, d, k, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 1e3])
    y = rng.integers(0, k, size=n)
    y[:k] = np.arange(k)
    cfg = TrainConfig(architecture=arch, seed=seed, iterations=20, n_trees=3, min_leaf=1)
    model = train(build_dataset(np.column_stack([X, 1.5 * y])), cfg)  # class values 0, 1.5, ...
    Q = np.vstack([X, rng.normal(size=(10, d)) * 3.0 * np.abs(X).max()])
    payload = model.to_payload()
    for back in (model_from_payload(payload), model_from_payload(json.loads(json.dumps(payload)))):
        assert back.architecture == model.architecture
        assert np.array_equal(back.class_values, model.class_values)
        assert np.array_equal(back.predict_proba(Q), model.predict_proba(Q))
