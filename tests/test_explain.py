import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ConstantModel, LinearProbModel, build_dataset
from ppverify import explain
from ppverify.errors import ConfigError, DataError
from ppverify.explain import (
    EXACT,
    LimeConfig,
    ShapConfig,
    exact_shapley,
    lime_explain,
    shap_explain,
)
from ppverify.models import TrainConfig, train
from ppverify.tabular import SyntheticSpec, make_synthetic


def test_lime_recovers_linear_coefficients(rng):
    # f(x) = clip(0.2 + 0.1 x1 - 0.05 x2); in the unclipped region the
    # surrogate must recover the true slopes
    model = LinearProbModel([0.1, -0.05], intercept=0.2)
    background = rng.normal(0.0, 1.0, size=(400, 2))
    cfg = LimeConfig(num_samples=4000, ridge_strength=1e-6, seed=1, explained_class=1)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=2)
        expl = lime_explain(model, x, cfg, background)
        assert abs(expl.attributions[0] - 0.1) < 1e-2
        assert abs(expl.attributions[1] + 0.05) < 1e-2


def test_lime_explains_predicted_class_by_default(rng):
    model = LinearProbModel([0.3, 0.0], intercept=0.6)
    background = rng.normal(size=(100, 2))
    x = np.array([0.5, 0.0])  # p1 = 0.75, so class 1 is predicted
    expl = lime_explain(model, x, LimeConfig(seed=0), background)
    assert expl.explained_class == 1
    forced = lime_explain(model, x, LimeConfig(seed=0, explained_class=0), background)
    assert forced.explained_class == 0
    # class-0 probability is 1 minus class-1: slopes negate
    assert forced.attributions[0] == pytest.approx(-expl.attributions[0], abs=5e-3)


def test_lime_constant_model_gives_zero_attributions(rng):
    model = ConstantModel(prob=0.7, n_features=3)
    background = rng.normal(size=(50, 3))
    expl = lime_explain(model, np.zeros(3), LimeConfig(seed=2), background)
    assert np.allclose(expl.attributions, 0.0, atol=1e-9)
    assert expl.intercept_or_base == pytest.approx(0.7, abs=1e-9)


def test_lime_is_deterministic(rng):
    model = LinearProbModel([0.2, -0.1], intercept=0.4)
    background = rng.normal(size=(60, 2))
    x = np.array([0.1, 0.2])
    a = lime_explain(model, x, LimeConfig(seed=9), background)
    b = lime_explain(model, x, LimeConfig(seed=9), background)
    c = lime_explain(model, x, LimeConfig(seed=10), background)
    assert np.array_equal(a.attributions, b.attributions)
    assert not np.array_equal(a.attributions, c.attributions)


def test_lime_num_samples_floor():
    model = LinearProbModel([0.1, 0.1, 0.1])
    with pytest.raises(ConfigError):
        lime_explain(model, np.zeros(3), LimeConfig(num_samples=4), np.zeros((5, 3)))


def test_lime_zero_spread_background_needs_ridge():
    model = LinearProbModel([0.1, 0.1])
    background = np.zeros((10, 2))
    with pytest.raises(ConfigError):
        lime_explain(model, np.zeros(2), LimeConfig(ridge_strength=0.0), background)


def test_lime_feature_count_mismatch():
    model = LinearProbModel([0.1, 0.1])
    with pytest.raises(DataError):
        lime_explain(model, np.zeros(2), LimeConfig(), np.zeros((5, 3)))


def test_shap_additivity_on_linear_model(rng):
    model = LinearProbModel([0.05, -0.02, 0.04, 0.01], intercept=0.5)
    background = rng.normal(size=(40, 4))
    x = rng.normal(size=4)
    cfg = ShapConfig(coalition_budget=EXACT, seed=0, explained_class=1)
    expl = shap_explain(model, x, cfg, background)
    fx = model.predict_proba(x[None, :])[0, 1]
    f0 = model.predict_proba(background)[:, 1].mean()
    assert abs(expl.attributions.sum() - (fx - f0)) < 1e-10
    assert expl.intercept_or_base == pytest.approx(f0)


def test_shap_linear_closed_form(rng):
    # exact Shapley of a linear game: phi_i = w_i (x_i - background mean_i)
    w = np.array([0.04, -0.03, 0.02])
    model = LinearProbModel(w, intercept=0.5)
    background = rng.normal(0.0, 0.5, size=(80, 3))
    x = np.array([0.3, -0.2, 0.6])
    cfg = ShapConfig(coalition_budget=EXACT, explained_class=1)
    expl = shap_explain(model, x, cfg, background)
    expect = w * (x - background.mean(axis=0))
    assert np.allclose(expl.attributions, expect, atol=1e-8)


def test_shap_exact_matches_oracle_on_nonlinear_model(rng):
    spec = SyntheticSpec(
        rows=300, features=5, classes=2, separation=2.0, imbalance=1.0,
        duplicate_fraction=0.0, outlier_fraction=0.0, missing_fraction=0.0,
    )
    d = make_synthetic(spec, 3)
    model = train(d, TrainConfig(architecture="rforest", seed=1, n_trees=10, max_depth=4))
    background = d.feature_matrix()[:25]
    for i in range(5):
        x = d.feature_matrix()[40 + i]
        got = shap_explain(model, x, ShapConfig(coalition_budget=EXACT), background)
        want = exact_shapley(model, x, background)
        assert np.allclose(got.attributions, want, atol=1e-6)


def test_shap_sampling_approaches_exact(rng):
    model = LinearProbModel([0.05, -0.03, 0.02, 0.04, -0.01], intercept=0.5)
    background = rng.normal(size=(30, 5))
    x = rng.normal(size=5)
    exact = shap_explain(
        model, x, ShapConfig(coalition_budget=EXACT, explained_class=1), background
    )
    sampled = shap_explain(
        model, x, ShapConfig(coalition_budget=4000, seed=7, explained_class=1), background
    )
    assert np.allclose(sampled.attributions, exact.attributions, atol=2e-2)
    # additivity holds under sampling by construction
    fx = model.predict_proba(x[None, :])[0, 1]
    f0 = model.predict_proba(background)[:, 1].mean()
    assert abs(sampled.attributions.sum() - (fx - f0)) < 1e-10


def test_shap_budget_covering_enumeration_is_exact(rng):
    model = LinearProbModel([0.1, -0.1, 0.05], intercept=0.4)
    background = rng.normal(size=(20, 3))
    x = rng.normal(size=3)
    a = shap_explain(model, x, ShapConfig(coalition_budget=EXACT), background)
    # 2^3 - 2 = 6 coalitions; a budget of 100 covers them all
    b = shap_explain(model, x, ShapConfig(coalition_budget=100, seed=1), background)
    assert np.array_equal(a.attributions, b.attributions)


def test_shap_single_feature_short_circuit(rng):
    model = LinearProbModel([0.2], intercept=0.3)
    background = rng.normal(size=(15, 1))
    x = np.array([0.5])
    expl = shap_explain(
        model, x, ShapConfig(coalition_budget=EXACT, explained_class=1), background
    )
    fx = model.predict_proba(x[None, :])[0, 1]
    f0 = model.predict_proba(background)[:, 1].mean()
    assert expl.attributions[0] == pytest.approx(fx - f0)


def test_shap_budget_validation(rng):
    model = LinearProbModel([0.1] * 4)
    background = rng.normal(size=(10, 4))
    with pytest.raises(ConfigError):
        shap_explain(model, np.zeros(4), ShapConfig(coalition_budget=3), background)
    with pytest.raises(ConfigError):
        shap_explain(model, np.zeros(4), ShapConfig(coalition_budget="lots"), background)
    with pytest.raises(ConfigError):
        shap_explain(model, np.zeros(4), ShapConfig(), None)


def test_shap_exact_feature_cap(rng):
    model = LinearProbModel([0.01] * 17)
    background = rng.normal(size=(5, 17))
    with pytest.raises(ConfigError):
        shap_explain(model, np.zeros(17), ShapConfig(coalition_budget=EXACT), background)


def test_exact_shapley_feature_cap(rng):
    model = LinearProbModel([0.01] * 11)
    with pytest.raises(ConfigError):
        exact_shapley(model, np.zeros(11), rng.normal(size=(5, 11)))


def test_exact_shapley_constant_model_is_zero(rng):
    model = ConstantModel(prob=0.4, n_features=4)
    phi = exact_shapley(model, np.zeros(4), rng.normal(size=(20, 4)))
    assert np.allclose(phi, 0.0, atol=1e-12)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    arch=st.sampled_from(["logreg", "dtree", "rforest"]),
    n=st.integers(6, 40),
    d=st.integers(1, 6),
    k=st.integers(2, 3),
    extra_budget=st.one_of(st.none(), st.integers(0, 60)),  # None: EXACT
    seed=st.integers(0, 2**16),
)
def test_shap_additivity_on_random_models(arch, n, d, k, extra_budget, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 10.0])
    y = rng.integers(0, k, size=n)
    y[:k] = np.arange(k)
    cfg = TrainConfig(architecture=arch, seed=seed, iterations=30, n_trees=4, min_leaf=1)
    m = train(build_dataset(np.column_stack([X, y])), cfg)
    bg, x = X[rng.permutation(n)[: rng.integers(1, 8)]], rng.normal(size=d) * 2.0
    budget = EXACT if extra_budget is None else d + 2 + extra_budget
    e = shap_explain(m, x, ShapConfig(coalition_budget=budget, seed=seed), bg)
    fx = m.predict_proba(x[None, :])[0, e.explained_class]
    f0 = m.predict_proba(bg)[:, e.explained_class].mean()
    assert e.explained_class == m.predict(x)
    assert abs(e.attributions.sum() - (fx - f0)) <= 1e-9


@pytest.mark.parametrize("M", [64, 100])
@pytest.mark.parametrize("arch", ["logreg", "rforest"])
def test_sampled_shap_explains_64_or_more_features(M, arch):
    # a coalition of 64 or more features does not fit an int64 bit mask
    rng = np.random.default_rng(M)
    X = rng.normal(size=(120, M))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    m = train(build_dataset(np.column_stack([X, y])),
              TrainConfig(architecture=arch, seed=1, iterations=50, n_trees=10))
    bg, x = X[:5], X[50]
    e = shap_explain(m, x, ShapConfig(coalition_budget=M + 20, seed=2), bg)
    fx = m.predict_proba(x[None, :])[0, e.explained_class]
    f0 = m.predict_proba(bg)[:, e.explained_class].mean()
    assert abs(e.attributions.sum() - (fx - f0)) <= 1e-9
    masks, counts = explain._draw(explain._draw_key(ShapConfig(M + 20, seed=2), M))
    sizes = masks.sum(axis=1)
    assert counts.sum() == M + 20 and sizes.min() >= 1 and sizes.max() <= M - 1
    assert np.unique(masks, axis=0).shape == masks.shape  # each coalition once


def test_sampled_coalitions_come_in_the_order_of_their_bit_integers():
    # the order of the rows enters the least-squares solve, so it is pinned
    for M in (12, 40, 63):
        masks, _ = explain._draw(explain._draw_key(ShapConfig(M + 200, seed=M), M))
        ints = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in masks]
        assert ints == sorted(set(ints))
