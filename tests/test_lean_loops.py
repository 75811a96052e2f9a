"""The lean logistic regression loop, the coalition sampler, and the
query-major `build_responses` that explains a whole stage with shared draws
and LIME geometries, each against the code it replaced: results must match
bit for bit."""

from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import loop_reference as ref
from conftest import build_dataset
from ppverify import explain, models
from ppverify.errors import DataError
from ppverify.explain import (
    EXACT,
    LimeConfig,
    ShapConfig,
    _masks_from_ints,
    _sample_coalitions,
    lime_explain,
    shap_explain,
)
from ppverify.models import TrainConfig, train
from ppverify.seeding import derive_seed
from ppverify.verify import build_responses


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 60),
    d=st.integers(1, 6),
    k=st.integers(2, 10),
    scale=st.sampled_from([0.1, 1.0, 10.0]),
    learning_rate=st.sampled_from([0.01, 0.1, 0.5, 1.0]),
    l2=st.sampled_from([0.0, 1e-4, 0.1]),
    iterations=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_logreg_params_equal_the_reference_bit_for_bit(
    n, d, k, scale, learning_rate, l2, iterations, seed
):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * scale
    y_idx = rng.integers(0, k, size=n)
    cfg = TrainConfig(learning_rate=learning_rate, iterations=iterations, l2=l2)
    problem = (X, y_idx, [f"f{j}" for j in range(d)], np.arange(k, dtype=float))
    m = models._fit_logregs([problem], cfg)[0]
    got = np.vstack([m.weights, m.bias])
    want = ref.fit_logreg(X, y_idx, k, learning_rate, iterations, l2)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=60, deadline=None)
@given(M=st.integers(2, 20), budget=st.integers(1, 300), seed=st.integers(0, 2**16))
def test_coalition_sampler_draws_the_reference_masks(M, budget, seed):
    masks, counts = _sample_coalitions(M, budget, np.random.default_rng(seed))
    uniq, want_counts = np.unique(
        ref.coalition_ints(M, budget, np.random.default_rng(seed)), return_counts=True
    )
    assert np.array_equal(masks, _masks_from_ints(uniq, M))
    assert np.array_equal(counts, want_counts)


def _table(rng, n, d, missing=0):
    """n rows of d features and a 3-class label; `missing` cells of feature 2
    are blank."""
    X = rng.standard_normal((n, d))
    X[:missing, 2] = np.nan
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5)
    return build_dataset(np.column_stack([X, y]))


def _per_query_vectors(m, queries, cfg, background):
    """What build_responses returns, from one public explainer call per query."""
    explainer = lime_explain if isinstance(cfg, LimeConfig) else shap_explain
    out = []
    for q, x in enumerate(queries.feature_matrix()):
        expl = explainer(m, x, replace(cfg, seed=derive_seed(cfg.seed, "query", q)), background)
        yhat = float(expl.explained_class)
        out.append(np.concatenate([expl.attributions, [expl.intercept_or_base, yhat]]))
    return out


class BackgroundCounter:
    """Wraps a model and counts `predict_proba` calls on the background."""

    def __init__(self, model, background):
        self.model, self.bg = model, background.feature_matrix()
        self.background_calls = 0

    def predict_proba(self, X):
        if X.shape == self.bg.shape and np.array_equal(X, self.bg):
            self.background_calls += 1
        return self.model.predict_proba(X)

    def predict(self, x):
        return self.model.predict(x)


def test_build_responses_equals_per_query_explainer_calls():
    rng = np.random.default_rng(7)
    train_set, queries = _table(rng, 120, 5), _table(rng, 6, 5)
    background = _table(rng, 10, 5, missing=2)  # LIME's spread skips blank cells
    shap_background = _table(rng, 8, 5)
    other = _table(rng, 7, 5)
    configs = [
        (LimeConfig(num_samples=200, seed=11), background),
        (ShapConfig(coalition_budget=40, seed=11), shap_background),
        (ShapConfig(coalition_budget=EXACT, seed=11), shap_background),
    ]
    for arch in ("logreg", "rforest"):
        m = train(train_set, TrainConfig(architecture=arch, seed=3, iterations=50, n_trees=5))
        for cfg, bg in configs:
            # a second model explains the first 3 queries against another
            # background: its own rows, spread and geometries
            counted, short = BackgroundCounter(m, shap_background), queries.take(range(3))
            out = build_responses([counted, m], [queries, short], cfg, [bg, other])
            want = _per_query_vectors(m, queries, cfg, bg) + _per_query_vectors(m, short, cfg, other)
            assert out.shape == (6 + 3, 5 + 2)  # model by model, a row per query
            assert all(np.array_equal(a, b) for a, b in zip(out, want, strict=True)), (arch, cfg)
            if isinstance(cfg, ShapConfig):
                assert counted.background_calls == 1  # once per model, not per query


@lru_cache(maxsize=None)
def _stage():
    """A stage of three models (two architectures) with their query sets: the
    second model sees its queries shifted, as a pipeline that standardizes
    would; the raw query rows 0, 2 and 5 are the background."""
    rng = np.random.default_rng(11)
    train_set, queries = _table(rng, 120, 5), _table(rng, 9, 5)
    shifted = queries.with_values(queries.values + np.r_[0.5 * np.ones(5), 0.0])
    fitted = [
        train(train_set, TrainConfig(architecture=arch, seed=seed, iterations=50, n_trees=5))
        for arch, seed in (("logreg", 3), ("rforest", 3), ("rforest", 4))
    ]
    return fitted, [queries, shifted, queries], np.array([0, 2, 5])


def _stage_responses(cfg, stage_models, query_sets, bg_idx):
    """build_responses over a stage as the experiment calls it, split back
    into each model's response matrix."""
    backgrounds = [te.take(bg_idx) for te in query_sets]
    out = build_responses(stage_models, query_sets, cfg, backgrounds)
    return np.split(out, np.cumsum([te.n_rows for te in query_sets])[:-1])


STAGE_CONFIGS = [
    LimeConfig(num_samples=40, seed=11),
    ShapConfig(coalition_budget=20, seed=11),  # sampled: 30 proper coalitions of 5
    ShapConfig(coalition_budget=EXACT, seed=11),
]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=st.sampled_from(STAGE_CONFIGS), n_queries=st.integers(1, 9))
def test_a_stage_equals_per_query_explainer_calls(cfg, n_queries):
    fitted, query_sets, bg_idx = _stage()
    query_sets = [te.take(range(n_queries)) for te in query_sets]
    bg_idx = bg_idx[bg_idx < n_queries]
    draws = []

    def counted_draw(key):
        draws.append(key)
        return draw(key)

    draw = explain._draw
    with mock.patch.object(explain, "_draw", counted_draw):
        got = _stage_responses(cfg, fitted, query_sets, bg_idx)

    for m, te, responses in zip(fitted, query_sets, got, strict=True):
        want = _per_query_vectors(m, te, cfg, te.take(bg_idx))
        assert all(np.array_equal(row, w) for row, w in zip(responses, want, strict=True))
        assert responses.shape == (n_queries, 5 + 2)
    # each query's draws are made once for the whole stage; exact SHAP's
    # coalitions depend on the feature count alone
    exact = isinstance(cfg, ShapConfig) and cfg.coalition_budget == EXACT
    assert len(draws) == n_queries
    assert len(set(draws)) == (1 if exact else n_queries)


class FailsOnQuery:
    """A model that raises DataError when asked to explain query `row`."""

    def __init__(self, model, row, name):
        self.model, self.row, self.name = model, row, name

    def predict_proba(self, X):
        return self.model.predict_proba(X)

    def predict(self, x):
        if np.array_equal(x, self.row):
            raise DataError(f"{self.name} failed")
        return self.model.predict(x)


def test_a_stage_raises_the_first_failure_in_model_order():
    # model 0 fails on query 3, model 1 on query 0; one model at a time would
    # meet model 0's failure first
    fitted, query_sets, bg_idx = _stage()
    X = query_sets[0].feature_matrix()
    models_ = [FailsOnQuery(fitted[0], X[3], "model 0"), FailsOnQuery(fitted[2], X[0], "model 1")]
    cfg = LimeConfig(num_samples=40, seed=11)
    with pytest.raises(DataError, match="model 0"):
        _stage_responses(cfg, models_, [query_sets[0]] * 2, bg_idx)
    # and when model 0 fails first, model 1's later failure is not raised
    models_ = [FailsOnQuery(fitted[0], X[0], "model 0"), FailsOnQuery(fitted[2], X[3], "model 1")]
    with pytest.raises(DataError, match="model 0"):
        _stage_responses(cfg, models_, [query_sets[0]] * 2, bg_idx)
    # a later model whose background cannot be set up fails after model 0 too
    with pytest.raises(DataError, match="model 0"):
        build_responses(models_, [query_sets[0]] * 2, cfg,
                        [query_sets[0].take(bg_idx), np.zeros((3, 4))])


LAYOUTS = {"equal": "AAA", "distinct": "ABC", "interleaved": "ABABA"}


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(layout=st.sampled_from(sorted(LAYOUTS)), n_queries=st.integers(1, 9))
def test_a_lime_stage_builds_each_query_geometry_once_per_query_set(layout, n_queries):
    fitted, (raw, shifted, _), bg_idx = _stage()
    other = raw.with_values(raw.values + np.r_[-0.25 * np.ones(5), 0.0])
    sets = {"A": raw, "B": shifted, "C": other}
    query_sets = [sets[g].take(range(n_queries)) for g in LAYOUTS[layout]]
    stage_models = [fitted[i % 3] for i in range(len(query_sets))]
    bg_idx = bg_idx[bg_idx < n_queries]
    cfg = STAGE_CONFIGS[0]
    built = []

    def counted_geometry(probe, x, q_cfg):
        built.append((x.tobytes(), q_cfg.seed))
        return geometry(probe, x, q_cfg)

    geometry = explain._lime_geometry
    with mock.patch.object(explain, "_lime_geometry", counted_geometry):
        got = _stage_responses(cfg, stage_models, query_sets, bg_idx)

    for m, te, responses in zip(stage_models, query_sets, got, strict=True):
        want = _per_query_vectors(m, te, cfg, te.take(bg_idx))
        assert all(np.array_equal(row, w) for row, w in zip(responses, want, strict=True))
    # one geometry per (query set, query)
    assert len(built) == len(set(built)) == len(set(LAYOUTS[layout])) * n_queries


def test_a_probe_keeps_one_geometry_per_query_and_config():
    fitted, (raw, shifted, _), bg_idx = _stage()
    background, cfg = raw.take(bg_idx), STAGE_CONFIGS[0]
    probe = explain.model_probe(None, cfg, background, 5, {})
    rows = np.vstack([raw.feature_matrix()[:2], shifted.feature_matrix()[:1]])
    for x, seed in zip(rows, (1, 2, 1)):  # the first and third differ in x only
        for q_cfg in (replace(cfg, seed=seed), replace(cfg, seed=seed, kernel_width=0.5)):
            got = lime_explain(fitted[0], x, q_cfg, probe)
            want = lime_explain(fitted[0], x, q_cfg, background)
            assert np.array_equal(got.attributions, want.attributions)
            assert got.intercept_or_base == want.intercept_or_base
    assert sum(isinstance(key[0], LimeConfig) for key in probe.shared) == 6


def test_a_grouped_stage_raises_the_first_failure_in_model_order():
    # models A0, B1, A2: A0 and A2 share query set A, B1 sees B. B1 fails on
    # query 0, after A0 and A2 have explained it; A0 fails on query 1. One
    # model at a time would meet A0's failure first.
    fitted, (raw, shifted, _), bg_idx = _stage()
    A, B = raw.feature_matrix(), shifted.feature_matrix()
    models_ = [
        FailsOnQuery(fitted[0], A[1], "model A0"),
        FailsOnQuery(fitted[1], B[0], "model B1"),
        fitted[2],
    ]
    cfg = LimeConfig(num_samples=40, seed=11)
    with pytest.raises(DataError, match="model A0"):
        _stage_responses(cfg, models_, [raw, shifted, raw], bg_idx)
