"""Kernel SHAP coalition values of tree models: the tree path against
`predict_proba` of the materialised coalition rows, and which models take it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_dataset
from ppverify import explain, models
from ppverify.explain import EXACT, ShapConfig
from ppverify.models import TrainConfig, train
from ppverify.verify import build_responses


def materialised(m, x, masks, bg, cls):
    """Coalition values as Kernel SHAP computes them for any model: predict
    every row where(mask, x, bg[b]) and average class `cls` over b."""
    C, B = masks.shape[0], bg.shape[0]
    X = np.where(np.repeat(masks, B, axis=0), x, np.tile(bg, (C, 1)))
    return m.predict_proba(X)[:, cls].reshape(C, B).mean(axis=1)


@st.composite
def coalition_problems(draw):
    """A tree model on up to 70 features, a query, a background of 1 to 12
    rows with missing cells, and a draw of sampled or exact coalitions."""
    exact = draw(st.booleans())
    M = draw(st.integers(2, 8 if exact else 70))
    n, k = draw(st.integers(8, 80)), draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.integers(0, 5, size=(n, M)) * draw(st.sampled_from([0.5, 1.0, 2.5]))
    y = rng.integers(0, k, size=n)
    y[:k] = np.arange(k)  # every class occurs
    cfg = TrainConfig(
        architecture=draw(st.sampled_from(["dtree", "rforest"])),
        seed=draw(st.integers(0, 2**16)),
        max_depth=draw(st.integers(1, 8)),
        min_leaf=draw(st.integers(1, 3)),
        n_trees=draw(st.integers(1, 12)),
        n_features=draw(st.one_of(st.none(), st.integers(1, M))),
    )
    model = train(build_dataset(np.column_stack([X, y])), cfg)
    B = draw(st.integers(1, 12))
    bg = rng.integers(-1, 6, size=(B, M)) / 2.0
    bg[rng.random((B, M)) < draw(st.sampled_from([0.0, 0.2]))] = np.nan
    x = rng.integers(-1, 6, size=M) / 2.0
    budget = EXACT if exact else M + 2 + draw(st.integers(0, 60))
    masks, _ = explain._draw(explain._draw_key(ShapConfig(budget, seed=draw(st.integers(0, 99))), M))
    return model, x, masks, bg, draw(st.integers(0, k - 1))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=coalition_problems())
def test_tree_coalition_values_equal_predict_proba_of_the_rows(problem):
    model, x, masks, bg, cls = problem
    assert np.array_equal(
        explain._coalition_values(model, x, masks, bg, cls), materialised(model, x, masks, bg, cls)
    )


@pytest.mark.parametrize("cells", [1, 240, 500])
def test_coalition_values_past_the_chunk_bound_equal_predict_proba(monkeypatch, cells):
    # 8 trees on 3 or 4 features, 150 coalitions x 3 background rows: past
    # every bound, so each tree is a group of its own; at 1 cell its masks
    # descend one at a time, else all 8 or 16 at once
    rng = np.random.default_rng(4)
    X = rng.normal(size=(150, 9))
    d = build_dataset(np.column_stack([X, (X[:, 0] + X[:, 3] > 0).astype(int) + (X[:, 5] > 1)]))
    model = train(d, TrainConfig(architecture="rforest", seed=2, n_trees=8, n_features=4))
    bg, x = rng.normal(size=(3, 9)), rng.normal(size=9)
    masks, _ = explain._draw(explain._draw_key(ShapConfig(300, seed=1), 9))
    want = materialised(model, x, masks, bg, 2)
    monkeypatch.setattr(models, "_PREDICT_CELLS", cells)
    sizes, descend = [], models._descend
    monkeypatch.setattr(models, "_descend", lambda t, node, *a: sizes.append(node.size) or descend(t, node, *a))
    assert np.array_equal(model.coalition_values(x, masks, bg, 2), want)
    assert max(sizes) <= max(cells, 8)  # trees x rows in one descent, at least one row


def test_each_tree_descends_its_masks_once_per_call(monkeypatch):
    # a default 50-tree forest on 8 features, exact SHAP (254 coalitions) and
    # 100 background rows: every tree splits on at most 3 features
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 8))
    model = train(build_dataset(np.column_stack([X, X[:, 1] + X[:, 6] > 0])),
                  TrainConfig(architecture="rforest", seed=3))
    bg, x = X[:100], X[150]
    masks, _ = explain._draw(explain._draw_key(ShapConfig(EXACT), 8))
    sizes, descend = [], models._descend
    monkeypatch.setattr(models, "_descend", lambda t, node, *a: sizes.append(node.size) or descend(t, node, *a))
    tracemalloc.start()
    values = explain._coalition_values(model, x, masks, bg, 1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert sum(sizes) == np.sum(np.left_shift(1, model._splits[1])) * 100
    # trees go in groups of 2, so no float array outgrows max(_PREDICT_CELLS, C x B) entries
    assert peak < 4 * 8 * max(models._PREDICT_CELLS, masks.shape[0] * 100)
    monkeypatch.undo()
    assert np.array_equal(values, materialised(model, x, masks, bg, 1))


def _recorded_rows(monkeypatch):
    """Row counts of every predict_proba call on the three model classes."""
    rows = []
    for cls in (models.LogisticRegressionModel, models.DecisionTreeModel, models.RandomForestModel):
        original = cls.predict_proba

        def recorded(self, X, original=original):
            rows.append(len(X))
            return original(self, X)

        monkeypatch.setattr(cls, "predict_proba", recorded)
    return rows


class Wrapped:
    """A duck-typed predictor around a trained model."""

    def __init__(self, model):
        self.model = model

    def predict_proba(self, X):
        return self.model.predict_proba(X)

    def predict(self, x):
        return self.model.predict(x)


@pytest.mark.parametrize("budget", [40, EXACT])
def test_kernel_shap_predicts_coalition_rows_only_off_the_tree_path(monkeypatch, budget):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 8))
    d = build_dataset(np.column_stack([X, X[:, 0] - X[:, 2] > 0]))
    queries, bg = build_dataset(np.column_stack([X[:4], np.zeros(4)])), X[10:16]
    cfg = ShapConfig(coalition_budget=budget, seed=3)  # 40 of 254 coalitions: sampled
    fitted = {arch: train(d, TrainConfig(architecture=arch, seed=1, iterations=40, n_trees=6))
              for arch in ("dtree", "rforest", "logreg")}
    deep = train(build_dataset(np.column_stack([X, np.sin(3 * X).sum(axis=1) > 0])),
                 TrainConfig(architecture="dtree", min_leaf=1))
    assert 1 << deep._splits[2] > 254  # more masks on its features than any coalition count
    rows = _recorded_rows(monkeypatch)
    build_responses([fitted["dtree"], fitted["rforest"]], [queries] * 2, cfg, [bg] * 2)
    assert rows == [6, 6] + [1] * 8  # each model's background, then each query's own row
    for model in (fitted["logreg"], Wrapped(fitted["rforest"]), deep):
        rows.clear()
        build_responses([model], [queries], cfg, [bg])
        assert len([r for r in rows if r > 6]) == 4, rows  # one call of coalition rows per query
