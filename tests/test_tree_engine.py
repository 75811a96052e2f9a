"""The flat-array tree engine against the recursive reference, and the
validation of tree payloads at the model-file boundary."""

import copy
import json
import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tree_reference as ref
from conftest import build_dataset
from ppverify import models
from ppverify.cli import main
from ppverify.errors import DataError
from ppverify.experiment import ExperimentConfig, run_experiment
from ppverify.models import (
    TrainConfig,
    load_model,
    model_from_payload,
    save_model,
    train,
)
from ppverify.tabular import SyntheticSpec


@st.composite
def tree_problems(draw):
    """A small table with heavy ties and duplicated rows, plus a tree config."""
    n = draw(st.integers(4, 40))
    d = draw(st.integers(1, 4))
    k = draw(st.sampled_from([2, 3]))
    step = draw(st.sampled_from([0.5, 1.0, 2.5]))
    X = np.array(draw(st.lists(st.integers(0, 4), min_size=n * d, max_size=n * d)),
                 dtype=float).reshape(n, d) * step
    y = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    copies = draw(st.integers(0, n // 2))
    X[n - copies:], y[n - copies:] = X[:copies], y[:copies]  # duplicated rows
    y[:k] = np.arange(k)  # every class occurs
    cfg = TrainConfig(
        architecture=draw(st.sampled_from(["dtree", "rforest"])),
        seed=draw(st.integers(0, 2**16)),
        max_depth=draw(st.integers(1, 7)),
        min_leaf=draw(st.integers(1, 5)),
        n_trees=draw(st.integers(1, 6)),
        n_features=draw(st.one_of(st.none(), st.integers(1, d))),
        bootstrap=draw(st.booleans()),
    )
    return X, y, k, cfg


def reference_proba(X, y, k, cfg, Q):
    if cfg.architecture == "dtree":
        return ref.dtree_proba(ref.fit_dtree(X, y, k, cfg), Q, k)
    return ref.rforest_proba(ref.fit_rforest(X, y, k, cfg), Q, k)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=tree_problems(), probe_seed=st.integers(0, 2**16))
def test_engine_predictions_equal_the_reference_bit_for_bit(problem, probe_seed):
    X, y, k, cfg = problem
    model = train(build_dataset(np.column_stack([X, y])), cfg)
    probes = np.random.default_rng(probe_seed).integers(-1, 11, size=(30, X.shape[1])) / 2.0
    Q = np.vstack([X, probes])
    assert np.array_equal(model.predict_proba(Q), reference_proba(X, y, k, cfg, Q))


@st.composite
def many_class_problems(draw):
    """Like `tree_problems`, with 7 to 15 classes: numpy sums 8 or more
    squared shares pairwise, so both Gini paths of the engine are drawn."""
    k = draw(st.sampled_from([7, 8, 9, 15]))
    n = draw(st.integers(k, 60))
    d = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.integers(0, 6), min_size=n * d, max_size=n * d)),
                 dtype=float).reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    y[:k] = np.arange(k)  # every class occurs
    cfg = TrainConfig(
        architecture=draw(st.sampled_from(["dtree", "rforest"])),
        seed=draw(st.integers(0, 2**16)),
        max_depth=draw(st.integers(1, 6)),
        min_leaf=draw(st.integers(1, 3)),
        n_trees=draw(st.integers(1, 4)),
        n_features=draw(st.one_of(st.none(), st.integers(1, d))),
        bootstrap=draw(st.booleans()),
    )
    return X, y, k, cfg


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=many_class_problems(), cells=st.sampled_from([1, 16, 64, 256]))
def test_many_class_predictions_equal_the_reference_in_slot_batches(problem, cells):
    X, y, k, cfg = problem
    with mock.patch.object(models, "_SPLIT_CELLS", cells):  # a level spans batches
        model = train(build_dataset(np.column_stack([X, y])), cfg)
    assert np.array_equal(model.predict_proba(X), reference_proba(X, y, k, cfg, X))


@st.composite
def ulp_adjacent_problems(draw):
    """A table whose every column holds a few values one ulp apart, where a
    midpoint threshold may round onto the upper value."""
    n, d, k = draw(st.integers(4, 30)), draw(st.integers(1, 3)), draw(st.sampled_from([2, 3]))
    base = draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=d, max_size=d))
    ladder = np.array(base)[None, :]
    for _ in range(3):
        ladder = np.vstack([ladder, np.nextafter(ladder[-1], np.inf)])
    steps = np.array(draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d)))
    X = ladder[steps.reshape(n, d), np.arange(d)]
    y = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    y[:k] = np.arange(k)  # every class occurs
    cfg = TrainConfig(
        architecture=draw(st.sampled_from(["dtree", "rforest"])),
        seed=draw(st.integers(0, 2**16)),
        max_depth=draw(st.integers(1, 6)),
        min_leaf=1,
        n_trees=draw(st.integers(1, 4)),
    )
    return X, y, k, cfg


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=ulp_adjacent_problems())
def test_splits_between_ulp_adjacent_values_leave_both_children_non_empty(problem):
    X, y, k, cfg = problem
    model = train(build_dataset(np.column_stack([X, y])), cfg)
    # a node that no training row reaches has the class distribution 0/0
    assert np.isfinite(model.trees.dist).all()
    P = model.predict_proba(np.vstack([X, np.nextafter(X, -np.inf), np.nextafter(X, np.inf)]))
    assert np.isfinite(P).all() and np.allclose(P.sum(axis=1), 1.0)
    assert np.array_equal(model.predict_proba(X), reference_proba(X, y, k, cfg, X))


def test_a_split_between_two_values_one_ulp_apart_thresholds_at_the_lower():
    lo, hi = 0.1531746031746031, 0.15317460317460313  # 0.5 * (lo + hi) == hi
    model = train(build_dataset([[lo, 0.0], [hi, 1.0]]), TrainConfig("dtree", min_leaf=1))
    assert model.trees.threshold[0] == lo
    assert model.predict_proba(np.array([[lo], [hi]])).tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_a_dtree_shap_run_with_one_ulp_splits_raises_no_runtime_warning():
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(rows=200, features=4, classes=2), epsilon_grid=(1.0, math.inf),
        trials=1, query_count=6, background_size=4, lime_num_samples=300, master_seed=77,
        explainer="shap", shap_budget=32, architecture="dtree",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_experiment(cfg)
    assert all(row.status == "ok" for row in report.rows)


@pytest.mark.parametrize("k", range(2, 17))
def test_column_gini_equals_the_row_sum_bit_for_bit(k):
    # the column-wise Gini adds its squares in numpy's row-sum order at every k
    rng = np.random.default_rng(k)
    counts = rng.integers(0, 40, size=(500, k)) * (rng.random((500, k)) < 0.7)
    total = counts.sum(axis=1)
    want = ref._gini_from_counts(counts, total[:, None])
    assert np.array_equal(models._gini_columns(counts.T, total), want)


# Both features split this table into the same weighted Gini, 1/3, but
# rounding makes feature 1's 5.6e-17 lower: 0.3333333333333333 against
# 0.33333333333333326. A later feature must be lower by more than 1e-15 to win.
NEAR_TIE = np.array([
    [0, 3, 1, 2, 0, 0, 2, 0, 2],  # feature 0, best threshold 2.5
    [0, 1, 3, 2, 2, 0, 3, 3, 0],  # feature 1, best threshold 0.5
    [0, 1, 1, 1, 1, 1, 0, 1, 1],  # label
], dtype=float).T


def test_a_later_feature_needs_a_gini_lower_by_more_than_the_margin():
    X, y = NEAR_TIE[:, :2], NEAR_TIE[:, 2].astype(int)
    first, later = (ref.best_split(X, y, np.arange(9), [f], 2, 1) for f in (0, 1))
    assert 0 < first[0] - later[0] < 1e-15  # the table is a near tie
    cfg = TrainConfig(architecture="dtree", max_depth=1, min_leaf=1)
    params = train(build_dataset(NEAR_TIE), cfg).to_payload()["params"]
    assert (params["feature"][0], params["threshold"][0]) == (0, 2.5)


def seed_payload(arch, trees, d, k):
    """A version-1 model file as the recursive writer laid it out."""
    params = trees[0].payload() if arch == "dtree" else {"trees": [t.payload() for t in trees]}
    return {
        "format": models.MODEL_FORMAT,
        "version": 1,
        "architecture": arch,
        "feature_names": [f"f{j}" for j in range(d)],
        "class_values": [float(c) for c in range(k)],
        "params": params,
    }


@pytest.mark.parametrize("arch", ["dtree", "rforest"])
def test_depth_first_v1_files_load_and_predict_identically(tmp_path, arch):
    rng = np.random.default_rng(4)
    X = np.round(rng.normal(size=(150, 3)), 1)
    y = (X[:, 0] + 0.5 * X[:, 1] > rng.normal(scale=0.5, size=150)).astype(int)
    y[rng.random(150) < 0.2] = 2
    cfg = TrainConfig(architecture=arch, seed=3, n_trees=7, max_depth=6, min_leaf=2)
    trees = ref.fit_dtree(X, y, 3, cfg) if arch == "dtree" else ref.fit_rforest(X, y, 3, cfg)
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(seed_payload(arch, trees, 3, 3)))
    Q = np.vstack([X, rng.normal(size=(40, 3))])
    want = (ref.dtree_proba if arch == "dtree" else ref.rforest_proba)(trees, Q, 3)
    loaded = load_model(str(path))
    assert np.array_equal(loaded.predict_proba(Q), want)
    # the engine writes breadth-first; that file predicts the same again
    again = tmp_path / "again.json"
    save_model(loaded, str(again))
    assert np.array_equal(load_model(str(again)).predict_proba(Q), want)


def test_predict_past_the_chunk_bound_equals_smaller_calls():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(120, 3))
    d = build_dataset(np.column_stack([X, X[:, 0] > 0]))
    model = train(d, TrainConfig(architecture="rforest", seed=1, n_trees=8))
    rows = 2 * (models._PREDICT_CELLS // 8) + 5
    Q = rng.normal(size=(rows, 3))
    parts = [model.predict_proba(Q[a : a + 1000]) for a in range(0, rows, 1000)]
    assert np.array_equal(model.predict_proba(Q), np.concatenate(parts))


@pytest.mark.parametrize("samples", [1, 100, 250])
def test_forest_grown_in_batches_of_trees_equals_the_reference(monkeypatch, samples):
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(60, 4)), 1)
    y = (X[:, 0] - X[:, 2] > rng.normal(scale=0.7, size=60)).astype(int)
    cfg = TrainConfig(architecture="rforest", seed=9, n_trees=9, max_depth=5, min_leaf=2)
    monkeypatch.setattr(models, "_GROW_SAMPLES", samples)  # 1, 1 and 4 trees per batch
    model = train(build_dataset(np.column_stack([X, y])), cfg)
    assert model.trees.start.size == cfg.n_trees + 1
    assert np.array_equal(model.predict_proba(X), reference_proba(X, y, 2, cfg, X))


def test_breadth_first_payload_layout():
    d = build_dataset([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0], [4.0, 0.0]])
    model = train(d, TrainConfig(architecture="dtree", seed=0, min_leaf=1))
    params = model.to_payload()["params"]
    # root, its two children, then the right child's two children
    assert params["feature"] == [0, -1, 0, -1, -1]
    assert params["left"] == [1, -1, 3, -1, -1]
    assert params["right"] == [2, -1, 4, -1, -1]


# ---------------------------------------------------------------------------
# Malformed model files


def dtree_payload():
    d = build_dataset([[0.0, 5.0, 0.0], [1.0, 4.0, 0.0], [2.0, 3.0, 1.0], [3.0, 2.0, 1.0],
                       [4.0, 1.0, 0.0], [5.0, 0.0, 0.0]])
    model = train(d, TrainConfig(architecture="dtree", seed=0, min_leaf=1))
    payload = model.to_payload()
    assert len(payload["params"]["feature"]) >= 5
    return payload


def broken(edit):
    payload = copy.deepcopy(dtree_payload())
    edit(payload, payload["params"])
    return payload


def _cycle(payload, p):
    p["left"][2] = 0  # an internal node points back at the root


def _shared_child(payload, p):
    p["right"][0] = p["left"][0]


def _orphan(payload, p):
    for key in ("feature", "threshold", "left", "right", "dist"):
        p[key].append(copy.deepcopy(p[key][-1]))


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda payload, p: p["threshold"].pop(), "equal length",
                     id="unequal-lengths"),
        pytest.param(lambda payload, p: p["left"].__setitem__(0, 99), "child index outside",
                     id="child-out-of-range"),
        pytest.param(lambda payload, p: p["right"].__setitem__(0, -3), "child index outside",
                     id="negative-child"),
        pytest.param(_cycle, "reaches a node twice", id="cycle"),
        pytest.param(_shared_child, "reaches a node twice", id="shared-child"),
        pytest.param(_orphan, "does not reach", id="unreached-node"),
        pytest.param(lambda payload, p: p["feature"].__setitem__(0, 2), "feature >= 2",
                     id="feature-out-of-range"),
        pytest.param(lambda payload, p: [row.append(0.0) for row in p["dist"]],
                     "dist row needs 2 entries", id="dist-row-length"),
        pytest.param(lambda payload, p: p["dist"][1].append(0.0), "dist is not a numeric array",
                     id="ragged-dist"),
        pytest.param(lambda payload, p: p.pop("dist"), "lacks 'dist'", id="missing-dist"),
        pytest.param(lambda payload, p: payload.pop("params"), "lacks 'params'",
                     id="missing-params"),
        pytest.param(lambda payload, p: payload.pop("architecture"), "lacks 'architecture'",
                     id="missing-architecture"),
        pytest.param(lambda payload, p: p["feature"].__setitem__(0, "x"),
                     "feature is not a numeric array", id="non-numeric"),
        pytest.param(lambda payload, p: [p[key].clear() for key in p], "no nodes",
                     id="no-nodes"),
    ],
)
def test_malformed_tree_payloads_raise_data_error(edit, message):
    payload = broken(edit)
    start = time.perf_counter()
    with pytest.raises(DataError, match=message):
        model_from_payload(payload)
    assert time.perf_counter() - start < 5.0


def test_malformed_forest_and_logreg_payloads_raise_data_error():
    forest = {**dtree_payload(), "architecture": "rforest"}
    forest["params"] = {"trees": [forest["params"], broken(_cycle)["params"]]}
    with pytest.raises(DataError, match="tree 1"):
        model_from_payload(forest)
    with pytest.raises(DataError):
        model_from_payload({**forest, "params": {"trees": []}})
    logreg = {**dtree_payload(), "architecture": "logreg",
              "params": {"weights": [[1.0, 0.0]], "bias": [0.0, 0.0]}}
    with pytest.raises(DataError):  # two features need two weight rows
        model_from_payload(logreg)
    with pytest.raises(DataError):
        model_from_payload([1, 2, 3])


def test_respond_on_a_cyclic_model_file_exits_3(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(broken(_cycle)))
    queries = tmp_path / "q.csv"
    queries.write_text("f0,f1,label\n1.0,2.0,0\n3.0,1.0,1\n")
    code = main(["respond", "--model", str(model), "--queries", str(queries),
                 "--output", str(tmp_path / "r.csv")])
    assert code == 3
    assert "reaches a node twice" in capsys.readouterr().err
