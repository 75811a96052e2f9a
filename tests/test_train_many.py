"""`train_many` trains a stage's logreg models together in lockstep; every
model's params must equal those of the reference loop trained alone, bit for
bit, however the stage is grouped and batched."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import loop_reference as ref
from conftest import build_dataset
from ppverify import models
from ppverify.errors import DataError
from ppverify.models import TrainConfig, train, train_many


def _params(m):
    return np.vstack([m.weights, m.bias])


def _equal_bits(got, want):
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(
        np.signbit(got), np.signbit(want)
    )


def _reference(X, y_idx, k, cfg):
    return ref.fit_logreg(X, y_idx, k, cfg.learning_rate, cfg.iterations, cfg.l2)


CONFIGS = st.builds(
    TrainConfig,
    learning_rate=st.sampled_from([0.1, 0.5]),
    iterations=st.integers(1, 25),
    l2=st.sampled_from([0.0, 0.1]),
)


@st.composite
def stages(draw):
    """1-6 labelled tables, each with every one of its k classes present; a
    table may repeat an earlier one exactly."""
    tables = []
    for _ in range(draw(st.integers(1, 6))):
        if tables and draw(st.booleans()):
            tables.append(draw(st.sampled_from(tables)))
            continue
        k = draw(st.integers(2, 10))
        n = k + draw(st.integers(0, 30))
        d = draw(st.integers(1, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        X = rng.standard_normal((n, d)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
        y = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
        tables.append((build_dataset(np.column_stack([X, y])), draw(CONFIGS)))
    return tables


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stage=stages())
def test_train_many_params_equal_the_reference_bit_for_bit(stage):
    fitted = train_many([ds for ds, _ in stage], [cfg for _, cfg in stage])
    for (ds, cfg), m in zip(stage, fitted, strict=True):
        labels = ds.labels()
        classes = np.unique(labels)
        want = _reference(ds.feature_matrix(), np.searchsorted(classes, labels), classes.size, cfg)
        assert _equal_bits(_params(m), want)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    d=st.integers(1, 5),
    k=st.integers(2, 10),
    cfg=CONFIGS,
    seed=st.integers(0, 2**16),
)
def test_lockstep_loop_matches_the_reference_from_one_row(sizes, d, k, cfg, seed):
    # below the training-set checks, so a model may see one row or one class
    rng = np.random.default_rng(seed)
    problems = [
        (rng.standard_normal((n, d)) * 3, rng.integers(0, k, n), ["f"] * d, np.arange(k, dtype=float))
        for n in sizes
    ]
    for (X, y_idx, _, _), m in zip(problems, models._fit_logregs(problems, cfg), strict=True):
        assert _equal_bits(_params(m), _reference(X, y_idx, k, cfg))


def _table(seed, n=40, d=3, k=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = (X[:, 0] > 0).astype(int) + (k > 2) * (X[:, 1] > 0.5)
    return build_dataset(np.column_stack([X, y]))


def test_train_is_train_many_with_one_pair():
    ds = _table(1)
    for cfg in (TrainConfig(iterations=50), TrainConfig(architecture="rforest", n_trees=4, seed=2)):
        alone = train(ds, cfg)
        (many,) = train_many([ds], [cfg])
        assert alone.to_payload() == many.to_payload()


def test_a_stage_split_into_batches_gives_the_same_params(monkeypatch):
    stage = [_table(s, n=30 + 5 * s) for s in range(6)]
    cfgs = [TrainConfig(iterations=40)] * 6
    whole = train_many(stage, cfgs)
    loops = []
    fit = models._fit_logregs
    monkeypatch.setattr(models, "_fit_logregs", lambda p, c: loops.append(len(p)) or fit(p, c))
    monkeypatch.setattr(models, "_LOCKSTEP_ROWS", 70)  # two tables per loop, some alone
    split = train_many(stage, cfgs)
    assert len(loops) > 1 and sum(loops) == 6
    for a, b in zip(whole, split, strict=True):
        assert _equal_bits(_params(a), _params(b))


def test_models_group_by_shape_and_settings_and_keep_their_order(monkeypatch):
    stage = [_table(0), _table(1, d=4), _table(2, k=2), _table(3), _table(4)]
    cfgs = [TrainConfig(iterations=30)] * 4 + [TrainConfig(iterations=30, l2=0.0)]
    cfgs.insert(2, TrainConfig(architecture="dtree"))
    stage.insert(2, _table(5))
    loops = []
    fit = models._fit_logregs
    monkeypatch.setattr(models, "_fit_logregs", lambda p, c: loops.append(len(p)) or fit(p, c))
    fitted = train_many(stage, cfgs)
    assert sorted(loops) == [1, 1, 1, 2]  # only tables 0 and 4 share a loop
    for ds, cfg, m in zip(stage, cfgs, fitted, strict=True):
        assert m.architecture == cfg.architecture
        assert m.to_payload() == train(ds, cfg).to_payload()


def test_every_pair_is_checked_in_order_before_any_training(monkeypatch):
    single = build_dataset([[0.1, 1], [0.2, 1], [0.3, 1]])
    monkeypatch.setattr(models, "_fit_logregs", lambda p, c: pytest.fail("trained"))
    with pytest.raises(DataError, match="single class"):
        train_many([_table(0), single], [TrainConfig()] * 2)
    assert train_many([], []) == []
