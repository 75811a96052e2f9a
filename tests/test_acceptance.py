"""Acceptance checklist: one test per shipped guarantee.

Each test prints a single PASS line with the measured quantity once its
assertions hold, so a verbose run doubles as a sign-off transcript. The two
end-to-end checks (7 and 8) execute the full two-party protocol and dominate
the runtime at a few minutes each.
"""

import math
import time

import numpy as np
import pytest

from ppverify.experiment import (
    ExperimentConfig,
    emit_report,
    run_experiment,
    summarize,
)
from ppverify.explain import (
    EXACT,
    LimeConfig,
    ShapConfig,
    exact_shapley,
    lime_explain,
    shap_explain,
)
from ppverify.ldp import INFINITE, PrivacyBudget, laplace_sample, privatize
from ppverify.membership import AttackConfig, mia_power
from ppverify.models import TrainConfig, logreg_loss_grad, train
from ppverify.preprocess import enumerate_pipelines
from ppverify.seeding import derive_seed
from ppverify.tabular import (
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_DISCRETE,
    ColumnSchema,
    Dataset,
    SyntheticSpec,
    column_stats,
    make_synthetic,
    sample_rows,
)

ARCHITECTURES = ("logreg", "dtree", "rforest")


def _ok(label: str, detail: str) -> None:
    print(f"PASS {label}: {detail}")


def _clean_spec(features: int, classes: int, rows: int) -> SyntheticSpec:
    return SyntheticSpec(
        rows=rows,
        features=features,
        classes=classes,
        separation=2.5,
        duplicate_fraction=0.0,
        outlier_fraction=0.0,
        missing_fraction=0.0,
    )


@pytest.fixture(scope="module")
def model_trio():
    data = make_synthetic(_clean_spec(6, 3, 400), seed=90210)
    models = {a: train(data, TrainConfig(architecture=a, seed=7)) for a in ARCHITECTURES}
    return data, models


def test_01_shap_additivity_across_architectures(model_trio):
    data, models = model_trio
    X = data.values[:, :-1]
    background = data.take(range(25))
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        m = models[ARCHITECTURES[i % 3]]
        x = X[rng.integers(0, X.shape[0])]
        budget = EXACT if i % 2 == 0 else 128
        cfg = ShapConfig(coalition_budget=budget, seed=derive_seed(11, "pair", i))
        e = shap_explain(m, x, cfg, background)
        fx = float(m.predict_proba(x[None, :])[0, e.explained_class])
        gap = abs(float(e.attributions.sum()) - (fx - e.intercept_or_base))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed <= 120.0
    _ok("criterion 1", f"1000 pairs, max additivity gap {worst:.2e}, {elapsed:.0f}s")


def test_02_exact_kernel_shap_matches_brute_force_oracle():
    rng = np.random.default_rng(23)
    worlds = []
    for width in (3, 5, 8):
        data = make_synthetic(_clean_spec(width, 2, 240), seed=derive_seed(23, "data", width))
        models = {a: train(data, TrainConfig(architecture=a, seed=5)) for a in ARCHITECTURES}
        worlds.append((data.values[:, :-1], data.take(range(16)), models))
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        X, background, models = worlds[i % 3]
        m = models[ARCHITECTURES[(i // 3) % 3]]
        x = X[rng.integers(0, X.shape[0])]
        e = shap_explain(m, x, ShapConfig(coalition_budget=EXACT), background)
        phi = exact_shapley(m, x, background)
        worst = max(worst, float(np.max(np.abs(e.attributions - phi))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed <= 180.0
    _ok("criterion 2", f"100 instances, max attribution gap {worst:.2e}, {elapsed:.0f}s")


class _LinearBox:
    """Black box whose class-1 probability is exactly linear near the origin."""

    feature_names = ("u", "v")
    class_values = (0.0, 1.0)
    slope = np.array([0.1, -0.05])

    def predict_proba(self, X):
        p = np.clip(0.5 + np.asarray(X, dtype=float) @ self.slope, 0.0, 1.0)
        return np.column_stack([1.0 - p, p])

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1).astype(float)


def test_03_lime_recovers_linear_probability_coefficients():
    box = _LinearBox()
    rng = np.random.default_rng(31)
    background = rng.standard_normal((50, 2))
    worst = 0.0
    for i in range(100):
        x = rng.uniform(-1.0, 1.0, size=2)
        # pin the explained class: wherever p < 0.5 the box predicts class 0
        # and the recovered slopes would flip sign
        cfg = LimeConfig(num_samples=4000, ridge_strength=1e-6,
                         seed=derive_seed(31, "query", i), explained_class=1)
        e = lime_explain(box, x, cfg, background)
        worst = max(worst, float(np.max(np.abs(e.attributions - box.slope))))
    assert worst <= 1e-2
    _ok("criterion 3", f"100 instances, max coefficient error {worst:.2e}")


def test_04_laplace_scale_infinite_identity_and_snapping():
    rng = np.random.default_rng(41)
    b = 2.0
    draws = np.array([laplace_sample(b, rng) for _ in range(100_000)])
    mean_abs = float(np.mean(np.abs(draws)))
    assert abs(mean_abs - b) <= 0.02 * b

    original = make_synthetic(SyntheticSpec(rows=300, features=4), seed=43)
    released = privatize(original, PrivacyBudget(INFINITE), seed=44)
    assert released.schema == original.schema
    assert released.values.tobytes() == original.values.tobytes()

    schema = (
        ColumnSchema(name="c", kind=KIND_CONTINUOUS),
        ColumnSchema(name="d", kind=KIND_DISCRETE),
        ColumnSchema(name="g", kind=KIND_CATEGORICAL, categories=("a", "b", "c")),
        ColumnSchema(name="label", kind=KIND_DISCRETE, is_label=True),
    )
    gen = np.random.default_rng(45)
    values = np.column_stack([
        gen.uniform(-5.0, 7.0, size=240),
        gen.integers(0, 6, size=240).astype(float) * 3.0,
        gen.integers(0, 3, size=240).astype(float),
        gen.integers(0, 2, size=240).astype(float),
    ])
    values[gen.random(240) < 0.1, 0] = np.nan
    mixed = Dataset(schema=schema, values=values)
    noisy = privatize(mixed, PrivacyBudget(0.4), seed=46)

    stats = column_stats(mixed, 0)
    cont = noisy.values[:, 0]
    present = cont[~np.isnan(cont)]
    assert present.min() >= stats.minimum and present.max() <= stats.maximum
    assert np.array_equal(np.isnan(cont), np.isnan(values[:, 0]))
    assert set(np.unique(noisy.values[:, 1])) <= set(np.unique(values[:, 1]))
    assert set(np.unique(noisy.values[:, 2])) <= set(np.unique(values[:, 2]))
    # labels are released untouched unless explicitly requested
    assert np.array_equal(noisy.values[:, 3], values[:, 3])
    _ok("criterion 4", f"mean |noise| {mean_abs:.4f} for b={b}, identity at inf, snapped in-domain")


def test_05_logreg_gradient_matches_central_differences():
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 15))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        l2 = float(rng.choice([0.0, 0.01]))
        X1 = np.column_stack([rng.normal(size=(n, d)), np.ones(n)])
        Y = np.eye(k)[rng.integers(0, k, size=n)]
        params = rng.normal(scale=0.5, size=(d + 1, k))
        _, grad = logreg_loss_grad(params, X1, Y, l2=l2)
        h = 1e-6
        num = np.zeros_like(params)
        for i in range(d + 1):
            for j in range(k):
                up = params.copy(); up[i, j] += h
                dn = params.copy(); dn[i, j] -= h
                num[i, j] = (logreg_loss_grad(up, X1, Y, l2=l2)[0]
                             - logreg_loss_grad(dn, X1, Y, l2=l2)[0]) / (2 * h)
        rel = np.abs(grad - num) / np.maximum(1.0, np.abs(num))
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-5
    _ok("criterion 5", f"20 instances, max relative gradient error {worst:.2e}")


def test_06_pipeline_enumeration_counts():
    compat = enumerate_pipelines("paper-compat")
    full = enumerate_pipelines("full")
    assert len(compat) == 15
    assert len(full) == 16
    assert sum(1 for _, label in compat if label.is_proper) == 1
    assert sorted(label.class_id for _, label in compat) == list(range(15))
    _ok("criterion 6", "paper-compat enumerates 15 labels (1 proper + 14 improper), full 16")


def test_07_binary_verification_end_to_end_trend():
    spec = SyntheticSpec()
    assert (spec.rows, spec.features, spec.imbalance) == (2000, 8, 4.0)
    assert (spec.duplicate_fraction, spec.outlier_fraction) == (0.05, 0.02)
    cfg = ExperimentConfig(
        source="synthetic",
        synthetic=spec,
        architecture="logreg",
        explainer="lime",
        task="binary",
        enumeration_mode="paper-compat",
        epsilon_grid=(0.1, INFINITE),
        trials=5,
        master_seed=1009,
        attack=False,
    )
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    assert all(r.status == "ok" for r in report.rows)
    means = {(r["epsilon"], r["method"]): r["mean"] for r in summarize(report)}
    assert means[(INFINITE, "ml")] >= 0.8
    assert means[(INFINITE, "ml")] >= means[(0.1, "ml")]
    assert elapsed <= 600.0
    _ok("criterion 7", "ml accuracy {:.3f} at inf vs {:.3f} at 0.1, {:.0f}s".format(
        means[(INFINITE, "ml")], means[(0.1, "ml")], elapsed))


def test_08_multiclass_verification_collapses_under_heavy_noise():
    # dirt levels are cranked up so that omitting any cleaning step moves the
    # trained model far enough for the distance centroids to separate
    cfg = ExperimentConfig(
        source="synthetic",
        synthetic=SyntheticSpec(rows=1000, features=6, classes=3, separation=1.5,
                                imbalance=5.0, duplicate_fraction=0.15,
                                outlier_fraction=0.08, missing_fraction=0.02),
        architecture="logreg",
        explainer="lime",
        task="multi",
        enumeration_mode="paper-compat",
        epsilon_grid=(0.1, INFINITE),
        trials=5,
        query_count=250,
        background_size=60,
        master_seed=2203,
        attack=False,
    )
    report = run_experiment(cfg)
    assert all(r.status == "ok" for r in report.rows)
    means = {(r["epsilon"], r["method"]): r["mean"] for r in summarize(report)}
    for method in ("ml", "threshold"):
        assert means[(0.1, method)] <= 0.3
        assert means[(INFINITE, method)] > means[(0.1, method)]
    _ok("criterion 8", "ml {:.3f} -> {:.3f}, threshold {:.3f} -> {:.3f} from eps 0.1 to inf".format(
        means[(0.1, "ml")], means[(INFINITE, "ml")],
        means[(0.1, "threshold")], means[(INFINITE, "threshold")]))


def _discrete_grid(rows: np.ndarray) -> Dataset:
    width = rows.shape[1]
    schema = tuple(
        ColumnSchema(name=f"f{j}", kind=KIND_DISCRETE) for j in range(width - 1)
    ) + (ColumnSchema(name="label", kind=KIND_DISCRETE, is_label=True),)
    return Dataset(schema=schema, values=np.asarray(rows, dtype=float))


def _integer_table(rows: int, features: int, alphabet: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, alphabet, size=(rows, features))
    label = rng.integers(0, 2, size=(rows, 1))
    return _discrete_grid(np.hstack([cells, label]))


def test_09_mia_calibration_and_epsilon_trend():
    # calibration: case and control perturbed identically from released rows,
    # so flagged members are false positives by construction
    master = np.random.default_rng(42)
    released_rows = master.integers(0, 10, size=(400, 80))
    released = _discrete_grid(released_rows)
    powers = []
    for s in range(10):
        r = np.random.default_rng(1000 + s)
        groups = []
        for _ in range(2):
            base = released_rows[r.integers(0, 400, size=300)].copy()
            mask = r.random(base.shape) < 0.5
            base[mask] = r.integers(0, 10, size=int(mask.sum()))
            groups.append(_discrete_grid(base))
        powers.append(mia_power(released, AttackConfig(groups[0], groups[1], 0.05)).power)
    calibration = float(np.mean(powers))
    assert abs(calibration - 0.05) <= 0.02

    # trend: on integer features the snap-back probability grades smoothly
    # with the budget, so member rows resurface as epsilon grows
    grid = (0.1, 1.0, 10.0, 100.0, 1000.0)
    per_eps = {eps: [] for eps in grid}
    for trial in range(10):
        base = _integer_table(300, 6, 10, derive_seed(515, "mia-base", trial))
        case = sample_rows(base, 100, derive_seed(515, "mia-case", trial))
        control = _integer_table(100, 6, 10, derive_seed(515, "mia-control", trial))
        for ei, eps in enumerate(grid):
            released = privatize(base, PrivacyBudget(eps), derive_seed(515, "mia-ldp", trial, ei))
            result = mia_power(released, AttackConfig(case, control, 0.05))
            per_eps[eps].append(result.power)
    means = [float(np.mean(per_eps[eps])) for eps in grid]
    inversions = sum(1 for lo, hi in zip(means, means[1:]) if hi < lo)
    assert inversions <= 1
    assert means[-1] >= 0.5
    _ok("criterion 9", "calibration {:.3f}, mean power {} over eps {}, {} inversion(s)".format(
        calibration, [round(m, 3) for m in means], list(grid), inversions))


def test_10_experiment_reruns_are_byte_identical(tmp_path):
    cfg = ExperimentConfig(
        source="synthetic",
        synthetic=SyntheticSpec(rows=160, features=4),
        architecture="logreg",
        explainer="lime",
        task="binary",
        enumeration_mode="paper-compat",
        epsilon_grid=(1.0, INFINITE),
        trials=2,
        query_count=6,
        background_size=10,
        lime_num_samples=250,
        master_seed=616,
        attack=True,
        attack_group_size=20,
    )
    contents = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        emit_report(run_experiment(cfg), str(out_dir))
        contents.append((out_dir / "results.csv").read_bytes())
    assert contents[0] == contents[1]
    _ok("criterion 10", f"two seeded runs, results.csv identical ({len(contents[0])} bytes)")
