import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import LinearProbModel, build_dataset
from ppverify.errors import ConfigError, DataError
from ppverify.explain import EXACT, LimeConfig, ShapConfig
from ppverify.models import TrainConfig
from ppverify.preprocess import PipelineLabel
from ppverify.verify import (
    LabeledResponseSet,
    Responses,
    build_responses,
    classify,
    cosine_distance,
    fit_ml_verifier,
    fit_threshold_verifier,
    load_verifier,
    responses_from_csv,
    responses_to_csv,
    save_verifier,
)


def make_responses(vectors, tag="m"):
    return Responses(np.asarray(vectors, dtype=float), tag)


def labeled_set(by_class, task="binary"):
    items = []
    for cls, vectors in by_class.items():
        label = PipelineLabel(cls, cls == 0, () if cls == 0 else None)
        items.append((label, make_responses(vectors, tag=f"m{cls}")))
    return LabeledResponseSet(items, task)


def test_cosine_distance_analytic_values():
    assert cosine_distance(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert cosine_distance(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
        1.0 - 1.0 / math.sqrt(2.0)
    )
    assert cosine_distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(2.0)


def test_cosine_distance_scale_invariant_and_symmetric(rng):
    a = rng.normal(size=6)
    b = rng.normal(size=6)
    assert cosine_distance(a, b) == pytest.approx(cosine_distance(b, a))
    assert cosine_distance(3.5 * a, b) == pytest.approx(cosine_distance(a, b))


def test_cosine_distance_zero_vector_is_an_error():
    with pytest.raises(DataError):
        cosine_distance(np.zeros(3), np.ones(3))


def test_cosine_distance_length_mismatch():
    with pytest.raises(DataError):
        cosine_distance(np.ones(3), np.ones(4))


def test_build_responses_shape_and_determinism(rng):
    model = LinearProbModel([0.3, -0.2, 0.1], intercept=0.5, feature_names=("f0", "f1", "f2"))
    queries = build_dataset(np.column_stack([rng.normal(size=(8, 3)), np.zeros(8)]))
    cfg = LimeConfig(num_samples=300, seed=4)
    out = build_responses([model], [queries], cfg, [queries])
    assert len(out) == 8
    assert out.shape == (8, 3 + 2)  # a row per query: attributions + intercept + yhat
    again = build_responses([model], [queries], cfg, [queries])
    assert np.array_equal(out, again)
    # row q answers query q alone: the first three queries give the first three rows
    assert np.array_equal(build_responses([model], [queries.take(range(3))], cfg, [queries]),
                          out[:3])


def test_build_responses_yhat_is_class_index(rng):
    model = LinearProbModel([1.0, 0.0], intercept=0.0)
    queries = build_dataset([[0.9, 0.0, 0.0], [0.1, 0.0, 0.0]])
    cfg = ShapConfig(coalition_budget=EXACT, seed=0)
    out = build_responses([model], [queries], cfg, [queries])
    assert out[0][-1] == 1.0
    assert out[1][-1] == 0.0


class CountingModel(LinearProbModel):
    """Counts `predict` calls."""

    calls = 0

    def predict(self, x):
        self.calls += 1
        return super().predict(x)


@pytest.mark.parametrize("override", [None, 1])
@pytest.mark.parametrize("explainer", ["lime", "shap"])
def test_build_responses_yhat_is_the_prediction_with_or_without_override(explainer, override):
    model = CountingModel([1.0, -0.5], intercept=0.2)
    queries = build_dataset([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [-0.5, 0.3, 0.0]])
    if explainer == "lime":
        cfg = LimeConfig(num_samples=100, seed=3, explained_class=override)
    else:
        cfg = ShapConfig(coalition_budget=EXACT, seed=3, explained_class=override)
    out = build_responses([model], [queries], cfg, [queries])
    # one predict per query: by the explainer, or for yhat when the class is fixed
    assert model.calls == len(out)
    X = queries.feature_matrix()
    assert out[:, -1].tolist() == [float(model.predict(x)) for x in X]
    assert {model.predict(x) for x in X} == {0, 1}  # the override differs for some rows


def test_build_responses_rejects_missing_query_cells():
    model = LinearProbModel([0.1, 0.1])
    queries = build_dataset([[np.nan, 0.0, 1.0]])
    with pytest.raises(DataError):
        build_responses([model], [queries], LimeConfig(seed=0), [queries])


@pytest.mark.parametrize("cfg", [LimeConfig(seed=0), ShapConfig(seed=0)], ids=["lime", "shap"])
def test_build_responses_rejects_queries_without_features(cfg):
    # a label-only table; LIME's default kernel width would be 0, and SHAP
    # has no coalition to draw
    model = LinearProbModel([])
    queries = build_dataset([[0.0], [1.0]])
    with pytest.raises(DataError, match=r"^query set has 2 rows and 0 features$"):
        build_responses([model], [queries], cfg, [queries])


def test_build_responses_names_the_first_model_whose_queries_differ_in_width():
    models = [LinearProbModel([0.1] * k) for k in (2, 2, 3, 1)]
    query_sets = [build_dataset([[0.5] * k + [0.0]]) for k in (2, 2, 3, 1)]
    with pytest.raises(DataError, match=r"^model 2 queries 3 features, model 0 2$"):
        build_responses(models, query_sets, LimeConfig(num_samples=20, seed=0), query_sets)


def test_every_public_name_resolves():
    import ppverify

    assert [name for name in ppverify.__all__ if not hasattr(ppverify, name)] == []
    assert "Responses" in ppverify.__all__
    assert not hasattr(ppverify, "ResponseVector")
    assert not hasattr(ppverify.verify, "ResponseVector")
    assert {"standardize", "laplace_scale"} <= set(ppverify.__all__)
    for gone in ("fit_scaler", "apply_scaler", "ScalerState", "LaplaceParams"):
        assert not hasattr(ppverify, gone)
    assert not hasattr(ppverify.preprocess, "ScalerState")
    assert not hasattr(ppverify.ldp, "LaplaceParams")


def test_build_responses_lime_needs_background():
    model = LinearProbModel([0.1, 0.1])
    queries = build_dataset([[0.0, 0.0, 1.0]])
    with pytest.raises(ConfigError):
        build_responses([model], [queries], LimeConfig(seed=0), [None])


def test_ml_verifier_separates_clean_clusters():
    proper = [[1.0, 0.0, 0.1 * q] for q in range(30)]
    improper = [[0.0, 1.0, 0.1 * q] for q in range(30)]
    data = labeled_set({0: proper, 3: improper})
    verifier = fit_ml_verifier(data, TrainConfig(architecture="rforest", seed=0, n_trees=10))
    v_proper = classify(verifier, make_responses(proper))
    v_improper = classify(verifier, make_responses(improper))
    assert v_proper.predicted_label.is_proper
    assert not v_improper.predicted_label.is_proper
    assert v_proper.confidence == 1.0


def test_classify_rejects_a_bare_predictor():
    proper = [[1.0, 0.0, 0.1 * q] for q in range(10)]
    improper = [[0.0, 1.0, 0.1 * q] for q in range(10)]
    verifier = fit_ml_verifier(labeled_set({0: proper, 1: improper}),
                               TrainConfig(architecture="logreg", seed=0))
    assert verifier.task == "binary"
    with pytest.raises(ConfigError):
        classify(verifier.model, make_responses(proper))


def test_ml_verifier_rejects_responses_of_another_length():
    proper = [[1.0, 0.0, 0.1 * q] for q in range(10)]
    improper = [[0.0, 1.0, 0.1 * q] for q in range(10)]
    verifier = fit_ml_verifier(labeled_set({0: proper, 1: improper}),
                               TrainConfig(architecture="rforest", seed=0, n_trees=3))
    with pytest.raises(DataError):
        classify(verifier, make_responses([[1.0, 0.0, 0.5, 0.0]] * 3))


def test_ml_verifier_single_class_is_an_error():
    data = labeled_set({0: [[1.0, 0.0]] * 4})
    with pytest.raises(DataError):
        fit_ml_verifier(data)


def test_ml_verifier_multi_task_recovers_class_ids():
    by_class = {
        cls: [[math.cos(cls), math.sin(cls), 0.2 * q] for q in range(25)]
        for cls in range(4)
    }
    data = labeled_set(by_class, task="multi")
    verifier = fit_ml_verifier(data, TrainConfig(architecture="rforest", seed=1, n_trees=15))
    for cls, vectors in by_class.items():
        verdict = classify(verifier, make_responses(vectors))
        assert verdict.task == "multi"
        assert verdict.predicted_label.class_id == cls


def test_threshold_tau_is_mean_of_training_distances():
    # reference at (1,0); proper copies at distance 0, improper at distance 1
    reference = make_responses([[1.0, 0.0]] * 10, tag="ref")
    data = labeled_set(
        {0: [[1.0, 0.0]] * 10, 2: [[0.0, 1.0]] * 10},
    )
    t = fit_threshold_verifier(reference, data, "per_query")
    assert t.tau == pytest.approx(0.5)


def test_threshold_classifies_by_tau():
    reference = make_responses([[1.0, 0.0]] * 10, tag="ref")
    data = labeled_set({0: [[1.0, 0.0]] * 10, 2: [[0.0, 1.0]] * 10})
    t = fit_threshold_verifier(reference, data, "per_query")
    near = classify(t, make_responses([[1.0, 0.05]] * 10), reference=reference)
    far = classify(t, make_responses([[0.05, 1.0]] * 10), reference=reference)
    assert near.predicted_label.is_proper
    assert not far.predicted_label.is_proper
    assert near.vote_counts[0] == 10 and far.vote_counts[1] == 10


def test_threshold_reference_against_itself_is_proper():
    reference = make_responses([[0.4, 0.6, 1.0]] * 6, tag="ref")
    data = labeled_set({0: [[0.4, 0.6, 1.0]] * 6, 1: [[0.6, -0.4, 0.0]] * 6})
    t = fit_threshold_verifier(reference, data, "per_query")
    verdict = classify(t, reference, reference=reference)
    assert verdict.predicted_label.is_proper


def test_threshold_requires_reference_at_classification():
    reference = make_responses([[1.0, 0.0]] * 4)
    data = labeled_set({0: [[1.0, 0.0]] * 4, 1: [[0.0, 1.0]] * 4})
    t = fit_threshold_verifier(reference, data, "per_query")
    with pytest.raises(ConfigError):
        classify(t, make_responses([[1.0, 0.0]] * 4))


def test_threshold_misaligned_query_sets_error():
    reference = make_responses([[1.0, 0.0]] * 4)
    data = labeled_set({0: [[1.0, 0.0]] * 4, 1: [[0.0, 1.0]] * 4})
    t = fit_threshold_verifier(reference, data, "per_query")
    with pytest.raises(DataError):
        classify(t, make_responses([[1.0, 0.0]] * 7), reference=reference)


def test_threshold_multi_nearest_centroid():
    reference = make_responses([[1.0, 0.0]] * 12, tag="ref")
    # class distance bands: 0 at 0, 1 near 0.29, 2 near 1.0
    by_class = {
        0: [[1.0, 0.0]] * 12,
        1: [[1.0, 1.0]] * 12,
        2: [[0.0, 1.0]] * 12,
    }
    data = labeled_set(by_class, task="multi")
    t = fit_threshold_verifier(reference, data, "per_query")
    for cls, vectors in by_class.items():
        verdict = classify(t, make_responses(vectors), reference=reference)
        assert verdict.predicted_label.class_id == cls


def test_threshold_concatenated_granularity():
    reference = make_responses([[1.0, 0.0], [0.8, 0.2]], tag="ref")
    data = labeled_set({0: [[1.0, 0.0], [0.8, 0.2]], 1: [[0.0, 1.0], [0.1, 0.9]]})
    t = fit_threshold_verifier(reference, data, "concatenated")
    assert t.granularity == "concatenated"
    near = classify(t, make_responses([[1.0, 0.01], [0.8, 0.19]]), reference=reference)
    far = classify(t, make_responses([[0.0, 1.0], [0.2, 0.8]]), reference=reference)
    assert near.predicted_label.is_proper
    assert not far.predicted_label.is_proper
    # one distance, one vote
    assert sum(near.vote_counts.values()) == 1


def test_binary_tie_votes_fail_closed():
    reference = make_responses([[1.0, 0.0]] * 2, tag="ref")
    data = labeled_set({0: [[1.0, 0.0]] * 2, 1: [[0.0, 1.0]] * 2})
    t = fit_threshold_verifier(reference, data, "per_query")
    # one query near, one far: 1-1 tie resolves to improper
    verdict = classify(t, make_responses([[1.0, 0.0], [0.0, 1.0]]), reference=reference)
    assert not verdict.predicted_label.is_proper


def test_verdict_vote_counts_sum_to_query_count():
    reference = make_responses([[1.0, 0.0]] * 9, tag="ref")
    data = labeled_set({0: [[1.0, 0.0]] * 9, 1: [[0.0, 1.0]] * 9})
    t = fit_threshold_verifier(reference, data, "per_query")
    verdict = classify(t, make_responses([[0.5, 0.5]] * 9), reference=reference)
    assert sum(verdict.vote_counts.values()) == 9


def test_threshold_serialization_roundtrip(tmp_path):
    reference = make_responses([[1.0, 0.0]] * 5, tag="ref")
    data = labeled_set({0: [[1.0, 0.0]] * 5, 1: [[0.0, 1.0]] * 5})
    t = fit_threshold_verifier(reference, data, "per_query")
    path = tmp_path / "t.json"
    save_verifier(t, str(path))
    back = load_verifier(str(path))
    assert back.tau == t.tau
    assert back.task == t.task
    assert back.granularity == t.granularity
    verdict = classify(back, make_responses([[1.0, 0.0]] * 5), reference=reference)
    assert verdict.predicted_label.is_proper


def test_responses_csv_roundtrip(tmp_path, rng):
    vectors = rng.normal(size=(6, 5)).tolist()
    responses = make_responses(vectors, tag="orig")
    path = tmp_path / "resp.csv"
    responses_to_csv(responses.matrix, ("a", "b", "c"), str(path))
    back = responses_from_csv(str(path), model_tag="orig")
    assert back.tag == "orig"
    assert np.array_equal(back.matrix, responses.matrix)  # row for row


def test_responses_csv_header_is_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError):
        responses_from_csv(str(path))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    task=st.sampled_from(["binary", "multi"]),
    arch=st.sampled_from(["logreg", "dtree", "rforest"]),
    granularity=st.sampled_from(["per_query", "concatenated"]),
    n=st.integers(2, 12),
    dim=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)
def test_a_saved_and_reloaded_verifier_gives_the_same_verdict(
    task, arch, granularity, n, dim, seed
):
    rng = np.random.default_rng(seed)
    classes = (0, 1) if task == "binary" else (0, 1, 2, 3)
    data = labeled_set({c: (rng.normal(size=(n, dim)) + c).tolist() for c in classes}, task)
    reference = make_responses(rng.normal(size=(n, dim)).tolist(), tag="ref")
    verifiers = [
        fit_ml_verifier(data, TrainConfig(architecture=arch, seed=seed, iterations=20, n_trees=3)),
        fit_threshold_verifier(reference, data, granularity),
    ]
    targets = [make_responses((rng.normal(size=(n, dim)) + c).tolist()) for c in classes]
    with tempfile.TemporaryDirectory() as tmp:
        path, again = os.path.join(tmp, "verifier.json"), os.path.join(tmp, "again.json")
        for verifier in verifiers:
            save_verifier(verifier, path)
            back = load_verifier(path)
            save_verifier(back, again)
            with open(path, "rb") as first, open(again, "rb") as second:
                assert first.read() == second.read()
            for target in targets:
                want = classify(verifier, target, reference=reference)
                assert classify(back, target, reference=reference) == want
