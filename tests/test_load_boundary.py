"""Files read at the load boundary: verifier files written by version 1 of
the format still load, and every malformed verifier, schema sidecar or JSON
config ends in a config or data error with exit code 2 or 3."""

import json

import numpy as np
import pytest

from ppverify.cli import main
from ppverify.errors import DataError
from ppverify.models import TrainConfig
from ppverify.preprocess import PipelineLabel
from ppverify.verify import (
    LabeledResponseSet,
    Responses,
    classify,
    fit_ml_verifier,
    fit_threshold_verifier,
    load_verifier,
    responses_to_csv,
    save_verifier,
)

# Responses of three models (class 0 is proper) over four queries.
VECTORS = {
    0: [[1.0, 0.0, 0.5], [0.9, 0.1, 0.5], [1.0, 0.2, 0.5], [0.8, 0.0, 0.5]],
    1: [[0.0, 1.0, 0.5], [0.1, 0.9, 0.5], [0.2, 1.0, 0.5], [0.0, 0.8, 0.5]],
    2: [[0.5, 0.5, 1.0], [0.4, 0.6, 1.0], [0.6, 0.5, 1.0], [0.5, 0.4, 1.0]],
}

# `ppverify fit-verifier` output for VECTORS, byte for byte, recorded from
# the version-1 writer that predates `save_verifier`:
#   ml:        --method ml --task binary --arch logreg --seed 0, classes 0 and 1
#   threshold: --method threshold --task multi, classes 0-2, reference class 0
GOLDEN = {
    "ml": (
        '{"format": "ppverify-verifier", "version": 1, "method": "ml", "task": "binary", '
        '"payload": {"format": "ppverify-model", "version": 1, "architecture": "logreg", '
        '"feature_names": ["r0", "r1", "r2"], "class_values": [0.0, 1.0], "params": '
        '{"weights": [[2.736718747188496, -2.7367187471884975], '
        "[-2.7367187471884975, 2.7367187471884966], "
        "[8.666113286849356e-17, -1.1099033826946546e-16]], "
        '"bias": [1.751637029867581e-16, -2.235191198796115e-16]}}}\n'
    ),
    "threshold": (
        '{"format": "ppverify-verifier", "version": 1, "method": "threshold", "task": "multi", '
        '"payload": {"format": "ppverify-threshold", "version": 1, "task": "multi", '
        '"granularity": "per_query", "tau": null, "centroids": {"0": 0.0, '
        '"1": 0.6533389989311882, "2": 0.22805605407973545}, '
        '"train_min": -2.220446049250313e-16, "train_max": 0.8, "labels": '
        '{"0": {"class_id": 0, "is_proper": true, "omitted_steps": []}, '
        '"1": {"class_id": 1, "is_proper": false, "omitted_steps": null}, '
        '"2": {"class_id": 2, "is_proper": false, "omitted_steps": null}}}}\n'
    ),
}


def responses(cls):
    return Responses(np.array(VECTORS[cls]), f"m{cls}")


def labeled(classes, task):
    return LabeledResponseSet(
        [(PipelineLabel(c, c == 0, () if c == 0 else None), responses(c)) for c in classes],
        task,
    )


def fit(method):
    """The fit GOLDEN[method] records, its target, reference and the verdict
    `ppverify verify` printed for them: (class id, votes, confidence)."""
    if method == "ml":
        v = fit_ml_verifier(labeled((0, 1), "binary"), TrainConfig(architecture="logreg", seed=0))
        return v, responses(1), None, (1, {1: 4}, 1.0)
    v = fit_threshold_verifier(responses(0), labeled((0, 1, 2), "multi"), "per_query")
    return v, responses(2), responses(0), (2, {2: 4}, 1.0)


@pytest.mark.parametrize("method", ["ml", "threshold"])
def test_version_1_verifier_file_loads_and_is_written_byte_for_byte(tmp_path, method):
    path = tmp_path / "golden.json"
    path.write_bytes(GOLDEN[method].encode())
    fitted, target, reference, expected = fit(method)

    loaded = load_verifier(str(path))
    verdict = classify(loaded, target, reference=reference)
    assert (verdict.predicted_label.class_id, verdict.vote_counts, verdict.confidence) == expected
    assert verdict == classify(fitted, target, reference=reference)

    again = tmp_path / "again.json"
    save_verifier(fitted, str(again))
    assert again.read_bytes() == GOLDEN[method].encode()


def edit(method, change):
    envelope = json.loads(GOLDEN[method])
    change(envelope)
    return json.dumps(envelope)


def drop_task_and_tau(e):
    e["task"] = e["payload"]["task"] = "binary"
    e["payload"]["centroids"] = None


MALFORMED_VERIFIERS = [
    ("not-json", "{not json"),
    ("a-list", "[1, 2]"),
    ("wrong-format", edit("ml", lambda e: e.update(format="ppverify-model"))),
    ("wrong-version", edit("ml", lambda e: e.update(version=2))),
    ("no-method", edit("threshold", lambda e: e.pop("method"))),
    ("bogus-method", edit("threshold", lambda e: e.update(method="bogus"))),
    ("no-task", edit("ml", lambda e: e.pop("task"))),
    ("weird-task", edit("ml", lambda e: e.update(task="weird"))),
    ("no-payload", edit("ml", lambda e: e.pop("payload"))),
    ("ml-bad-model", edit("ml", lambda e: e["payload"]["params"].pop("weights"))),
    ("ml-not-a-class-id", edit("ml", lambda e: e["payload"].update(class_values=[0.0, 2.5]))),
    ("threshold-no-labels", edit("threshold", lambda e: e["payload"].pop("labels"))),
    ("threshold-no-tau", edit("threshold", lambda e: e["payload"].pop("tau"))),
    ("threshold-task-differs", edit("threshold", lambda e: e.update(task="binary"))),
    ("threshold-binary-without-tau", edit("threshold", drop_task_and_tau)),
    ("threshold-bad-granularity",
     edit("threshold", lambda e: e["payload"].update(granularity="bogus"))),
    ("threshold-bad-centroid",
     edit("threshold", lambda e: e["payload"]["centroids"].update({"1": "far"}))),
    ("threshold-label-lacks-key",
     edit("threshold", lambda e: e["payload"]["labels"]["1"].pop("is_proper"))),
    ("threshold-label-not-an-object",
     edit("threshold", lambda e: e["payload"]["labels"].update({"1": 7}))),
    ("threshold-improper-class-0",
     edit("threshold", lambda e: e["payload"]["labels"]["0"].update(is_proper=False))),
]

LABEL_ENTRY = {"name": "label", "kind": "numeric-discrete", "is_label": True}
MALFORMED_SIDECARS = [
    ("not-json", "name,kind\n"),
    ("an-object", json.dumps({"f0": "numeric-continuous"})),
    ("entry-not-an-object", "[42]"),
    ("entry-lacks-kind", json.dumps([{"name": "f0"}, LABEL_ENTRY])),
    ("categories-not-a-list",
     json.dumps([{"name": "f0", "kind": "categorical", "categories": 5}, LABEL_ENTRY])),
    ("unknown-kind", json.dumps([{"name": "f0", "kind": "weird"}, LABEL_ENTRY])),
    ("categories-unsorted",
     json.dumps([{"name": "f0", "kind": "categorical", "categories": ["b", "a"]}, LABEL_ENTRY])),
    ("categories-duplicated",
     json.dumps([{"name": "f0", "kind": "categorical", "categories": ["a", "a"]}, LABEL_ENTRY])),
    ("categories-question-mark",
     json.dumps([{"name": "f0", "kind": "categorical", "categories": ["?", "a"]}, LABEL_ENTRY])),
    ("categories-empty-string",
     json.dumps([{"name": "f0", "kind": "categorical", "categories": ["", "a"]}, LABEL_ENTRY])),
]

CASES = (
    [pytest.param("verify", text, 3, id=f"verifier-{name}") for name, text in MALFORMED_VERIFIERS]
    + [pytest.param("sidecar", text, 3, id=f"sidecar-{name}") for name, text in MALFORMED_SIDECARS]
    + [
        pytest.param("train", "{not json", 2, id="train-config-not-json"),
        pytest.param("train", "[1]", 2, id="train-config-a-list"),
        pytest.param("train", json.dumps({"l2": "big"}), 2, id="train-config-l2-a-string"),
        pytest.param("train", json.dumps({"depth": 3}), 2, id="train-config-unknown-key"),
        pytest.param("experiment", json.dumps({"trails": 2}), 2,
                     id="experiment-config-unknown-key"),
        pytest.param("experiment", json.dumps({"synthetic": {"row": 60}}), 2,
                     id="experiment-synthetic-unknown-key"),
        pytest.param("experiment", "{not json", 2, id="experiment-config-not-json"),
        pytest.param("experiment", json.dumps({"trials": "2"}), 2,
                     id="experiment-config-trials-a-string"),
        pytest.param("experiment", json.dumps({"synthetic": {"rows": "x"}}), 2,
                     id="experiment-config-synthetic-rows-a-string"),
        pytest.param("experiment", json.dumps({"epsilon_grid": 5}), 2,
                     id="experiment-config-epsilon-grid-not-a-list"),
    ]
    + [
        pytest.param("experiment", json.dumps(config), 2, id=f"experiment-config-{name}")
        for name, config in (
            ("shap-budget-a-float", {"explainer": "shap", "shap_budget": 1.5}),
            ("shap-budget-a-bool", {"explainer": "shap", "shap_budget": True}),
            ("shap-budget-zero", {"explainer": "shap", "shap_budget": 0}),
            ("lime-ridge-negative", {"lime_ridge": -1}),
            ("lime-num-samples-2", {"lime_num_samples": 2}),
            ("lime-kernel-width-negative", {"lime_kernel_width": -1}),
        )
    ]
)


@pytest.mark.parametrize("command, text, code", CASES)
def test_malformed_file_is_a_config_or_data_error(tmp_path, capsys, command, text, code):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_text("f0,label\n0.5,0\n1.5,1\n2.5,0\n3.5,1\n", encoding="utf-8")
    for c in VECTORS:
        responses_to_csv(responses(c).matrix, ("a",), str(tmp_path / f"r{c}.csv"))
    out = str(tmp_path / "out")
    argv = {
        "verify": ["verify", "--verifier", str(bad), "--target", str(tmp_path / "r1.csv"),
                   "--reference", str(tmp_path / "r0.csv")],
        "sidecar": ["privatize", "--input", str(data), "--epsilon", "1", "--schema", str(bad),
                    "--output", out],
        "train": ["train", "--input", str(data), "--config", str(bad), "--output", out],
        "experiment": ["experiment", "--config", str(bad), "--out-dir", out],
    }[command]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "data error: "), err


ZERO_ROW_TARGET = "a,intercept,yhat\n0.5,0.4,1.0\n0.0,0.0,0.0\n0.6,0.5,1.0\n0.5,0.4,1.0\n"
ZERO_ROW_ERROR = (
    "model 'target' responds to query 1 with a zero vector; "
    "cosine distance is undefined for zero vectors"
)


def test_cli_verify_names_the_query_and_model_of_a_zero_response(tmp_path, capsys):
    verifier, target = tmp_path / "threshold.json", tmp_path / "target.csv"
    verifier.write_bytes(GOLDEN["threshold"].encode())
    target.write_text(ZERO_ROW_TARGET, encoding="utf-8")
    responses_to_csv(responses(0).matrix, ("a",), str(tmp_path / "r0.csv"))
    capsys.readouterr()
    argv = ["verify", "--verifier", str(verifier), "--target", str(target),
            "--reference", str(tmp_path / "r0.csv")]
    assert main(argv) == 3
    assert capsys.readouterr().err.strip() == f"data error: {ZERO_ROW_ERROR}"


def test_classify_and_fit_name_the_query_and_model_of_a_zero_response():
    verifier = fit("threshold")[0]
    target = Responses(np.array(VECTORS[2]), "target")
    target.matrix[1] = 0.0
    with pytest.raises(DataError) as exc:
        classify(verifier, target, reference=responses(0))
    assert str(exc.value) == ZERO_ROW_ERROR
    # the reference's zero row is named as the reference's
    reference = Responses(np.array(VECTORS[0]), "m0")
    reference.matrix[2] = 0.0
    with pytest.raises(DataError, match=r"^model 'm0' responds to query 2 with a zero"):
        classify(verifier, responses(2), reference=reference)
    # a model whose every response is zero, under concatenated granularity
    zero = Responses(np.zeros((4, 3)), "m1")
    data = LabeledResponseSet(
        [(PipelineLabel(0, True, ()), responses(0)), (PipelineLabel(1, False, None), zero)],
        "binary",
    )
    with pytest.raises(DataError, match=r"^model 'm1' responds to every query with a zero"):
        fit_threshold_verifier(responses(0), data, "concatenated")


def test_cli_verify_rejects_a_target_that_skips_a_reference_query(tmp_path, capsys):
    # a target CSV one row short used to be voted on its first rows only
    verifier, target = tmp_path / "threshold.json", tmp_path / "target.csv"
    verifier.write_bytes(GOLDEN["threshold"].encode())
    responses_to_csv(responses(2).matrix[:-1], ("a",), str(target))
    responses_to_csv(responses(0).matrix, ("a",), str(tmp_path / "r0.csv"))
    capsys.readouterr()
    argv = ["verify", "--verifier", str(verifier), "--target", str(target),
            "--reference", str(tmp_path / "r0.csv")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "data error: model 'target' gives (3, 3) responses where the reference gives (4, 3)"
    )


@pytest.mark.parametrize("method, granularity", [
    ("ml", "per_query"), ("threshold", "per_query"), ("threshold", "concatenated"),
])
def test_cli_fit_verifier_rejects_one_file_under_two_class_ids(tmp_path, capsys, method,
                                                                granularity):
    path = str(tmp_path / "r.csv")
    responses_to_csv(responses(0).matrix, ("a",), path)
    capsys.readouterr()
    argv = ["fit-verifier", "--method", method, "--granularity", granularity,
            "--responses", f"1={path}", "--responses", f"2={path}", "--reference", path,
            "--output", str(tmp_path / "v.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err.strip()
    assert err == f"data error: model tag {path!r} carries conflicting labels"


def two_feature_csvs(tmp_path):
    """A reference CSV headed a,b,... and a target CSV of the same numbers
    headed b,a,..., so that pairing columns by position finds them equal."""
    matrix = np.array([[0.3, 0.1, 0.5, 1.0], [0.2, 0.4, 0.5, 0.0], [0.6, 0.1, 0.4, 1.0]])
    reference, target = str(tmp_path / "ref.csv"), str(tmp_path / "target.csv")
    responses_to_csv(matrix, ("a", "b"), reference)
    responses_to_csv(matrix, ("b", "a"), target)
    return reference, target


@pytest.mark.parametrize("granularity", ["per_query", "concatenated"])
def test_cli_verify_rejects_a_target_whose_columns_are_permuted(tmp_path, capsys, granularity):
    # by position the target equals the reference: proper, confidence 1.0
    reference, target = two_feature_csvs(tmp_path)
    verifier = tmp_path / "threshold.json"
    verifier.write_text(edit("threshold", lambda e: e["payload"].update(granularity=granularity)))
    capsys.readouterr()
    argv = ["verify", "--verifier", str(verifier), "--target", target, "--reference", reference]
    assert main(argv) == 3
    assert capsys.readouterr().err.strip() == (
        "data error: model 'target' has response columns b,a,intercept,yhat "
        "where model 'reference' has a,b,intercept,yhat")


@pytest.mark.parametrize("method", ["ml", "threshold"])
def test_cli_fit_verifier_rejects_a_responses_file_whose_columns_are_permuted(tmp_path, capsys,
                                                                              method):
    reference, target = two_feature_csvs(tmp_path)
    capsys.readouterr()
    argv = ["fit-verifier", "--method", method, "--responses", f"0={reference}",
            "--responses", f"1={target}", "--reference", reference,
            "--output", str(tmp_path / "v.json")]
    assert main(argv) == 3
    assert capsys.readouterr().err.strip() == (
        f"data error: model {target!r} has response columns b,a,intercept,yhat "
        f"where model {reference!r} has a,b,intercept,yhat")
