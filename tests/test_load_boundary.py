"""Files read at the load boundary: version-2 verifier files load and are
rewritten byte for byte, version-1 files are refused, and every malformed
verifier, model file, schema sidecar, JSON config or response CSV, every
non-finite setting, and every data cell that cannot be noised or trained
on, ends in a config or data error with exit code 2 or 3."""

import dataclasses
import json

import numpy as np
import pytest

from ppverify.cli import main
from ppverify.errors import ConfigError, DataError
from ppverify.experiment import ExperimentConfig
from ppverify.explain import LimeConfig, ShapConfig
from ppverify.models import TrainConfig
from ppverify.preprocess import PipelineLabel
from ppverify.tabular import SyntheticSpec
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

# Responses of three models (class 0 is proper) over four queries, as the
# CSVs that `responses_to_csv(..., ("a",), ...)` writes name their columns.
VECTORS = {
    0: [[1.0, 0.0, 0.5], [0.9, 0.1, 0.5], [1.0, 0.2, 0.5], [0.8, 0.0, 0.5]],
    1: [[0.0, 1.0, 0.5], [0.1, 0.9, 0.5], [0.2, 1.0, 0.5], [0.0, 0.8, 0.5]],
    2: [[0.5, 0.5, 1.0], [0.4, 0.6, 1.0], [0.6, 0.5, 1.0], [0.5, 0.4, 1.0]],
}
COLUMNS = ("a", "intercept", "yhat")

# `ppverify fit-verifier` output for VECTORS' CSVs, byte for byte:
#   ml:        --method ml --task binary --arch logreg --seed 0, classes 0 and 1
#   threshold: --method threshold --task multi, classes 0-2, reference class 0
GOLDEN = {
    "ml": (
        '{"format": "ppverify-verifier", "version": 2, "method": "ml", "task": "binary", '
        '"payload": {"format": "ppverify-model", "version": 1, "architecture": "logreg", '
        '"feature_names": ["a", "intercept", "yhat"], "class_values": [0.0, 1.0], "params": '
        '{"weights": [[2.736718747188496, -2.7367187471884975], '
        "[-2.7367187471884975, 2.7367187471884966], "
        "[8.666113286849356e-17, -1.1099033826946546e-16]], "
        '"bias": [1.751637029867581e-16, -2.235191198796115e-16]}}}\n'
    ),
    "threshold": (
        '{"format": "ppverify-verifier", "version": 2, "method": "threshold", "task": "multi", '
        '"payload": {"granularity": "per_query", "tau": null, "centroids": {"0": 0.0, '
        '"1": 0.6533389989311882, "2": 0.22805605407973545}}}\n'
    ),
}

# The same fits as written by version 1 of the format, which named the ml
# verifier's features r0..r2 whatever the CSVs named them.
GOLDEN_V1 = {
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
    return Responses(np.array(VECTORS[cls]), f"m{cls}", COLUMNS)


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


def write_csvs(tmp_path):
    """VECTORS as response CSVs r0.csv, r1.csv and r2.csv under `tmp_path`."""
    for c in VECTORS:
        responses_to_csv(responses(c).matrix, ("a",), str(tmp_path / f"r{c}.csv"))


@pytest.mark.parametrize("method", ["ml", "threshold"])
def test_version_2_verifier_file_loads_and_is_written_byte_for_byte(tmp_path, capsys, method):
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
    save_verifier(loaded, str(again))
    assert again.read_bytes() == GOLDEN[method].encode()

    # `ppverify verify` prints the verdict it printed for the version-1 file
    write_csvs(tmp_path)
    argv = ["verify", "--verifier", str(path), "--target", str(tmp_path / f"r{expected[0]}.csv")]
    capsys.readouterr()
    assert main(argv + (["--reference", str(tmp_path / "r0.csv")] if reference else [])) == 0
    assert json.loads(capsys.readouterr().out) == {
        "task": "binary" if method == "ml" else "multi",
        "class_id": expected[0],
        "is_proper": False,
        "omitted_steps": None,
        "votes": {str(k): n for k, n in expected[1].items()},
        "confidence": 1.0,
    }


@pytest.mark.parametrize("method", ["ml", "threshold"])
def test_version_1_verifier_file_is_refused(tmp_path, capsys, method):
    # version 1 named no response columns, so its ml verifier could not check a target's
    path = tmp_path / "v1.json"
    path.write_bytes(GOLDEN_V1[method].encode())
    write_csvs(tmp_path)
    capsys.readouterr()
    argv = ["verify", "--verifier", str(path), "--target", str(tmp_path / "r1.csv"),
            "--reference", str(tmp_path / "r0.csv")]
    assert main(argv) == 3
    assert capsys.readouterr().err.strip() == (
        f"data error: {path}: verifier file version 1 is not read; "
        "refit it with `ppverify fit-verifier` to write version 2")


def edit(method, change):
    envelope = json.loads(GOLDEN[method])
    change(envelope)
    return json.dumps(envelope)


def drop_task_and_tau(e):
    e["task"] = "binary"
    e["payload"]["centroids"] = None


def binary_threshold_with_tau(tau):
    """The threshold GOLDEN as a binary verifier whose file holds `tau`."""
    def change(e):
        drop_task_and_tau(e)
        e["payload"]["tau"] = tau
    return edit("threshold", change)


MALFORMED_VERIFIERS = [
    ("not-json", "{not json"),
    ("a-list", "[1, 2]"),
    ("wrong-format", edit("ml", lambda e: e.update(format="ppverify-model"))),
    ("wrong-version", edit("ml", lambda e: e.update(version=3))),
    ("no-method", edit("threshold", lambda e: e.pop("method"))),
    ("bogus-method", edit("threshold", lambda e: e.update(method="bogus"))),
    ("no-task", edit("ml", lambda e: e.pop("task"))),
    ("weird-task", edit("ml", lambda e: e.update(task="weird"))),
    ("no-payload", edit("ml", lambda e: e.pop("payload"))),
    ("ml-bad-model", edit("ml", lambda e: e["payload"]["params"].pop("weights"))),
    ("ml-not-a-class-id", edit("ml", lambda e: e["payload"].update(class_values=[0.0, 2.5]))),
    # a model's classes are distinct and increasing, as training writes them
    ("ml-classes-repeated", edit("ml", lambda e: e["payload"].update(class_values=[1.0, 1.0]))),
    ("threshold-no-tau", edit("threshold", lambda e: e["payload"].pop("tau"))),
    ("threshold-binary-without-tau", edit("threshold", drop_task_and_tau)),
    ("threshold-bad-granularity",
     edit("threshold", lambda e: e["payload"].update(granularity="bogus"))),
    ("threshold-bad-centroid",
     edit("threshold", lambda e: e["payload"]["centroids"].update({"1": "far"}))),
    # Python's json writes and reads NaN and Infinity; JSON has no such values
    ("threshold-tau-NaN", binary_threshold_with_tau(float("nan"))),
    ("threshold-tau-Infinity", binary_threshold_with_tau(float("inf"))),
    # and reads 1e400, which no float holds, as inf
    ("threshold-tau-1e400", binary_threshold_with_tau(0.125).replace("0.125", "1e400")),
    ("ml-bias--Infinity",
     edit("ml", lambda e: e["payload"]["params"]["bias"].__setitem__(0, float("-inf")))),
    # tau and the centroids are JSON numbers: true used to load as 1.0
    ("threshold-tau-true", binary_threshold_with_tau(True)),
    ("threshold-tau-a-string", binary_threshold_with_tau("0.5")),
    ("threshold-centroid-true",
     edit("threshold", lambda e: e["payload"]["centroids"].update({"1": True}))),
    ("threshold-tau-an-int-no-float-holds",
     binary_threshold_with_tau(0.125).replace("0.125", "1" + "0" * 400)),
    # so are the numbers of the ML verifier's model: true used to load as 1.0
    ("ml-weight-true",
     edit("ml", lambda e: e["payload"]["params"]["weights"][0].__setitem__(0, True))),
]

# A logreg model file over the feature f0
MODEL = ('{"format": "ppverify-model", "version": 1, "architecture": "logreg", '
         '"feature_names": ["f0"], "class_values": [0.0, 1.0], '
         '"params": {"weights": [[0.25, -0.25]], "bias": [0.0, 0.0]}}')
# A dtree model file over the feature f0: one split at 2.0
DTREE_MODEL = ('{"format": "ppverify-model", "version": 1, "architecture": "dtree", '
               '"feature_names": ["f0"], "class_values": [0.0, 1.0], '
               '"params": {"feature": [0, -1, -1], "threshold": [2.0, 0.0, 0.0], '
               '"left": [1, -1, -1], "right": [2, -1, -1], '
               '"dist": [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]}}')

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
    # is_label is a JSON boolean: "no" used to make f0 the label, and 0 to read as false
    ("is-label-a-string", json.dumps([
        {"name": "f0", "kind": "numeric-continuous", "is_label": "no"},
        {"name": "label", "kind": "numeric-discrete", "is_label": 0}])),
    ("is-label-zero",
     json.dumps([{"name": "f0", "kind": "numeric-continuous", "is_label": 0}, LABEL_ENTRY])),
]

CASES = (
    [pytest.param("verify", text, 3, id=f"verifier-{name}") for name, text in MALFORMED_VERIFIERS]
    + [pytest.param("sidecar", text, 3, id=f"sidecar-{name}") for name, text in MALFORMED_SIDECARS]
    + [
        pytest.param("train", "{not json", 2, id="train-config-not-json"),
        pytest.param("train", "[1]", 2, id="train-config-a-list"),
        pytest.param("train", json.dumps({"l2": "big"}), 2, id="train-config-l2-a-string"),
        pytest.param("train", json.dumps({"depth": 3}), 2, id="train-config-unknown-key"),
        pytest.param("train", json.dumps({"l2": float("nan")}), 2, id="train-config-l2-NaN"),
        pytest.param("train", '{"learning_rate": 1e400}', 2,
                     id="train-config-learning-rate-1e400"),
        pytest.param("train", '{"learning_rate": 1%s}' % ("0" * 400), 2,
                     id="train-config-learning-rate-an-int-no-float-holds"),
        pytest.param("respond", MODEL.replace("0.25", "1e400"), 3, id="model-weight-1e400"),
        # model files hold JSON numbers, and node indices are integers
        pytest.param("respond", MODEL.replace("[[0.25", '[["0.25"'), 3, id="model-weight-a-string"),
        pytest.param("respond", MODEL.replace('"bias": [0.0', '"bias": [true'), 3,
                     id="model-bias-true"),
        pytest.param("respond", MODEL.replace("[0.0, 1.0]", "[true, 1.0]"), 3,
                     id="model-class-values-true"),
        pytest.param("respond", MODEL.replace("[0.0, 1.0]", "[1.0, 1.0]"), 3,
                     id="model-class-values-repeated"),
        pytest.param("respond", DTREE_MODEL.replace('"left": [1,', '"left": [1.6,'), 3,
                     id="model-dtree-left-a-fraction"),
        pytest.param("respond", "[" * 100_000 + "]" * 100_000, 3, id="model-nested-too-deep"),
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
        pytest.param("experiment", '{"synthetic": {"separation": 1%s}}' % ("0" * 400), 2,
                     id="experiment-synthetic-separation-an-int-no-float-holds"),
        pytest.param("experiment", json.dumps({"synthetic": None}), 2,
                     id="experiment-config-synthetic-null-under-a-synthetic-source"),
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
    write_csvs(tmp_path)
    out = str(tmp_path / "out")
    argv = {
        "verify": ["verify", "--verifier", str(bad), "--target", str(tmp_path / "r1.csv"),
                   "--reference", str(tmp_path / "r0.csv")],
        "sidecar": ["privatize", "--input", str(data), "--epsilon", "1", "--schema", str(bad),
                    "--output", out],
        "train": ["train", "--input", str(data), "--config", str(bad), "--output", out],
        "respond": ["respond", "--model", str(bad), "--queries", str(data), "--num-samples",
                    "20", "--output", out],
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


def test_cli_ml_verify_rejects_a_target_whose_columns_are_permuted(tmp_path, capsys):
    # the ml verifier used to name its features r0..r3 and vote on any header
    reference, target = two_feature_csvs(tmp_path)
    improper, verifier = str(tmp_path / "improper.csv"), str(tmp_path / "ml.json")
    responses_to_csv(np.array([[0.1, 0.9, 0.2, 0.0], [0.0, 0.7, 0.1, 1.0]]), ("a", "b"), improper)
    assert main(["fit-verifier", "--method", "ml", "--responses", f"0={reference}",
                 "--responses", f"1={improper}", "--output", verifier]) == 0
    assert main(["verify", "--verifier", verifier, "--target", reference]) == 0
    capsys.readouterr()
    assert main(["verify", "--verifier", verifier, "--target", target]) == 3
    assert capsys.readouterr().err.strip() == (
        "data error: model 'target' has response columns b,a,intercept,yhat "
        "where the ml verifier has a,b,intercept,yhat")


def test_cli_rejects_a_responses_file_that_repeats_a_column(tmp_path, capsys):
    # a feature named intercept; the ml verifier used to train on such files
    path, other = tmp_path / "r0.csv", tmp_path / "r1.csv"
    path.write_text("intercept,intercept,yhat\n0.5,0.4,1.0\n0.2,0.3,0.0\n", encoding="utf-8")
    other.write_text("intercept,intercept,yhat\n0.1,0.9,0.0\n0.3,0.8,1.0\n", encoding="utf-8")
    capsys.readouterr()
    argv = ["fit-verifier", "--method", "ml", "--responses", f"0={path}",
            "--responses", f"1={other}", "--output", str(tmp_path / "v.json")]
    assert main(argv) == 3
    assert capsys.readouterr().err.strip() == (
        f"data error: {path}: the header repeats column intercept")


def test_cli_respond_refuses_to_write_a_header_that_repeats_a_column(tmp_path, capsys):
    # the response columns are the features, then intercept and yhat
    data, model, out = tmp_path / "data.csv", tmp_path / "m.json", tmp_path / "r.csv"
    data.write_text("intercept,label\n" + "".join(f"{i * 0.5},{i % 2}\n" for i in range(20)),
                    encoding="utf-8")
    assert main(["train", "--input", str(data), "--arch", "dtree", "--output", str(model)]) == 0
    capsys.readouterr()
    argv = ["respond", "--model", str(model), "--queries", str(data), "--num-samples", "20",
            "--output", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err.strip() == (
        f"data error: {out}: the header repeats column intercept")
    assert not out.exists()


def test_cli_train_takes_the_seed_from_a_config_file(tmp_path):
    data, config = tmp_path / "data.csv", tmp_path / "config.json"
    data.write_text("f0,f1,label\n" + "".join(
        f"{i % 7 * 0.5},{i % 5 * 0.25},{i % 2}\n" for i in range(40)), encoding="utf-8")
    config.write_text('{"seed": 3}', encoding="utf-8")
    by_flag, by_config = tmp_path / "flag.json", tmp_path / "config_model.json"
    argv = ["train", "--input", str(data), "--arch", "rforest"]
    assert main(argv + ["--seed", "3", "--output", str(by_flag)]) == 0
    assert main(argv + ["--config", str(config), "--output", str(by_config)]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()
    assert main(argv + ["--output", str(tmp_path / "seed0.json")]) == 0
    assert (tmp_path / "seed0.json").read_bytes() != by_flag.read_bytes()


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


def non_finite_responses(tmp_path, cell):
    """A response CSV for VECTORS' queries whose second row holds `cell`."""
    path = tmp_path / "bad.csv"
    path.write_text(f"a,intercept,yhat\n0.5,0.4,1.0\n{cell},{cell},{cell}\n"
                    "0.6,0.5,1.0\n0.5,0.4,1.0\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("method, cell", [
    ("ml", "nan"), ("threshold", "nan"), ("threshold", "inf"), ("threshold", "-inf"),
])
def test_cli_verify_rejects_a_target_with_a_non_finite_response(tmp_path, capsys, method, cell):
    verifier, reference = tmp_path / "v.json", str(tmp_path / "r0.csv")
    verifier.write_bytes(GOLDEN[method].encode())
    responses_to_csv(responses(0).matrix, ("a",), reference)
    target = non_finite_responses(tmp_path, cell)
    capsys.readouterr()
    argv = ["verify", "--verifier", str(verifier), "--target", target, "--reference", reference]
    assert main(argv) == 3
    assert capsys.readouterr().err.strip() == (
        f"data error: {target} line 3: non-finite response cell")


@pytest.mark.parametrize("method", ["ml", "threshold"])
def test_cli_fit_verifier_rejects_a_non_finite_response(tmp_path, capsys, method):
    reference = str(tmp_path / "r0.csv")
    responses_to_csv(responses(0).matrix, ("a",), reference)
    bad = non_finite_responses(tmp_path, "inf")
    capsys.readouterr()
    argv = ["fit-verifier", "--method", method, "--responses", f"0={reference}",
            "--responses", f"1={bad}", "--reference", reference,
            "--output", str(tmp_path / "v.json")]
    assert main(argv) == 3
    assert capsys.readouterr().err.strip() == f"data error: {bad} line 3: non-finite response cell"


@pytest.mark.parametrize("command, error", [
    ("privatize", "cannot noise column 'f1': its Laplace scale is inf"),
    ("train", "training data holds infinite feature cells"),
], ids=["privatize", "train"])
def test_cli_rejects_an_infinite_data_cell_it_would_noise_or_train_on(tmp_path, capsys, command,
                                                                     error):
    # load_csv keeps the cell. Noised at this seed, it used to turn every
    # other f1 cell but one into inf; a tree used to train on it
    data, out = tmp_path / "data.csv", str(tmp_path / "out")
    data.write_text("f0,f1,label\n0.5,1.5,0\n1.5,inf,1\n2.5,2.25,0\n3.5,0.5,1\n",
                    encoding="utf-8")
    argv = {
        "privatize": ["privatize", "--input", str(data), "--epsilon", "1", "--seed", "3",
                      "--output", out],
        "train": ["train", "--input", str(data), "--arch", "dtree", "--output", out],
    }[command]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err.strip() == f"data error: {error}"


# Every float setting, and the SHAP budget, which is an int or "exact"
SETTINGS = [(cls, f.name) for cls in (TrainConfig, ExperimentConfig, SyntheticSpec, LimeConfig)
            for f in dataclasses.fields(cls) if "float" in str(f.type)]
SETTINGS.append((ShapConfig, "coalition_budget"))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, name", SETTINGS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in SETTINGS])
def test_a_non_finite_setting_is_a_config_error(cls, name, value):
    with pytest.raises(ConfigError):
        cfg = cls(**{name: value})
        if hasattr(cfg, "validate"):
            cfg.validate()


def overflow_model(tmp_path):
    """A logreg model file whose weights overflow every logit to +-inf."""
    path = tmp_path / "overflow.json"
    path.write_text(MODEL.replace("[[0.25, -0.25]]", "[[1e308, -1e308]]"), encoding="utf-8")
    return str(path)


SYNTH = ["synth", "--rows", "50", "--features", "3"]
RESPOND = ["respond", "--queries", "{data}", "--num-samples", "20"]
OVERFLOW = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.mark.parametrize("argv, code", [
    pytest.param(SYNTH + ["--separation", "nan"], 2, id="synth-separation-nan"),
    pytest.param(SYNTH + ["--separation", "inf"], 2, id="synth-separation-inf"),
    pytest.param(SYNTH + ["--imbalance", "nan"], 2, id="synth-imbalance-nan"),
    pytest.param(SYNTH + ["--duplicates", "nan"], 2, id="synth-duplicates-nan"),
    pytest.param(RESPOND + ["--model", "{model}", "--ridge", "nan"], 2, id="respond-ridge-nan"),
    pytest.param(RESPOND + ["--model", "{model}", "--kernel-width", "nan"], 2,
                 id="respond-kernel-width-nan"),
    pytest.param(RESPOND + ["--model", "{overflow}"], 3, id="respond-lime-overflow",
                 marks=OVERFLOW),
    pytest.param(RESPOND + ["--model", "{overflow}", "--explainer", "shap", "--budget", "64"],
                 3, id="respond-shap-overflow", marks=OVERFLOW),
])
def test_cli_refuses_a_non_finite_setting_or_response_and_writes_nothing(tmp_path, capsys,
                                                                         argv, code):
    # each used to exit 0 with a file of nan (or empty) cells, or exit 4
    data, model, out = tmp_path / "data.csv", tmp_path / "m.json", tmp_path / "out.csv"
    data.write_text("f0,label\n0.5,0\n1.5,1\n2.5,0\n3.5,1\n", encoding="utf-8")
    model.write_text(MODEL, encoding="utf-8")
    paths = {"data": data, "model": model, "overflow": overflow_model(tmp_path)}
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv] + ["--output", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "data error: "), err
    assert not out.exists()


def test_synth_refuses_a_negative_seed_and_writes_nothing(tmp_path, capsys):
    # it used to end in "internal error: expected non-negative integer" (exit 4)
    out = tmp_path / "x.csv"
    capsys.readouterr()
    assert main(["synth", "--seed", "-1", "--output", str(out)]) == 2
    assert capsys.readouterr().err.strip() == "config error: seed must be non-negative, got -1"
    assert not out.exists()


# Bytes of a data or response CSV cell that the csv module cannot read
UNREADABLE = {"latin-1": b"caf\xe9", "long-field": b"x" * 200_000}
UNREADABLE_ERRORS = {"latin-1": "{path}: not UTF-8 text (invalid continuation byte)",
                     "long-field": "{path} line 3: field larger than field limit (131072)"}


@pytest.mark.parametrize("fault", UNREADABLE)
@pytest.mark.parametrize("command", ["privatize", "verify", "fit-verifier"])
def test_cli_refuses_a_csv_it_cannot_read_and_writes_nothing(tmp_path, capsys, command, fault):
    # each used to end in "internal error" (exit 4)
    bad, out, verifier = tmp_path / "bad.csv", tmp_path / "out", tmp_path / "v.json"
    if command == "privatize":
        bad.write_bytes(b"f0,label\n0.5,0\n%s,1\n2.5,0\n3.5,1\n" % UNREADABLE[fault])
    else:
        bad.write_bytes(b"a,intercept,yhat\n0.5,0.4,1.0\n%s,0.1,1.0\n0.6,0.5,1.0\n"
                        b"0.5,0.4,1.0\n" % UNREADABLE[fault])
    verifier.write_bytes(GOLDEN["threshold"].encode())
    write_csvs(tmp_path)
    reference = str(tmp_path / "r0.csv")
    argv = {
        "privatize": ["privatize", "--input", str(bad), "--epsilon", "1"],
        "verify": ["verify", "--verifier", str(verifier), "--target", str(bad),
                   "--reference", reference],
        "fit-verifier": ["fit-verifier", "--method", "threshold", "--task", "multi",
                         "--responses", f"0={reference}", "--responses", f"1={bad}",
                         "--reference", reference],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--output", str(out)]) == 3
    assert capsys.readouterr().err.strip() == (
        "data error: " + UNREADABLE_ERRORS[fault].format(path=bad))
    assert not out.exists()


def test_a_leading_byte_order_mark_is_not_part_of_the_first_column_name(tmp_path):
    # train used to name the feature '\ufefff0'
    data, model = tmp_path / "data.csv", tmp_path / "m.json"
    data.write_text("\ufefff0,label\n0.5,0\n1.5,1\n2.5,0\n3.5,1\n", encoding="utf-8")
    assert main(["train", "--input", str(data), "--arch", "dtree", "--output", str(model)]) == 0
    assert json.loads(model.read_text(encoding="utf-8"))["feature_names"] == ["f0"]


@pytest.mark.parametrize("flag, header", [
    ("--queries", "f1,f0,label"),
    ("--queries", "f0,f1,f2,label"),
    ("--background", "f1,f0,label"),
], ids=["queries-swapped", "queries-one-feature-too-many", "background-swapped"])
def test_cli_respond_refuses_features_that_are_not_the_models(tmp_path, capsys, flag, header):
    # swapped columns used to be explained under each other's weights (exit
    # 0); a feature too many ended in "internal error: matmul: ..." (exit 4)
    data, other = tmp_path / "data.csv", tmp_path / "other.csv"
    model, out = tmp_path / "m.json", tmp_path / "r.csv"
    data.write_text("f0,f1,label\n" + "".join(
        f"{i % 7 * 0.5},{i % 5 * 0.25},{i % 2}\n" for i in range(20)), encoding="utf-8")
    features = header.count(",")
    other.write_text(header + "\n" + "".join("0.5," * features + f"{i % 2}\n" for i in range(20)),
                     encoding="utf-8")
    assert main(["train", "--input", str(data), "--arch", "logreg", "--output", str(model)]) == 0
    queries = str(other if flag == "--queries" else data)
    argv = ["respond", "--model", str(model), "--queries", queries, "--num-samples", "20",
            "--output", str(out)]
    capsys.readouterr()
    assert main(argv + (["--background", str(other)] if flag == "--background" else [])) == 3
    assert capsys.readouterr().err.strip() == (
        f"data error: {other}: features {header.rsplit(',', 1)[0]} do not match the model's "
        "training features f0,f1")
    assert not out.exists()
