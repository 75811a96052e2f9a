"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
error. The PPV_SEED environment variable overrides the experiment master
seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, DataError, PPVerifyError, check_known_keys, read_json
from .experiment import EXPLAINERS, METHODS, ExperimentConfig, emit_report, run_experiment
from .explain import EXACT, LimeConfig, ShapConfig
from .ldp import PrivacyBudget, privatize
from .membership import AttackConfig, mia_power
from .models import ARCHITECTURES, TrainConfig, check_features, load_model, save_model, train
from .preprocess import ENUMERATION_MODES, Pipeline, apply_pipeline, enumerate_pipelines
from .tabular import (
    SyntheticSpec,
    load_csv,
    load_schema_sidecar,
    make_synthetic,
    write_csv,
    write_schema_sidecar,
)
from .verify import (
    GRANULARITIES,
    TASKS,
    LabeledResponseSet,
    bare_label,
    build_responses,
    classify,
    fit_ml_verifier,
    fit_threshold_verifier,
    load_verifier,
    responses_from_csv,
    responses_to_csv,
    save_verifier,
)


#: The `synth` flags, in order, and the SyntheticSpec field each one sets.
_SYNTH_FLAGS = {"rows": "rows", "features": "features", "classes": "classes",
                "separation": "separation", "imbalance": "imbalance",
                "duplicates": "duplicate_fraction", "outliers": "outlier_fraction",
                "missing": "missing_fraction"}


def _load_dataset(path, schema_path=None):
    return load_csv(path, schema=load_schema_sidecar(schema_path) if schema_path else None)


def _parse_budget_flag(text):
    if text == "exact":
        return EXACT
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"--budget must be an integer or 'exact', got {text!r}") from None


def _explainer_from_args(args):
    if args.explainer == "lime":
        return LimeConfig(
            num_samples=args.num_samples,
            kernel_width=args.kernel_width,
            ridge_strength=args.ridge,
            seed=args.seed,
        )
    return ShapConfig(
        coalition_budget=_parse_budget_flag(args.budget),
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args) -> int:
    spec = SyntheticSpec(**{field: getattr(args, flag) for flag, field in _SYNTH_FLAGS.items()})
    d = make_synthetic(spec, args.seed)
    write_csv(d, args.output)
    if args.schema_out:
        write_schema_sidecar(d.schema, args.schema_out)
    print(f"wrote {d.n_rows} rows to {args.output}")
    return 0


def cmd_privatize(args) -> int:
    d = _load_dataset(args.input, args.schema)
    budget = PrivacyBudget.parse(args.epsilon)
    released = privatize(d, budget, args.seed, noise_label=args.noise_label)
    write_csv(released, args.output)
    print(f"wrote noised release to {args.output}")
    return 0


def cmd_preprocess(args) -> int:
    if args.test and not args.test_output:
        raise ConfigError("--test-output is required when --test is given")
    d = _load_dataset(args.input, args.schema)
    pipeline = Pipeline.from_bitmask(args.pipeline)
    match = [
        label
        for pipe, label in enumerate_pipelines(args.mode)
        if pipe.bitmask == pipeline.bitmask
    ]
    if not match:
        raise ConfigError(
            f"pipeline bitmask {args.pipeline} is not part of mode {args.mode!r}"
        )
    test = _load_dataset(args.test, args.schema) if args.test else None
    tr, te = apply_pipeline(d, test, pipeline, args.seed)
    write_csv(tr, args.output)
    if te is not None:
        write_csv(te, args.test_output)
    print(
        f"applied {pipeline.describe()} (class {match[0].class_id}): "
        f"{d.n_rows} -> {tr.n_rows} rows"
    )
    return 0


def cmd_train(args) -> int:
    d = _load_dataset(args.input, args.schema)
    overrides = {}
    if args.config:
        overrides = read_json(args.config, ConfigError)
        if not isinstance(overrides, dict):
            raise ConfigError("--config must hold a JSON object of hyperparameters")
        check_known_keys(overrides, TrainConfig, "hyperparameters")
    cfg = TrainConfig(**{"architecture": args.arch, "seed": args.seed, **overrides})
    model = train(d, cfg)
    save_model(model, args.output)
    print(f"trained {cfg.architecture} on {d.n_rows} rows -> {args.output}")
    return 0


def cmd_respond(args) -> int:
    model = load_model(args.model)
    queries = _load_dataset(args.queries, args.schema)
    background = _load_dataset(args.background, args.schema) if args.background else queries
    check_features(model, queries, args.queries)
    check_features(model, background, args.background or args.queries)
    responses = build_responses([model], [queries], _explainer_from_args(args), [background])
    responses_to_csv(responses, queries.feature_names, args.output)
    print(f"wrote {len(responses)} responses to {args.output}")
    return 0


def _parse_labeled_responses(specs):
    items = []
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"--responses expects CLASS_ID=FILE, got {spec!r}")
        cls_text, path = spec.split("=", 1)
        try:
            cls = int(cls_text)
        except ValueError:
            raise ConfigError(f"--responses class id must be an integer, got {cls_text!r}") from None
        if cls < 0:
            raise ConfigError("--responses class id must be non-negative")
        items.append((bare_label(cls), responses_from_csv(path, model_tag=path)))
    return items


def cmd_fit_verifier(args) -> int:
    labeled = LabeledResponseSet(_parse_labeled_responses(args.responses), args.task)
    if args.method == "ml":
        verifier = fit_ml_verifier(labeled, TrainConfig(architecture=args.arch, seed=args.seed))
    else:
        if not args.reference:
            raise ConfigError("--reference is required for the threshold method")
        reference = responses_from_csv(args.reference, model_tag="reference")
        verifier = fit_threshold_verifier(reference, labeled, args.granularity)
    save_verifier(verifier, args.output)
    print(f"fitted {args.method} verifier -> {args.output}")
    return 0


def cmd_verify(args) -> int:
    verifier = load_verifier(args.verifier)
    target = responses_from_csv(args.target, model_tag="target")
    reference = (
        responses_from_csv(args.reference, model_tag="reference") if args.reference else None
    )
    verdict = classify(verifier, target, reference=reference)
    label = verdict.predicted_label
    out = {
        "task": verdict.task,
        "class_id": label.class_id,
        "is_proper": label.is_proper,
        "omitted_steps": list(label.omitted_steps) if label.omitted_steps is not None else None,
        "votes": {str(k): v for k, v in verdict.vote_counts.items()},
        "confidence": verdict.confidence,
    }
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_attack(args) -> int:
    released = _load_dataset(args.released, args.schema)
    case = _load_dataset(args.case, args.schema)
    control = _load_dataset(args.control, args.schema)
    result = mia_power(released, AttackConfig(case, control, args.fpr))
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for name, dists in (
            ("case_distances.csv", result.case_distances),
            ("control_distances.csv", result.control_distances),
        ):
            with open(os.path.join(args.out_dir, name), "w", encoding="utf-8", newline="") as fh:
                fh.write("min_hamming\n")
                fh.writelines(f"{int(v)}\n" for v in dists)
    print(json.dumps({"gamma": result.gamma, "power": result.power}, sort_keys=True))
    return 0


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_dict(read_json(args.config, ConfigError))
    env_seed = os.environ.get("PPV_SEED")
    if env_seed is not None:
        try:
            cfg.master_seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"PPV_SEED must be an integer, got {env_seed!r}") from None
    report = run_experiment(cfg)
    paths = emit_report(report, args.out_dir)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppverify",
        description="Preprocessing verification for shared tabular models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    for flag, field in _SYNTH_FLAGS.items():
        default = getattr(SyntheticSpec, field)
        p.add_argument(f"--{flag}", type=type(default), default=default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--schema-out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("privatize", help="release a noised copy of a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", required=True, help="positive number or 'inf'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--schema")
    p.add_argument("--noise-label", action="store_true")
    p.set_defaults(func=cmd_privatize)

    p = sub.add_parser("preprocess", help="apply one preprocessing pipeline")
    p.add_argument("--input", required=True)
    p.add_argument("--pipeline", type=int, required=True, help="bitmask over steps 1-4")
    p.add_argument("--mode", choices=ENUMERATION_MODES, default="paper-compat")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--test")
    p.add_argument("--test-output")
    p.add_argument("--schema")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--input", required=True)
    p.add_argument("--arch", choices=ARCHITECTURES, default="logreg")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON file of hyperparameter overrides")
    p.add_argument("--output", required=True)
    p.add_argument("--schema")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("respond", help="build response vectors")
    p.add_argument("--model", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--explainer", choices=EXPLAINERS, default="lime")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--background", help="background CSV (defaults to the query file)")
    p.add_argument("--num-samples", type=int, default=LimeConfig.num_samples)
    p.add_argument("--kernel-width", type=float, default=LimeConfig.kernel_width)
    p.add_argument("--ridge", type=float, default=LimeConfig.ridge_strength)
    p.add_argument("--budget", default=ShapConfig.coalition_budget,
                   help="shap coalition budget or 'exact'")
    p.add_argument("--schema")
    p.set_defaults(func=cmd_respond)

    p = sub.add_parser("fit-verifier", help="fit a verifier on labeled responses")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--task", choices=TASKS, default="binary")
    p.add_argument(
        "--responses",
        action="append",
        required=True,
        metavar="CLASS_ID=FILE",
        help="labeled response CSV; repeat per model (class 0 = proper)",
    )
    p.add_argument("--reference", help="reference responses (threshold method)")
    p.add_argument("--arch", choices=ARCHITECTURES, default="rforest")
    p.add_argument("--granularity", choices=GRANULARITIES, default="per_query")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_fit_verifier)

    p = sub.add_parser("verify", help="classify a target model's responses")
    p.add_argument("--verifier", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--reference")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("attack", help="membership-inference power of a release")
    p.add_argument("--released", required=True)
    p.add_argument("--case", required=True)
    p.add_argument("--control", required=True)
    p.add_argument("--fpr", type=float, default=0.05)
    p.add_argument("--out-dir")
    p.add_argument("--schema")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("experiment", help="run the full experiment harness")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except PPVerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
