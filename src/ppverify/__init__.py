"""Privacy-preserving verification of shared models and their preprocessing.

A data owner releases a noised copy of a tabular dataset; a researcher
returns a trained model. The owner probes the model through prediction
explanations only and decides whether the agreed preprocessing was applied.
This package provides every stage of that exchange: dataset handling,
the noised release, the preprocessing variants, trainable models, two
explanation methods, the verdict machinery, a membership-inference check
on the release itself, and an experiment harness that ties them together.
"""

from .errors import ConfigError, DataError, PPVerifyError
from .experiment import (
    DEFAULT_EPSILON_GRID,
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    run_experiment,
    summarize,
)
from .explain import (
    EXACT,
    Explanation,
    LimeConfig,
    ShapConfig,
    exact_shapley,
    lime_explain,
    shap_explain,
)
from .ldp import INFINITE, LaplaceParams, PrivacyBudget, laplace_sample, privatize, snap
from .membership import AttackConfig, AttackResult, mia_power, min_hamming
from .models import (
    TrainConfig,
    load_model,
    logreg_loss_grad,
    predict_batch,
    save_model,
    schema_fingerprint,
    train,
)
from .preprocess import (
    Pipeline,
    PipelineLabel,
    apply_pipeline,
    drop_duplicates,
    drop_missing,
    drop_outliers,
    encode_nonnumeric,
    enumerate_pipelines,
    fit_scaler,
    resample_oversample,
)
from .seeding import derive_seed
from .tabular import (
    ColumnSchema,
    Dataset,
    SyntheticSpec,
    column_stats,
    datasets_equal,
    load_csv,
    make_synthetic,
    sample_rows,
    split,
    write_csv,
)
from .verify import (
    LabeledResponseSet,
    MLVerifier,
    Responses,
    ThresholdModel,
    Verdict,
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

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "AttackResult",
    "ColumnSchema",
    "ConfigError",
    "DEFAULT_EPSILON_GRID",
    "DataError",
    "Dataset",
    "EXACT",
    "ExperimentConfig",
    "ExperimentReport",
    "Explanation",
    "INFINITE",
    "LabeledResponseSet",
    "LaplaceParams",
    "LimeConfig",
    "MLVerifier",
    "PPVerifyError",
    "Pipeline",
    "PipelineLabel",
    "PrivacyBudget",
    "Responses",
    "ShapConfig",
    "SyntheticSpec",
    "ThresholdModel",
    "TrainConfig",
    "Verdict",
    "apply_pipeline",
    "build_responses",
    "classify",
    "column_stats",
    "cosine_distance",
    "datasets_equal",
    "derive_seed",
    "drop_duplicates",
    "drop_missing",
    "drop_outliers",
    "emit_report",
    "encode_nonnumeric",
    "enumerate_pipelines",
    "exact_shapley",
    "fit_ml_verifier",
    "fit_scaler",
    "fit_threshold_verifier",
    "laplace_sample",
    "lime_explain",
    "load_csv",
    "load_model",
    "load_verifier",
    "logreg_loss_grad",
    "make_synthetic",
    "mia_power",
    "min_hamming",
    "predict_batch",
    "privatize",
    "resample_oversample",
    "responses_from_csv",
    "responses_to_csv",
    "run_experiment",
    "sample_rows",
    "save_model",
    "save_verifier",
    "schema_fingerprint",
    "shap_explain",
    "snap",
    "split",
    "summarize",
    "train",
    "write_csv",
]
