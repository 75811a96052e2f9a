import numpy as np
import pytest

from ppverify import models
from ppverify.tabular import ColumnSchema, Dataset, KIND_CONTINUOUS, KIND_DISCRETE


@pytest.fixture(autouse=True)
def inherited_tree_predict_proba():
    """Delete a copy of `_TreeModel.predict_proba` from a tree model class's
    own dict, so that a patch of `_TreeModel.predict_proba` reaches both
    classes. Undoing perfbench's traced run sets the method back on each
    class, where it was inherited."""
    for cls in (models.DecisionTreeModel, models.RandomForestModel):
        if vars(cls).get("predict_proba") is models._TreeModel.predict_proba:
            delattr(cls, "predict_proba")


def build_dataset(values, names=None, kinds=None, label_kind=KIND_DISCRETE):
    """Dataset from a plain 2-D list; last column is the label."""
    vals = np.asarray(values, dtype=float)
    n_cols = vals.shape[1]
    if names is None:
        names = [f"f{j}" for j in range(n_cols - 1)] + ["label"]
    if kinds is None:
        kinds = [KIND_CONTINUOUS] * (n_cols - 1) + [label_kind]
    schema = tuple(
        ColumnSchema(names[j], kinds[j], (), j == n_cols - 1) for j in range(n_cols)
    )
    return Dataset(schema, vals)


class LinearProbModel:
    """Black box with known linear class-1 probability, clipped to [0, 1].

    predict_proba returns [[1-p, p]] so explainers can target either class.
    """

    def __init__(self, weights, intercept=0.0, feature_names=None):
        self.weights = np.asarray(weights, dtype=float)
        self.intercept = float(intercept)
        self.feature_names = tuple(
            feature_names or (f"f{j}" for j in range(self.weights.size))
        )
        self.class_values = (0.0, 1.0)

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        p = np.clip(X @ self.weights + self.intercept, 0.0, 1.0)
        return np.column_stack([1.0 - p, p])

    def predict(self, x):
        return int(self.predict_proba(np.atleast_2d(x))[0].argmax())


class ConstantModel:
    """Ignores its input entirely; useful for zero-attribution checks."""

    def __init__(self, prob=0.7, n_features=3):
        self.prob = float(prob)
        self.feature_names = tuple(f"f{j}" for j in range(n_features))
        self.class_values = (0.0, 1.0)

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        p = np.full(X.shape[0], self.prob)
        return np.column_stack([1.0 - p, p])

    def predict(self, x):
        return int(self.prob >= 0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
