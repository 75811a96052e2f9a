"""Local prediction explanations for black-box classifiers.

Two explainers produce per-feature attributions for a single query: a local
linear surrogate fitted on Gaussian perturbations (LIME-style) and Kernel
SHAP with background-marginalized coalition values. `exact_shapley` is an
independent brute-force oracle used to cross-check the Kernel SHAP solver.

Models only need `predict(x) -> class index` and `predict_proba(X) -> (n, k)
probabilities` (Kernel SHAP reads a `Predictor`'s class off the latter);
background data may be a Dataset or a plain feature matrix.
Probes that share one dict (`model_probe`) make each query's perturbations or
coalitions, and each LIME query geometry, once for all the models they serve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DataError, check_field_types
from .models import DecisionTreeModel, Predictor, RandomForestModel, row_sum

#: Sentinel for ShapConfig.coalition_budget requesting full enumeration.
EXACT = "exact"

#: Full enumeration is capped at this many features (2**M grows too fast).
EXACT_FEATURE_LIMIT = 16

#: Brute-force Shapley oracle cap.
ORACLE_FEATURE_LIMIT = 10

_PREDICT_CHUNK = 200_000  # rows per predict_proba call during marginalization


@dataclass(frozen=True)
class Explanation:
    """Attributions for one query: one weight per feature plus the surrogate
    intercept (LIME) or base value (SHAP)."""

    attributions: np.ndarray
    intercept_or_base: float
    explained_class: int


@dataclass(frozen=True)
class LimeConfig:
    """Settings for the local linear surrogate.

    `kernel_width` of None means 0.75 * sqrt(feature count). A query of M
    features needs `num_samples` >= M + 2. When any background feature has
    zero spread the design matrix is rank-deficient, so `ridge_strength`
    must then be positive.
    """

    num_samples: int = 2000
    kernel_width: float | None = None
    ridge_strength: float = 1e-3
    seed: int = 0
    explained_class: int | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.num_samples < 3:  # a query has at least one feature
            raise ConfigError(f"num_samples must be at least 3, got {self.num_samples}")
        if self.ridge_strength < 0:
            raise ConfigError(f"ridge_strength must be non-negative, got {self.ridge_strength}")
        if self.kernel_width is not None and self.kernel_width <= 0:
            raise ConfigError(f"kernel_width must be positive, got {self.kernel_width}")


@dataclass(frozen=True)
class ShapConfig:
    """Settings for Kernel SHAP.

    `coalition_budget` is either a sample count or EXACT; EXACT enumerates
    every proper coalition and requires at most 16 features. An integer
    budget must be at least M + 2 for a query of M features; one large
    enough to cover full enumeration enumerates instead of sampling.
    """

    coalition_budget: object = 2048
    seed: int = 0
    explained_class: int | None = None

    def __post_init__(self):
        check_field_types(self)
        budget = self.coalition_budget
        if budget != EXACT and not (
            isinstance(budget, (int, np.integer)) and not isinstance(budget, bool) and budget > 0
        ):
            raise ConfigError(f'coalition_budget must be a positive int or "exact", got {budget!r}')


def _as_matrix(background, M: int) -> np.ndarray:
    """The background's feature matrix, checked against a query of M features."""
    if background is None:
        raise ConfigError("a background dataset is required")
    if hasattr(background, "feature_matrix"):
        mat = background.feature_matrix()
    else:
        mat = np.asarray(background, dtype=float)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise DataError("background must be a non-empty 2-D feature matrix")
    if mat.shape[1] != M:
        raise DataError(f"background has {mat.shape[1]} features, query has {M}")
    return mat


@dataclass(frozen=True, eq=False)
class Probe:
    """A background matrix with the setup that every query of one model
    shares (the LIME per-feature spread, or the model's SHAP background
    probabilities), and the dict in which the probes of one stage keep the
    query-side work they share (see `_shared`). The explainers accept one
    wherever they accept a background."""

    matrix: np.ndarray
    shared: dict
    sigma: np.ndarray | None = None
    probs: np.ndarray | None = None

    def feature_matrix(self) -> np.ndarray:
        return self.matrix


def model_probe(m, cfg, background, M: int, shared: dict) -> Probe:
    """`background` set up for explaining `m` under `cfg`, sharing `shared`;
    a Probe that is already set up so comes back as it is."""
    bg = _as_matrix(background, M)
    lime = isinstance(cfg, LimeConfig)
    if isinstance(background, Probe) and (background.sigma if lime else background.probs) is not None:
        return background
    if not lime:
        return Probe(bg, shared, probs=m.predict_proba(bg))
    with np.errstate(invalid="ignore"):
        sigma = np.array([c[~np.isnan(c)].std() if (~np.isnan(c)).any() else 0.0 for c in bg.T])
    sigma.setflags(write=False)
    return Probe(bg, shared, sigma=sigma)


def _shared(probe: Probe, key, make):
    """`make()`, made once for every probe that shares `probe.shared`."""
    if key not in probe.shared:
        probe.shared[key] = make()
    return probe.shared[key]


def _draw_key(cfg, M: int):
    """What one query's draws depend on: ("lime", seed, samples, M),
    ("shap", seed, budget, M) or ("exact", M). ConfigError for a budget
    too small for M features, or exact enumeration over too many."""
    if isinstance(cfg, LimeConfig):
        return ("lime", cfg.seed, cfg.num_samples, M)
    budget = cfg.coalition_budget
    if budget == EXACT:
        if M > EXACT_FEATURE_LIMIT:
            raise ConfigError(
                f"exact enumeration supports at most {EXACT_FEATURE_LIMIT} features, got {M}"
            )
        return ("exact", M)
    if budget < M + 2:
        raise ConfigError(f"coalition_budget must be at least {M + 2}, got {budget}")
    return ("exact", M) if (1 << M) - 2 <= budget else ("shap", cfg.seed, int(budget), M)


def _draw(key) -> tuple:
    """The read-only arrays `key` names: LIME's unit normal matrix, or Kernel
    SHAP's coalition masks and kernel weights. Equal keys give equal draws."""
    kind, M = key[0], key[-1]
    if kind == "exact":
        return _exact_coalitions(M)
    if kind == "lime":
        arrays = (np.random.default_rng(key[1]).standard_normal((key[2], M)),)
    else:
        arrays = _sample_coalitions(M, key[2], np.random.default_rng(key[1]))
    return _read_only(arrays)


@lru_cache(maxsize=1)  # every model and query of a stage has the same M
def _exact_coalitions(M: int) -> tuple:
    masks = _masks_from_ints(np.arange(1, (1 << M) - 1, dtype=np.int64), M)
    return _read_only((masks, _kernel_weight(M, masks.sum(axis=1))))


def _read_only(arrays: tuple) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _explained_class(m, x, override, n_classes) -> int:
    cls = m.predict(x) if override is None else int(override)
    if not 0 <= cls < n_classes:
        raise ConfigError(f"explained class {cls} out of range for {n_classes} classes")
    return cls


def _lime_geometry(probe: Probe, x, cfg: LimeConfig) -> tuple:
    """The query side of a LIME explanation, which no model enters: the
    perturbations Z around x, the kernel-weighted design Aw = [Z, 1] * w and
    the Gram matrix G = [Z, 1].T @ Aw with the ridge on its diagonal (the
    intercept is not penalized). Read-only, so that models can share them."""
    M, sigma = x.size, probe.sigma
    if cfg.num_samples < M + 2:
        raise ConfigError(f"num_samples must be at least {M + 2}, got {cfg.num_samples}")
    if (sigma == 0).any() and cfg.ridge_strength == 0:
        raise ConfigError(
            "a background feature has zero spread; ridge_strength must be positive"
        )
    width = cfg.kernel_width if cfg.kernel_width is not None else 0.75 * math.sqrt(M)

    key = _draw_key(cfg, M)
    (N,) = _shared(probe, key, lambda: _draw(key))
    Z = x + N * sigma
    scaled = np.where(sigma > 0, (Z - x) / np.where(sigma > 0, sigma, 1.0), 0.0)
    d2 = row_sum(list((scaled * scaled).T))
    w = np.exp(-d2 / (width * width))
    A = np.column_stack([Z, np.ones(Z.shape[0])])
    Aw = A * w[:, None]
    G = A.T @ Aw
    G[np.arange(M), np.arange(M)] += cfg.ridge_strength
    return _read_only((Z, Aw, G))


def lime_explain(m, x, cfg: LimeConfig, background) -> Explanation:
    """Fit a weighted linear surrogate around `x` and return its coefficients.

    Perturbations are Gaussian around `x`, each feature spread by its
    background standard deviation. Sample weights decay as
    exp(-d^2 / kernel_width^2) in sigma-scaled Euclidean distance. The surrogate is a weighted ridge regression, with an
    unpenalized intercept, of the model's predicted probability of the
    explained class; only that right-hand side depends on the model.
    """
    x = np.asarray(x, dtype=float)
    probe = model_probe(m, cfg, background, x.size, {})
    key = (cfg, x.tobytes(), probe.sigma.tobytes())
    Z, Aw, G = _shared(probe, key, lambda: _lime_geometry(probe, x, cfg))
    probs = m.predict_proba(Z)
    cls = _explained_class(m, x, cfg.explained_class, probs.shape[1])
    b = Aw.T @ probs[:, cls]
    try:
        beta = np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        beta = np.linalg.lstsq(G, b, rcond=None)[0]
    return Explanation(beta[:-1], float(beta[-1]), cls)


# ---------------------------------------------------------------------------
# Kernel SHAP


def _masks_from_ints(ints: np.ndarray, M: int) -> np.ndarray:
    return ((ints[:, None] >> np.arange(M)) & 1).astype(bool)


def _coalition_values(m, x, masks, bg, cls) -> np.ndarray:
    """Mean model output with absent features replaced by background rows,
    one value per coalition mask; tree models compute it from their trees
    where they can (`_TreeModel.coalition_values`), else it predicts the rows."""
    tree = isinstance(m, (DecisionTreeModel, RandomForestModel))
    if tree and (values := m.coalition_values(x, masks, bg, cls)) is not None:
        return values
    C, B = masks.shape[0], bg.shape[0]
    values = np.empty(C)
    step = max(1, _PREDICT_CHUNK // B)
    for start in range(0, C, step):
        chunk = masks[start : start + step]
        rep = np.repeat(chunk, B, axis=0)
        X = np.where(rep, x, np.tile(bg, (chunk.shape[0], 1)))
        p = m.predict_proba(X)[:, cls]
        values[start : start + step] = p.reshape(chunk.shape[0], B).mean(axis=1)
    return values


def _kernel_weight(M: int, sizes: np.ndarray) -> np.ndarray:
    comb = np.array([math.comb(M, s) for s in range(M + 1)], dtype=float)[sizes]
    return (M - 1) / (comb * sizes * (M - sizes))


def _sample_coalitions(M, budget, rng):
    sizes = np.arange(1, M)
    mass = (M - 1) / (sizes * (M - sizes))  # kernel mass aggregated per size
    p = mass / mass.sum()
    drawn = rng.choice(sizes, size=budget, p=p)
    masks = np.zeros((budget, M), dtype=bool)
    for i, s in enumerate(drawn):
        masks[i, rng.choice(M, size=int(s), replace=False)] = True
    masks = masks[np.lexsort(masks.T)]  # in the order of the integers whose bit j is feature j
    first = np.r_[True, (masks[1:] != masks[:-1]).any(axis=1)]
    return masks[first], np.diff(np.r_[np.flatnonzero(first), budget]).astype(float)


def shap_explain(m, x, cfg: ShapConfig, background) -> Explanation:
    """Kernel SHAP attributions for one query.

    Coalition values marginalize absent features over the background; the
    weighted least-squares solve eliminates one unknown so that the
    attributions satisfy sum(phi) = f(x) - f0 exactly, where f0 is the mean
    prediction over the background.
    """
    x = np.asarray(x, dtype=float)
    M = x.size
    probe = model_probe(m, cfg, background, M, {})
    bg, bg_probs = probe.matrix, probe.probs
    px = m.predict_proba(x[None, :])[0]
    wanted = cfg.explained_class
    if wanted is None and isinstance(m, Predictor):  # its predict is this row's argmax
        wanted = int(np.argmax(px))
    cls = _explained_class(m, x, wanted, bg_probs.shape[1])
    f0 = float(bg_probs[:, cls].mean())
    fx = float(px[cls])

    if M == 1:
        return Explanation(np.array([fx - f0]), f0, cls)

    key = _draw_key(cfg, M)
    masks, weights = _shared(probe, key, lambda: _draw(key))
    v = _coalition_values(m, x, masks, bg, cls)

    # eliminate the last attribution through the additivity constraint
    z_last = masks[:, -1].astype(float)
    D = masks[:, :-1].astype(float) - z_last[:, None]
    t = v - f0 - z_last * (fx - f0)
    sw = np.sqrt(weights)
    beta = np.linalg.lstsq(D * sw[:, None], t * sw, rcond=None)[0]
    phi = np.append(beta, (fx - f0) - beta.sum())
    return Explanation(phi, f0, cls)


# ---------------------------------------------------------------------------
# Brute-force oracle


def exact_shapley(m, x, background) -> np.ndarray:
    """Exact Shapley values of the background-marginalized prediction game.

    Sums over all 2**M coalitions, so M is capped at 10. Serves as an
    independent oracle for `shap_explain`; the two share no solver code.
    """
    x = np.asarray(x, dtype=float)
    M = x.size
    if M > ORACLE_FEATURE_LIMIT:
        raise ConfigError(
            f"exact_shapley supports at most {ORACLE_FEATURE_LIMIT} features, got {M}"
        )
    bg = _as_matrix(background, M)
    cls = _explained_class(m, x, None, m.predict_proba(bg).shape[1])

    n_masks = 1 << M
    # value of every coalition, computed directly
    all_ints = np.arange(n_masks, dtype=np.int64)
    values = _coalition_values(m, x, _masks_from_ints(all_ints, M), bg, cls)

    sizes = np.array([int(i).bit_count() for i in range(n_masks)])
    fact = [math.factorial(s) for s in range(M + 1)]
    weight_by_size = np.array(
        [fact[s] * fact[M - s - 1] / fact[M] for s in range(M)]
    )

    phi = np.zeros(M)
    for i in range(M):
        bit = 1 << i
        without = all_ints[(all_ints & bit) == 0]
        w = weight_by_size[sizes[without]]
        phi[i] = float(np.sum(w * (values[without | bit] - values[without])))
    return phi
