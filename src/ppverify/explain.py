"""Local prediction explanations for black-box classifiers.

Two explainers produce per-feature attributions for a single query: a local
linear surrogate fitted on Gaussian perturbations (LIME-style) and Kernel
SHAP with background-marginalized coalition values. `exact_shapley` is an
independent brute-force oracle used to cross-check the Kernel SHAP solver.

Models only need `predict(x) -> class index` and `predict_proba(X) -> (n, k)
probabilities` (Kernel SHAP reads a `Predictor`'s class off the latter);
background data may be a Dataset or a plain feature matrix.
A probe plan draws each query's perturbations or coalitions once for all the
models of a stage (`probe_plans`, `model_probe`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .models import Predictor
from .seeding import derive_seed

#: Sentinel for ShapConfig.coalition_budget requesting full enumeration.
EXACT = "exact"

#: Full enumeration is capped at this many features (2**M grows too fast).
EXACT_FEATURE_LIMIT = 16

#: Brute-force Shapley oracle cap.
ORACLE_FEATURE_LIMIT = 10

_PREDICT_CHUNK = 200_000  # rows per predict_proba call during marginalization
_PLAN_CELLS = 1 << 16  # most drawn entries one probe plan chunk holds


@dataclass(frozen=True)
class Explanation:
    """Attributions for one query: one weight per feature plus the surrogate
    intercept (LIME) or base value (SHAP)."""

    attributions: np.ndarray
    intercept_or_base: float
    explained_class: int
    explainer: str


@dataclass(frozen=True)
class LimeConfig:
    """Settings for the local linear surrogate.

    `kernel_width` of None means 0.75 * sqrt(feature count). When any
    background feature has zero spread the design matrix is rank-deficient,
    so `ridge_strength` must stay positive.
    """

    num_samples: int = 2000
    kernel_width: float | None = None
    ridge_strength: float = 1e-3
    perturbation_scale: float = 1.0
    seed: int = 0
    explained_class: int | None = None


@dataclass(frozen=True)
class ShapConfig:
    """Settings for Kernel SHAP.

    `coalition_budget` is either a sample count or EXACT; EXACT enumerates
    every proper coalition and requires at most 16 features. Integer budgets
    large enough to cover full enumeration enumerate instead of sampling.
    """

    background: object = None
    coalition_budget: object = 2048
    seed: int = 0
    explained_class: int | None = None


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
class ProbePlan:
    """One chunk of a stage's queries: their global indices and explainer
    seeds, and each draw that every model of the stage shares, under its
    key (`_draw_key`). An explainer that finds no draw makes its own."""

    rows: range
    seeds: tuple
    draws: dict


@dataclass(frozen=True, eq=False)
class Probe:
    """A background matrix with the setup that every query of one model
    shares (the LIME per-feature spread, or the model a SHAP explanation
    probes and its background probabilities), the plan chunk whose draws it
    reads and, for LIME, a cache of query geometries that its models share.
    The explainers accept one wherever they accept a background."""

    matrix: np.ndarray
    sigma: np.ndarray | None = None
    model: object = None
    probs: np.ndarray | None = None
    plan: ProbePlan | None = None
    geometries: dict | None = None

    def feature_matrix(self) -> np.ndarray:
        return self.matrix

    def draw(self, key) -> tuple:
        return (self.plan and self.plan.draws.get(key)) or _draw(key)

    def lime_geometry(self, x, cfg) -> tuple:
        """`_lime_geometry` of query x under cfg, built once for every model
        that explains x through this probe while it holds `geometries`."""
        if self.geometries is None:
            return _lime_geometry(self, x, cfg)
        key = (cfg, x.tobytes())
        if key not in self.geometries:
            self.geometries[key] = _lime_geometry(self, x, cfg)
        return self.geometries[key]


def model_probe(m, cfg, background, M: int) -> Probe:
    """`background` set up for explaining `m` under `cfg`; a Probe that is
    already set up so comes back as it is."""
    bg = _as_matrix(background, M)
    lime = isinstance(cfg, LimeConfig)
    if isinstance(background, Probe) and (
        background.sigma is not None if lime else background.model is m
    ):
        return background
    if not lime:
        return Probe(bg, model=m, probs=m.predict_proba(bg))
    with np.errstate(invalid="ignore"):
        sigma = np.array([c[~np.isnan(c)].std() if (~np.isnan(c)).any() else 0.0 for c in bg.T])
    sigma.setflags(write=False)
    return Probe(bg, sigma=sigma)


def query_seeds(seed: int, rows) -> tuple:
    """The explainer seed of each query in `rows`; it depends on the query
    index alone, so every model sees the same draws for a query."""
    return tuple(derive_seed(seed, "query", q) for q in rows)


def probe_plans(cfg, n_queries: int, M: int):
    """Yield the probe plan of `n_queries` queries of M features under `cfg`
    in chunks of at most `_PLAN_CELLS` drawn entries (and at least one
    query), freeing each chunk's draws before drawing the next."""
    seeds = query_seeds(cfg.seed, range(n_queries))
    try:
        keys = [_draw_key(cfg, s, M) for s in seeds]
    except ConfigError:  # the explainer raises it, in its own order
        keys = [None] * n_queries
    own = keys and keys[0] and keys[0][0] != "exact"  # exact SHAP shares one draw
    step = max(1, _PLAN_CELLS // max(1, keys[0][2] * M) if own else n_queries)
    for start in range(0, n_queries, step):
        stop = min(n_queries, start + step)
        draws = {k: _draw(k) for k in dict.fromkeys(keys[start:stop]) if k}
        yield ProbePlan(range(start, stop), seeds[start:stop], draws)
        draws.clear()


def _draw_key(cfg, seed: int, M: int):
    """What one query's draws depend on: ("lime", seed, samples, M),
    ("shap", seed, budget, M) or ("exact", M). ConfigError for a budget
    Kernel SHAP cannot use."""
    if isinstance(cfg, LimeConfig):
        return ("lime", seed, cfg.num_samples, M)
    budget = cfg.coalition_budget
    if budget == EXACT:
        if M > EXACT_FEATURE_LIMIT:
            raise ConfigError(
                f"exact enumeration supports at most {EXACT_FEATURE_LIMIT} features, got {M}"
            )
        return ("exact", M)
    if isinstance(budget, (int, np.integer)) and not isinstance(budget, bool):
        if budget < M + 2:
            raise ConfigError(f"coalition_budget must be at least {M + 2}, got {budget}")
        return ("exact", M) if (1 << M) - 2 <= budget else ("shap", seed, int(budget), M)
    raise ConfigError(f"coalition_budget must be a positive int or EXACT, got {budget!r}")


def _draw(key) -> tuple:
    """The read-only arrays `key` names: LIME's unit normal matrix, or Kernel
    SHAP's coalition masks and kernel weights. Equal keys give equal draws."""
    kind, M = key[0], key[-1]
    if kind == "lime":
        arrays = (np.random.default_rng(key[1]).standard_normal((key[2], M)),)
    elif kind == "shap":
        arrays = _sample_coalitions(M, key[2], np.random.default_rng(key[1]))
    else:
        masks = _masks_from_ints(np.arange(1, (1 << M) - 1, dtype=np.int64), M)
        arrays = masks, _kernel_weight(M, masks.sum(axis=1))
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
    if (sigma == 0).any() and cfg.ridge_strength <= 0:
        raise ConfigError(
            "a background feature has zero spread; ridge_strength must be positive"
        )
    if cfg.ridge_strength < 0:
        raise ConfigError("ridge_strength must be non-negative")
    width = cfg.kernel_width if cfg.kernel_width is not None else 0.75 * math.sqrt(M)
    if width <= 0:
        raise ConfigError("kernel_width must be positive")

    (N,) = probe.draw(_draw_key(cfg, cfg.seed, M))
    Z = x + N * (cfg.perturbation_scale * sigma)
    scaled = np.where(sigma > 0, (Z - x) / np.where(sigma > 0, sigma, 1.0), 0.0)
    d2 = np.sum(scaled * scaled, axis=1)
    w = np.exp(-d2 / (width * width))
    A = np.column_stack([Z, np.ones(Z.shape[0])])
    Aw = A * w[:, None]
    G = A.T @ Aw
    G[np.arange(M), np.arange(M)] += cfg.ridge_strength
    for a in (Z, Aw, G):
        a.setflags(write=False)
    return Z, Aw, G


def lime_explain(m, x, cfg: LimeConfig, background) -> Explanation:
    """Fit a weighted linear surrogate around `x` and return its coefficients.

    Perturbations are Gaussian around `x` with per-feature spread
    `perturbation_scale` times the background standard deviation. Sample
    weights decay as exp(-d^2 / kernel_width^2) in sigma-scaled Euclidean
    distance. The surrogate is a weighted ridge regression, with an
    unpenalized intercept, of the model's predicted probability of the
    explained class; only that right-hand side depends on the model.
    """
    x = np.asarray(x, dtype=float)
    Z, Aw, G = model_probe(m, cfg, background, x.size).lime_geometry(x, cfg)
    probs = m.predict_proba(Z)
    cls = _explained_class(m, x, cfg.explained_class, probs.shape[1])
    b = Aw.T @ probs[:, cls]
    try:
        beta = np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        beta = np.linalg.lstsq(G, b, rcond=None)[0]
    return Explanation(beta[:-1], float(beta[-1]), cls, "lime")


# ---------------------------------------------------------------------------
# Kernel SHAP


def _masks_from_ints(ints: np.ndarray, M: int) -> np.ndarray:
    return ((ints[:, None] >> np.arange(M)) & 1).astype(bool)


def _coalition_values(m, x, masks, bg, cls) -> np.ndarray:
    """Mean model output with absent features replaced by background rows,
    one value per coalition mask."""
    C = masks.shape[0]
    B = bg.shape[0]
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
    ints = np.empty(budget, dtype=np.int64)
    for i, s in enumerate(drawn):
        members = rng.choice(M, size=int(s), replace=False)
        ints[i] = sum(1 << j for j in members.tolist())
    uniq, counts = np.unique(ints, return_counts=True)
    return _masks_from_ints(uniq, M), counts.astype(float)


def shap_explain(m, x, cfg: ShapConfig) -> Explanation:
    """Kernel SHAP attributions for one query.

    Coalition values marginalize absent features over the background; the
    weighted least-squares solve eliminates one unknown so that the
    attributions satisfy sum(phi) = f(x) - f0 exactly, where f0 is the mean
    prediction over the background.
    """
    x = np.asarray(x, dtype=float)
    M = x.size
    prepared = model_probe(m, cfg, cfg.background, M)
    bg, bg_probs = prepared.matrix, prepared.probs
    px = m.predict_proba(x[None, :])[0]
    wanted = cfg.explained_class
    if wanted is None and isinstance(m, Predictor):  # its predict is this row's argmax
        wanted = int(np.argmax(px))
    cls = _explained_class(m, x, wanted, bg_probs.shape[1])
    f0 = float(bg_probs[:, cls].mean())
    fx = float(px[cls])

    if M == 1:
        return Explanation(np.array([fx - f0]), f0, cls, "shap")

    masks, weights = prepared.draw(_draw_key(cfg, cfg.seed, M))
    v = _coalition_values(m, x, masks, bg, cls)

    # eliminate the last attribution through the additivity constraint
    z_last = masks[:, -1].astype(float)
    D = masks[:, :-1].astype(float) - z_last[:, None]
    t = v - f0 - z_last * (fx - f0)
    sw = np.sqrt(weights)
    beta = np.linalg.lstsq(D * sw[:, None], t * sw, rcond=None)[0]
    phi = np.append(beta, (fx - f0) - beta.sum())
    return Explanation(phi, f0, cls, "shap")


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
