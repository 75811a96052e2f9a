"""From-scratch interpretable models: multinomial logistic regression,
CART decision trees, and bagged random forests.

Training never standardizes or otherwise transforms its input; whatever
preprocessing the caller applied is what the model sees. All three
architectures train deterministically from a config seed and serialize to
versioned JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, check_field_types, json_field, read_json
from .seeding import derive_seed
from .tabular import KIND_CATEGORICAL, Dataset

ARCHITECTURES = ("logreg", "dtree", "rforest")

MODEL_FORMAT = "ppverify-model"
MODEL_FORMAT_VERSION = 1


@dataclass
class TrainConfig:
    """Hyperparameters for all three architectures; unused fields are ignored.

    `n_features` is the per-tree feature subsample size for forests; None
    means round(sqrt(feature count)).
    """

    architecture: str = "logreg"
    seed: int = 0
    # logreg
    learning_rate: float = 0.1
    iterations: int = 1500
    l2: float = 1e-4
    # dtree / rforest
    max_depth: int = 8
    min_leaf: int = 5
    n_trees: int = 50
    n_features: int | None = None
    bootstrap: bool = True

    def validate(self) -> None:
        check_field_types(self)
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.learning_rate <= 0 or self.iterations < 1 or self.l2 < 0:
            raise ConfigError("logreg needs learning_rate > 0, iterations >= 1, l2 >= 0")
        if self.max_depth < 1 or self.min_leaf < 1 or self.n_trees < 1:
            raise ConfigError("tree models need max_depth, min_leaf, n_trees >= 1")


def schema_fingerprint(feature_names) -> str:
    """Stable fingerprint of an ordered feature-name list."""
    text = "\x1f".join(feature_names)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Predictor:
    """Interface shared by every trained model.

    `predict` returns the index into `class_values` of the most probable
    class (ties resolve to the lowest index); `class_values` holds the sorted
    distinct label values seen at training time.
    """

    architecture: str = ""

    def __init__(self, feature_names, class_values):
        self.feature_names = tuple(feature_names)
        self.class_values = np.asarray(class_values, dtype=float)
        self.schema_fingerprint = schema_fingerprint(self.feature_names)

    @property
    def n_classes(self) -> int:
        return self.class_values.size

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict(self, x: np.ndarray) -> int:
        return int(np.argmax(self.predict_proba(np.asarray(x, dtype=float)[None, :])[0]))

    def _payload(self) -> dict:
        raise NotImplementedError

    def to_payload(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_FORMAT_VERSION,
            "architecture": self.architecture,
            "feature_names": list(self.feature_names),
            "class_values": [float(v) for v in self.class_values],
            "params": self._payload(),
        }


# ---------------------------------------------------------------------------
# Multinomial logistic regression


def logreg_loss_grad(params: np.ndarray, X1: np.ndarray, Y: np.ndarray, l2: float):
    """Mean cross-entropy plus (l2/2)*||W||^2 and its gradient.

    `params` stacks the weight matrix over a bias row: shape (d+1, k).
    `X1` is the design matrix with a trailing column of ones. The bias row
    is not penalized.
    """
    n = X1.shape[0]
    Z = X1 @ params
    Z = Z - Z.max(axis=1, keepdims=True)
    expZ = np.exp(Z)
    P = expZ / expZ.sum(axis=1, keepdims=True)
    eps = 1e-12
    loss = -np.mean(np.sum(Y * np.log(P + eps), axis=1))
    penalty = params.copy()
    penalty[-1, :] = 0.0
    loss += 0.5 * l2 * float(np.sum(penalty * penalty))
    grad = X1.T @ (P - Y) / n + l2 * penalty
    return float(loss), grad


class LogisticRegressionModel(Predictor):
    """Softmax regression trained by full-batch gradient descent."""

    architecture = "logreg"

    def __init__(self, feature_names, class_values, weights, bias):
        super().__init__(feature_names, class_values)
        self.weights = np.asarray(weights, dtype=float)
        self.bias = np.asarray(bias, dtype=float)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Z = np.asarray(X, dtype=float) @ self.weights + self.bias
        Z = Z - Z.max(axis=1, keepdims=True)
        expZ = np.exp(Z)
        return expZ / expZ.sum(axis=1, keepdims=True)

    def _payload(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias.tolist()}


#: Most training rows that one lockstep logreg loop holds at once; a group
#: of models with more rows between them trains in several loops.
_LOCKSTEP_ROWS = 1 << 13


def _fit_logregs(problems, cfg: TrainConfig) -> list:
    """One model per (X, y_idx, feature_names, class_values) problem, all
    trained together by one gradient-descent loop.

    Every problem has the same feature and class counts. Each model's params
    equal those of descent on `logreg_loss_grad` alone, bit for bit:
    - each model keeps its own two matmuls, on C-contiguous views, because
      BLAS may split a sum by matrix shape, so stacked matrices could round
      differently;
    - the softmax runs once per step on one buffer holding every model's
      rows, column by column: a max is exact in any order, and numpy sums
      fewer than 8 numbers left to right, so below 8 classes the column
      sweep adds in the order of `sum(axis=1)`;
    - the update runs once per step on the stacked (models, d+1, k) params.
    Each step works in preallocated buffers and skips the loss.
    """
    d, k = problems[0][0].shape[1], problems[0][3].size
    sizes = [X.shape[0] for X, *_ in problems]
    bounds = np.cumsum([0] + sizes)
    Y = np.zeros((bounds[-1], k))
    Y[np.arange(bounds[-1]), np.concatenate([y for _, y, *_ in problems])] = 1.0
    Z = np.empty_like(Y)
    cols = [Z[:, j] for j in range(k)]
    top, total = np.empty(bounds[-1]), np.empty(bounds[-1])
    params = np.zeros((len(problems), d + 1, k))
    penalty = np.zeros_like(params)  # params with the bias rows zeroed
    grad, step = np.empty_like(params), np.empty_like(params)
    n = np.array(sizes, dtype=float)[:, None, None]
    views = []  # per model: X1, X1.T and its views of params, Z and grad
    for (X, *_), a, b, p, g in zip(problems, bounds[:-1], bounds[1:], params, grad):
        X1 = np.column_stack([X, np.ones(X.shape[0])])
        views.append((X1, X1.T, p, Z[a:b], g))
    for _ in range(cfg.iterations):
        for X1, _, p, z, _ in views:
            np.matmul(X1, p, out=z)
        np.maximum(cols[0], cols[1], out=top)
        for c in cols[2:]:
            np.maximum(top, c, out=top)
        for c in cols:
            c -= top
        np.exp(Z, out=Z)
        if k < 8:
            np.add(cols[0], cols[1], out=total)
            for c in cols[2:]:
                total += c
        else:
            np.sum(Z, axis=1, out=total)
        for c in cols:
            c /= total
        Z -= Y  # P - Y
        for _, X1T, _, z, g in views:
            np.matmul(X1T, z, out=g)
        grad /= n
        penalty[:, :-1] = params[:, :-1]
        np.multiply(penalty, cfg.l2, out=step)
        grad += step
        grad *= cfg.learning_rate
        params -= grad
    return [
        LogisticRegressionModel(names, classes, p[:-1], p[-1])
        for (_, _, names, classes), p in zip(problems, params)
    ]


# ---------------------------------------------------------------------------
# CART trees and random forests: one flat-array engine

#: Most entries that one tree descent holds: rows x trees in `predict_proba`,
#: masks x background rows in `coalition_values` (at least one row or mask).
#: `coalition_values` also groups trees so that a group's masks x background
#: rows stay within it, or within coalitions x background rows for one tree.
_PREDICT_CELLS = 1 << 16
#: Most bootstrap rows that one level-synchronous growth holds at once; a
#: forest whose trees x rows exceeds it grows in batches of trees.
_GROW_SAMPLES = 1 << 13
#: Most candidate slots x samples that one pass of split search holds at
#: once; a level with more is searched in batches of slots.
_SPLIT_CELLS = 1 << 13


@dataclass(frozen=True)
class _Trees:
    """Every node of every tree of a model, in flat arrays.

    Tree t owns nodes start[t] .. start[t+1]-1 and its root is start[t].
    Leaves have feature -1 and are their own children, so `depth` descent
    steps end on a leaf from every root. `dist` holds each node's training
    class distribution.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    dist: np.ndarray
    start: np.ndarray
    depth: int


def _gini_columns(columns, total, k: int) -> np.ndarray:
    """Gini impurity of rows over `total` samples from their `k` class-count
    columns, equal to `1 - np.sum(p * p, axis=-1)` bit for bit: numpy sums
    fewer than 8 numbers left to right, as the running column here does,
    and more pairwise, so from 8 classes on numpy sums the stacked squares."""
    t = np.maximum(total, 1)
    wide = k >= 8
    sq = np.zeros((t.size, k if wide else 1))
    for c, col in enumerate(columns):
        p = col / t
        sq[:, c if wide else 0] += p * p
    return 1.0 - sq.sum(axis=-1)


def _best_splits(X, value_rank, srow, snode, sy, size, counts, cand, min_leaf):
    """Best (feature, threshold) of every node of one level; feature -1 if none.

    Sample i is training row `srow[i]` of class `sy[i]` in level node
    `snode[i]`; only nodes open for splitting have samples. `value_rank[f]`
    holds the dense rank of each row's value of feature f, `counts` each node's
    class counts and `cand[j]` node j's candidate features. Candidate
    thresholds are midpoints between consecutive distinct sorted values; a
    split is valid only when both children keep at least `min_leaf` rows.
    Per candidate the lowest weighted Gini wins, ties to the lowest
    threshold; a later candidate replaces an earlier one only when it is
    lower by more than 1e-15. Growth is therefore deterministic.

    All candidate slots are scored together, in batches of at most
    `_SPLIT_CELLS` slots x samples sorted by node, then value.
    """
    (L, k), N = counts.shape, srow.size
    best_g, best_f, best_t = np.full(L, np.inf), np.full(L, -1), np.zeros(L)
    n_open = np.bincount(snode, minlength=L)
    node_at = np.repeat(np.arange(L), n_open)  # node of sorted position p, in every slot
    left_at = np.arange(1, N + 1) - np.repeat(np.cumsum(n_open) - n_open, n_open)  # left size
    valid_at = (left_at >= min_leaf) & (size[node_at] - left_at >= min_leaf)
    per = max(1, _SPLIT_CELLS // max(N, 1))
    for s0 in range(0, cand.shape[1], per):
        slots = cand[:, s0 : s0 + per]
        S = slots.shape[1]
        key = value_rank[slots[snode].T, srow] + snode * value_rank.shape[1]  # (S, N)
        order = np.argsort(key, axis=1)
        key = np.take_along_axis(key, order, axis=1)
        split = np.zeros((S, N), dtype=bool)  # split after flat position s * N + p
        np.not_equal(key[:, :-1], key[:, 1:], out=split[:, :-1])
        end = np.flatnonzero(split & valid_at) + 1  # flat end of each left child
        if end.size == 0:
            continue
        pos = (end - 1) % N  # sorted position of each split
        node, left_n = node_at[pos], left_at[pos]
        right_n, run = size[node] - left_n, end - left_n  # run: the node's flat start
        sorted_y, cum = sy[order].ravel(), np.zeros(S * N + 1, dtype=np.int64)
        bits = (S * N).bit_length()  # holds any class count; 63 // bits share an int64

        def class_columns():  # left counts of 63 // bits classes per packed cumsum
            for c0 in range(0, k, 63 // bits):
                c1 = min(k, c0 + 63 // bits)
                weight = np.zeros(k, dtype=np.int64)
                weight[c0:c1] = 1 << bits * np.arange(c1 - c0)
                np.cumsum(weight[sorted_y], out=cum[1:])
                packed = cum[end] - cum[run]
                for c in range(c0, c1):
                    left = (packed >> bits * (c - c0)) & ((1 << bits) - 1)
                    yield np.concatenate([left, counts[node, c] - left])

        g = _gini_columns(class_columns(), np.concatenate([left_n, right_n]), k)
        gini = (left_n * g[: end.size] + right_n * g[end.size :]) / size[node]
        # first minimum of each (slot, node) run of boundaries
        head = np.ones(end.size, dtype=bool)
        np.not_equal(run[1:], run[:-1], out=head[1:])
        starts, nth = np.flatnonzero(head), np.cumsum(head) - 1
        low = np.minimum.reduceat(gini, starts)
        sj = run[starts] // N, node[starts]  # (slot, node) of each run
        low_sj, end_sj = np.full((S, L), np.inf), np.zeros((S, L), dtype=np.int64)
        low_sj[sj] = low
        end_sj[sj] = np.minimum.reduceat(np.where(gini == low[nth], end, S * N), starts)
        src = np.full(L, -1)  # the slot of this batch each node's best split is in
        for s, low_s in enumerate(low_sj):
            win = low_s < best_g - 1e-15
            best_g, src = np.where(win, low_s, best_g), np.where(win, s, src)
        j = np.flatnonzero(src >= 0)
        best_f[j], e = slots[j, src[j]], end_sj[src[j], j]
        lo, hi = srow[order.flat[e - 1]], srow[order.flat[e]]
        below, above = X[lo, best_f[j]], X[hi, best_f[j]]
        mid = 0.5 * (below + above)  # rounds onto `above` when they are one ulp apart
        best_t[j] = np.where(mid < above, mid, below)
    return best_f, best_t


def _grow(X, y_idx, k, cfg: TrainConfig, rows, cand) -> _Trees:
    """Grow tree t on training rows `rows[t]` with candidate features `cand[t]`.

    All trees grow together, one level at a time. A node stays a leaf at
    `max_depth`, below 2 * `min_leaf` rows, when pure, or when it has no
    valid split; otherwise its rows at or below the threshold go left.
    Each tree's nodes are numbered breadth-first.
    """
    T, n = rows.shape
    # dense rank of every value, per feature: sorting ranks sorts the values
    value_rank = np.array([np.unique(col, return_inverse=True)[1] for col in X.T])
    srow = rows.ravel()
    snode = np.repeat(np.arange(T), n)
    tree = np.arange(T)  # tree of each node of the level
    levels = []
    base = 0
    while tree.size:
        L = tree.size
        sy = y_idx[srow]
        size = np.bincount(snode, minlength=L)
        counts = np.bincount(snode * k + sy, minlength=L * k).reshape(L, k)
        open_ = (len(levels) < cfg.max_depth) & (size >= 2 * cfg.min_leaf)
        open_ &= counts.max(axis=1) != size
        keep = open_[snode]
        srow, snode, sy = srow[keep], snode[keep], sy[keep]
        feat, thr = _best_splits(
            X, value_rank, srow, snode, sy, size, counts, cand[tree], cfg.min_leaf
        )
        split = feat >= 0
        nth = np.cumsum(split) - 1  # index among the level's split nodes
        me = base + np.arange(L)
        child = base + L + 2 * nth
        levels.append((tree, feat, thr, np.where(split, child, me),
                       np.where(split, child + 1, me), counts / size[:, None]))
        keep = split[snode]
        srow, snode = srow[keep], snode[keep]
        snode = 2 * nth[snode] + ~(X[srow, feat[snode]] <= thr[snode])
        tree = np.repeat(tree[split], 2)
        base += L
    tree, feature, threshold, left, right, dist = map(np.concatenate, zip(*levels))
    order = np.argsort(tree, kind="stable")
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    start = np.r_[0, np.cumsum(np.bincount(tree, minlength=T))]
    return _Trees(feature[order], threshold[order], new_id[left[order]],
                  new_id[right[order]], dist[order], start, len(levels) - 1)


def _concat(parts: list) -> _Trees:
    """The trees of every part, in order, as one _Trees."""
    offset = np.cumsum([0] + [p.feature.size for p in parts])
    return _Trees(
        np.concatenate([p.feature for p in parts]),
        np.concatenate([p.threshold for p in parts]),
        np.concatenate([p.left + o for p, o in zip(parts, offset)]),
        np.concatenate([p.right + o for p, o in zip(parts, offset)]),
        np.concatenate([p.dist for p in parts]),
        np.concatenate([p.start[:-1] + o for p, o in zip(parts, offset)] + [offset[-1:]]),
        max(p.depth for p in parts),
    )


def _descend(trees: _Trees, node, row, cells) -> np.ndarray:
    """The leaves reached from `node`, where the row each entry descends has
    its feature f at `cells[row + f]`."""
    feature = np.maximum(trees.feature, 0)  # leaves read column 0 and stay put
    child = np.stack([trees.left, trees.right], axis=1).ravel()
    for _ in range(trees.depth):
        go_right = ~(cells[row + feature[node]] <= trees.threshold[node])
        node = child[2 * node + go_right]
    return node


def _tree_payloads(trees: _Trees) -> list:
    """One version-1 entry per tree: breadth-first nodes, leaf children -1."""
    out = []
    for a, b in zip(trees.start[:-1], trees.start[1:]):
        leaf = trees.feature[a:b] < 0
        out.append({
            "feature": trees.feature[a:b].tolist(),
            "threshold": trees.threshold[a:b].tolist(),
            "left": np.where(leaf, -1, trees.left[a:b] - a).tolist(),
            "right": np.where(leaf, -1, trees.right[a:b] - a).tolist(),
            "dist": trees.dist[a:b].tolist(),
        })
    return out


class _TreeModel(Predictor):
    """CART trees on the flat-array engine; predicts the mean leaf distribution."""

    def __init__(self, feature_names, class_values, trees: _Trees):
        super().__init__(feature_names, class_values)
        self.trees = trees

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf distribution over the trees, summed tree by tree."""
        trees, X, T = self.trees, np.asarray(X, dtype=float), self.trees.start.size - 1
        out = np.empty((X.shape[0], self.n_classes))
        step = max(1, _PREDICT_CELLS // T)
        for a in range(0, X.shape[0], step):
            chunk = np.ascontiguousarray(X[a : a + step])
            r, d = chunk.shape
            node = np.repeat(trees.start[:-1, None], r, axis=1)  # (trees, rows)
            node = _descend(trees, node, np.arange(r) * d, chunk.ravel())
            acc = np.zeros((r, self.n_classes))
            for t in range(T):
                acc += trees.dist[node[t]]
            out[a : a + step] = acc / T
        return out

    @cached_property
    def _splits(self) -> tuple:
        """Per tree, the weight 2**j of the j-th feature it splits on (0 at
        the others; j capped at 60), and how many features it splits on; and
        the most features any tree splits on."""
        trees, T = self.trees, self.trees.start.size - 1
        tree, inner = np.repeat(np.arange(T), np.diff(trees.start)), trees.feature >= 0
        tested = np.zeros((T, len(self.feature_names)), dtype=bool)
        tested[tree[inner], trees.feature[inner]] = True
        rank = np.minimum(np.cumsum(tested, axis=1) - tested, 60)
        n = tested.sum(axis=1)
        return np.where(tested, 2.0**rank, 0.0), n, int(n.max())

    def coalition_values(self, x, masks, bg, cls: int) -> np.ndarray | None:
        """Per coalition mask, the class `cls` probability of the rows
        `where(mask, x, bg[b])` averaged over b, equal bit for bit to
        `predict_proba`; None when a tree splits on n features with 2**n above
        the coalition count, whose rows are then fewer than its masks. A tree
        reads only the features it splits on, so each tree's 2**n masks on
        them descend once, and every coalition takes the leaves of its own."""
        trees, B, C, F = self.trees, bg.shape[0], masks.shape[0], len(self.feature_names)
        (weight, n, most), T = self._splits, trees.start.size - 1
        if most >= C.bit_length():
            return None
        x, bg, masks, dist = x[:F], bg[:, :F], masks[:, :F], trees.dist[:, cls]
        size = np.left_shift(1, n)  # mask i of a tree holds the bits of i
        off, bits = np.cumsum(size) - size, weight.astype(np.intp)
        acc = np.zeros((C, B))
        per, step = max(1, _PREDICT_CELLS // (C * B)), max(1, _PREDICT_CELLS // B)
        for a in range(0, T, per):  # a group of trees, whose masks descend in slices
            u = np.repeat(np.arange(a, min(a + per, T)), size[a : a + per])  # each mask's tree
            P = np.empty((u.size, B))
            for s in range(0, u.size, step):
                v = u[s : s + step]
                E = ((np.arange(s, s + v.size) + off[a] - off[v])[:, None] & bits[v]) > 0
                cells = np.where(np.repeat(E, B, axis=0).reshape(-1, B, F), x, bg).ravel()
                leaf = _descend(trees, np.repeat(trees.start[v], B), np.arange(0, cells.size, F), cells)
                P[s : s + v.size] = dist[leaf].reshape(-1, B)
            own = (weight[a : a + per] @ masks.T).astype(np.intp)  # sums of 2**j: exact in floats
            for shares in np.take(P, own + (off[a : a + per] - off[a])[:, None], axis=0):
                acc += shares  # in tree order, as predict_proba adds
        return (acc / T).mean(axis=1)


class DecisionTreeModel(_TreeModel):
    """Greedy CART classifier split on Gini impurity: a one-tree forest."""

    architecture = "dtree"

    def _payload(self) -> dict:
        return _tree_payloads(self.trees)[0]


class RandomForestModel(_TreeModel):
    """Bagged CART trees with per-tree feature subsampling; mean-probability vote."""

    architecture = "rforest"

    def _payload(self) -> dict:
        return {"trees": _tree_payloads(self.trees)}


def _fit_trees(X, y_idx, feature_names, class_values, cfg: TrainConfig):
    """Grow a model's trees; a dtree is one tree on every row and every feature."""
    n, d = X.shape
    if cfg.architecture == "dtree":
        model, rows, cand = DecisionTreeModel, np.arange(n)[None], np.arange(d)[None]
    else:
        m = cfg.n_features if cfg.n_features is not None else max(1, round(math.sqrt(d)))
        if not 1 <= m <= d:
            raise ConfigError(f"n_features must lie in [1, {d}], got {m}")
        rows, cand = [], []
        for t in range(cfg.n_trees):
            rng = np.random.default_rng(derive_seed(cfg.seed, "tree", t))
            rows.append(rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n))
            cand.append(np.sort(rng.choice(d, size=m, replace=False)))
        model, rows, cand = RandomForestModel, np.array(rows), np.array(cand)
    per = max(1, _GROW_SAMPLES // n)
    trees = _concat([
        _grow(X, y_idx, class_values.size, cfg, rows[a : a + per], cand[a : a + per])
        for a in range(0, rows.shape[0], per)
    ])
    return model(feature_names, class_values, trees)


# ---------------------------------------------------------------------------
# Entry points


def training_arrays(train: Dataset, cfg: TrainConfig):
    """(X, class index per row, class values) of a valid training problem.

    Raises ConfigError for a bad `cfg` and DataError unless `train` is
    encoded, complete, finite, non-empty and holds at least two classes.
    """
    cfg.validate()
    if any(c.kind == KIND_CATEGORICAL for c in train.schema):
        raise DataError("training data still has categorical columns; encode them first")
    if np.isnan(train.values).any():
        raise DataError("training data still has missing cells; drop them first")
    if train.n_rows == 0:
        raise DataError("training set is empty")
    X = train.feature_matrix()  # a new array: feature_matrix takes the columns by index
    if np.isinf(X).any():
        raise DataError("training data holds infinite feature cells")
    labels = train.labels()
    class_values = np.unique(labels)
    if class_values.size < 2:
        raise DataError("training set holds a single class")
    y_idx = np.searchsorted(class_values, labels)
    return X, y_idx, class_values


def train_many(datasets, cfgs) -> list:
    """One model per (dataset, cfg) pair, in order.

    Every pair is checked with `training_arrays`, in order, before any model
    trains. Logreg models that share the feature and class counts and the
    iterations, learning rate and l2 train together, in lockstep loops of at
    most `_LOCKSTEP_ROWS` rows (a larger model trains alone); tree models
    train one at a time. Every model equals the one its pair trains alone,
    bit for bit.
    """
    problems = []  # (X, y_idx, feature_names, class_values) per pair
    for ds, cfg in zip(datasets, cfgs, strict=True):
        X, y_idx, classes = training_arrays(ds, cfg)
        problems.append((X, y_idx, ds.feature_names, classes))
    out: list = [None] * len(problems)
    loops, open_loop = [], {}  # lockstep batches of pair indices; the open one per group
    for i, (problem, cfg) in enumerate(zip(problems, cfgs)):
        X, classes = problem[0], problem[3]
        if cfg.architecture != "logreg":
            out[i] = _fit_trees(*problem, cfg)
            continue
        key = (X.shape[1], classes.size, cfg.iterations, cfg.learning_rate, cfg.l2)
        batch = open_loop.get(key)
        rows = 0 if batch is None else sum(problems[j][0].shape[0] for j in batch)
        if batch is None or rows + X.shape[0] > _LOCKSTEP_ROWS:
            batch = open_loop[key] = []
            loops.append(batch)
        batch.append(i)
    for batch in loops:
        for i, model in zip(batch, _fit_logregs([problems[i] for i in batch], cfgs[batch[0]])):
            out[i] = model
    return out


def train(dataset: Dataset, cfg: TrainConfig) -> Predictor:
    """Train one model per `cfg.architecture` on an encoded, complete dataset."""
    return train_many([dataset], [cfg])[0]


def predict_batch(m: Predictor, queries: Dataset):
    """Predict every query row; the label column is ignored.

    Returns a list of (class index, probability vector) pairs.
    """
    if schema_fingerprint(queries.feature_names) != m.schema_fingerprint:
        raise DataError(
            "query features do not match the model's training features: "
            f"{queries.feature_names!r}"
        )
    X = queries.feature_matrix()
    if np.isnan(X).any():
        raise DataError("queries contain missing cells")
    P = m.predict_proba(X)
    return [(int(np.argmax(row)), row) for row in P]


def save_model(m: Predictor, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(m.to_payload(), fh)
        fh.write("\n")


def _array(value, dtype, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise DataError(f"model file: {what} is not a numeric array") from None


def _tree_from_payload(p, n_features: int, k: int, where: str) -> _Trees:
    """One version-1 tree entry as a one-tree _Trees.

    Raises DataError unless the lists have one equal, non-zero length,
    internal nodes name a valid feature and valid children, `dist` rows hold
    `k` entries, and a walk from node 0 reaches every node exactly once,
    which rules out cycles and shared children. Leaves become their own
    children.
    """
    keys = ("feature", "threshold", "left", "right", "dist")
    cols = [json_field(p, key, f"model file: {where}") for key in keys]
    if not all(isinstance(c, list) for c in cols) or len({len(c) for c in cols}) != 1:
        raise DataError(f"model file: {where} needs node lists of equal length")
    if not cols[0]:
        raise DataError(f"model file: {where} has no nodes")
    feature, left, right = (
        _array(p[key], np.int64, f"{where} {key}") for key in ("feature", "left", "right")
    )
    threshold = _array(p["threshold"], float, f"{where} threshold")
    dist = _array(p["dist"], float, f"{where} dist")
    n = feature.size
    if any(a.shape != (n,) for a in (feature, threshold, left, right)):
        raise DataError(f"model file: {where} node lists must be flat")
    if dist.shape != (n, k):
        raise DataError(f"model file: every {where} dist row needs {k} entries")
    inner = feature >= 0
    if (feature[inner] >= n_features).any():
        raise DataError(f"model file: {where} splits on a feature >= {n_features}")
    kids = np.concatenate([left[inner], right[inner]])
    if ((kids < 0) | (kids >= n)).any():
        raise DataError(f"model file: {where} has a child index outside [0, {n})")
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    level, depth = np.zeros(1, dtype=np.int64), 0
    while True:
        level = level[inner[level]]
        if level.size == 0:
            break
        level = np.concatenate([left[level], right[level]])
        if reached[level].any() or np.unique(level).size != level.size:
            raise DataError(f"model file: {where} reaches a node twice")
        reached[level] = True
        depth += 1
    if not reached.all():
        raise DataError(f"model file: {where} has a node its root does not reach")
    me = np.arange(n)
    return _Trees(np.where(inner, feature, -1), threshold, np.where(inner, left, me),
                  np.where(inner, right, me), dist, np.array([0, n]), depth)


def _trees_from_payload(entries, n_features: int, k: int) -> _Trees:
    if not isinstance(entries, list) or not entries:
        raise DataError("model file: a forest needs a non-empty list of trees")
    return _concat([
        _tree_from_payload(p, n_features, k, f"tree {t}") for t, p in enumerate(entries)
    ])


_TOP, _PARAMS = "model file: the model", "model file: params"


def model_from_payload(payload: dict) -> Predictor:
    """The model a `to_payload` dict describes; DataError on any malformed field."""
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise DataError("not a model file")
    if payload.get("version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model version {payload.get('version')!r}")
    arch = json_field(payload, "architecture", _TOP)
    names = json_field(payload, "feature_names", _TOP)
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise DataError("model file: feature_names must be a list of strings")
    classes = _array(json_field(payload, "class_values", _TOP), float, "class_values")
    if classes.ndim != 1:
        raise DataError("model file: class_values must be a flat list")
    params = json_field(payload, "params", _TOP)
    d, k = len(names), classes.size
    if arch == "logreg":
        weights = _array(json_field(params, "weights", _PARAMS), float, "weights")
        bias = _array(json_field(params, "bias", _PARAMS), float, "bias")
        if weights.shape != (d, k) or bias.shape != (k,):
            raise DataError(f"model file: logreg needs {d}x{k} weights and {k} biases")
        return LogisticRegressionModel(names, classes, weights, bias)
    if arch == "dtree":
        return DecisionTreeModel(names, classes, _trees_from_payload([params], d, k))
    if arch == "rforest":
        trees = _trees_from_payload(json_field(params, "trees", _PARAMS), d, k)
        return RandomForestModel(names, classes, trees)
    raise DataError(f"unknown architecture {arch!r} in model file")


def load_model(path: str) -> Predictor:
    return model_from_payload(read_json(path))
