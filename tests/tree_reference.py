"""Reference CART grower and predictor: recursive, one node at a time.

The flat-array engine in `ppverify.models` must reproduce these predictions
bit for bit. The depth-first grower and the per-node stack descent here are
the simplest statement of the split rules, so the property tests compare the
engine with them on random data. `TreeNodes.payload` writes a version-1 tree
entry in depth-first pre-order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ppverify.seeding import derive_seed


@dataclass
class TreeNodes:
    """One grown tree as parallel lists, numbered in depth-first pre-order."""

    feature: list = field(default_factory=list)  # -1 marks a leaf
    threshold: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    dist: list = field(default_factory=list)  # class distribution per node

    def payload(self) -> dict:
        """The tree as a version-1 model-file entry."""
        return {
            "feature": list(self.feature),
            "threshold": [float(t) for t in self.threshold],
            "left": list(self.left),
            "right": list(self.right),
            "dist": [[float(p) for p in d] for d in self.dist],
        }


def _gini_from_counts(counts: np.ndarray, total) -> np.ndarray:
    p = counts / np.maximum(total, 1)
    return 1.0 - np.sum(p * p, axis=-1)


def best_split(X, y_idx, node_idx, candidates, k, min_leaf):
    n = node_idx.size
    labels = y_idx[node_idx]
    best = None  # (gini, feature, threshold)
    for f in candidates:
        order = np.argsort(X[node_idx, f], kind="stable")
        sv = X[node_idx[order], f]
        sy = labels[order]
        boundary = np.flatnonzero(sv[:-1] < sv[1:])  # split after position i
        if boundary.size == 0:
            continue
        onehot = np.zeros((n, k))
        onehot[np.arange(n), sy] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left_counts = cum[boundary]
        total = cum[-1]
        right_counts = total - left_counts
        left_n = boundary + 1
        right_n = n - left_n
        valid = (left_n >= min_leaf) & (right_n >= min_leaf)
        if not valid.any():
            continue
        gini = (
            left_n * _gini_from_counts(left_counts, left_n[:, None])
            + right_n * _gini_from_counts(right_counts, right_n[:, None])
        ) / n
        gini = np.where(valid, gini, np.inf)
        i = int(np.argmin(gini))
        if best is None or gini[i] < best[0] - 1e-15:
            below, above = sv[boundary[i]], sv[boundary[i] + 1]
            thr = 0.5 * (below + above)
            if not thr < above:  # one ulp apart: the midpoint rounded onto `above`
                thr = below
            best = (float(gini[i]), int(f), float(thr))
    return best


def grow_tree(X, y_idx, k, max_depth, min_leaf, candidates) -> TreeNodes:
    nodes = TreeNodes()

    def add_node():
        nodes.feature.append(-1)
        nodes.threshold.append(0.0)
        nodes.left.append(-1)
        nodes.right.append(-1)
        nodes.dist.append(None)
        return len(nodes.feature) - 1

    def build(node_idx, depth):
        me = add_node()
        counts = np.bincount(y_idx[node_idx], minlength=k).astype(float)
        nodes.dist[me] = counts / node_idx.size
        pure = counts.max() == node_idx.size
        if depth >= max_depth or node_idx.size < 2 * min_leaf or pure:
            return me
        best = best_split(X, y_idx, node_idx, candidates, k, min_leaf)
        if best is None:
            return me
        _, f, thr = best
        mask = X[node_idx, f] <= thr
        nodes.feature[me] = f
        nodes.threshold[me] = thr
        nodes.left[me] = build(node_idx[mask], depth + 1)
        nodes.right[me] = build(node_idx[~mask], depth + 1)
        return me

    build(np.arange(X.shape[0]), 0)
    return nodes


def tree_proba(nodes: TreeNodes, X: np.ndarray, k: int) -> np.ndarray:
    out = np.empty((X.shape[0], k))
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        f = nodes.feature[node]
        if f < 0:
            out[idx] = nodes.dist[node]
            continue
        mask = X[idx, f] <= nodes.threshold[node]
        stack.append((nodes.left[node], idx[mask]))
        stack.append((nodes.right[node], idx[~mask]))
    return out


def fit_dtree(X, y_idx, k, cfg) -> list:
    """The single tree of a `dtree` model, as a one-element list."""
    return [grow_tree(X, y_idx, k, cfg.max_depth, cfg.min_leaf, np.arange(X.shape[1]))]


def fit_rforest(X, y_idx, k, cfg) -> list:
    """The trees of an `rforest` model, drawn from the same seeded streams."""
    n, d = X.shape
    m = cfg.n_features if cfg.n_features is not None else max(1, round(math.sqrt(d)))
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(derive_seed(cfg.seed, "tree", t))
        rows = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        candidates = np.sort(rng.choice(d, size=m, replace=False))
        trees.append(
            grow_tree(X[rows], y_idx[rows], k, cfg.max_depth, cfg.min_leaf, candidates)
        )
    return trees


def dtree_proba(trees: list, X: np.ndarray, k: int) -> np.ndarray:
    return tree_proba(trees[0], np.asarray(X, dtype=float), k)


def rforest_proba(trees: list, X: np.ndarray, k: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    acc = np.zeros((X.shape[0], k))
    for nodes in trees:
        acc += tree_proba(nodes, X, k)
    return acc / len(trees)
