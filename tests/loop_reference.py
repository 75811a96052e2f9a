"""Reference per-step loops: logistic regression training that computes the
full loss and gradient at every step, and the Kernel SHAP coalition sampler
that builds each bitmask with numpy.

`ppverify.models._fit_logregs` and `ppverify.explain._sample_coalitions`
must reproduce these bit for bit; the property tests compare them on random
inputs.
"""

from __future__ import annotations

import numpy as np


def loss_grad(params, X1, Y, l2):
    """Mean cross-entropy plus (l2/2)*||W||^2 and its gradient."""
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


def fit_logreg(X, y_idx, k, learning_rate, iterations, l2):
    """Full-batch gradient descent; returns params, weights over a bias row."""
    n, d = X.shape
    Y = np.zeros((n, k))
    Y[np.arange(n), y_idx] = 1.0
    X1 = np.column_stack([X, np.ones(n)])
    params = np.zeros((d + 1, k))
    for _ in range(iterations):
        _, grad = loss_grad(params, X1, Y, l2)
        params -= learning_rate * grad
    return params


def coalition_ints(M, budget, rng):
    """The sampled coalition bitmasks, in draw order."""
    sizes = np.arange(1, M)
    mass = (M - 1) / (sizes * (M - sizes))
    p = mass / mass.sum()
    drawn = rng.choice(sizes, size=budget, p=p)
    ints = np.empty(budget, dtype=np.int64)
    for i, s in enumerate(drawn):
        members = rng.choice(M, size=int(s), replace=False)
        ints[i] = int(np.sum(1 << members.astype(np.int64)))
    return ints
