"""One-hidden-layer perceptron trained by per-sample stochastic descent."""

from __future__ import annotations

import numpy as np

from ..errors import ContractViolationError
from .linear import softmax


def mlp_pack(W1, b1, W2, b2):
    return np.concatenate([W1.ravel(), b1.ravel(), W2.ravel(), b2.ravel()])


def mlp_unpack(w_flat, n_in: int, n_hidden: int, n_out: int):
    i = 0
    W1 = w_flat[i:i + n_in * n_hidden].reshape(n_in, n_hidden)
    i += n_in * n_hidden
    b1 = w_flat[i:i + n_hidden]
    i += n_hidden
    W2 = w_flat[i:i + n_hidden * n_out].reshape(n_hidden, n_out)
    i += n_hidden * n_out
    b2 = w_flat[i:i + n_out]
    return W1, b1, W2, b2


def mlp_loss_and_grad(w_flat, X, y, n_in: int, n_hidden: int, n_out: int,
                      l2: float = 0.0):
    """Mean cross-entropy over X with analytic backprop gradient.

    Kept as a standalone function so the gradient can be checked against
    finite differences without touching the training loop.
    """
    W1, b1, W2, b2 = mlp_unpack(w_flat, n_in, n_hidden, n_out)
    n = X.shape[0]
    z1 = X @ W1 + b1
    h = np.maximum(z1, 0.0)
    probs = softmax(h @ W2 + b2)
    eps = 1e-12
    loss = -np.log(probs[np.arange(n), y] + eps).mean()
    loss += 0.5 * l2 * (float((W1 ** 2).sum()) + float((W2 ** 2).sum()))

    d_z2 = probs.copy()
    d_z2[np.arange(n), y] -= 1.0
    d_z2 /= n
    gW2 = h.T @ d_z2 + l2 * W2
    gb2 = d_z2.sum(axis=0)
    d_h = d_z2 @ W2.T
    d_z1 = d_h * (z1 > 0.0)
    gW1 = X.T @ d_z1 + l2 * W1
    gb1 = d_z1.sum(axis=0)
    return loss, mlp_pack(gW1, gb1, gW2, gb2)


class MLPClassifier:
    """ReLU hidden layer, softmax output, one sample per update."""

    def __init__(self, n_hidden: int = 16, lr: float = 0.01, epochs: int = 50,
                 l2: float = 0.0, seed: int = 0):
        self.n_hidden = int(n_hidden)
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.l2 = float(l2)
        self.seed = int(seed)
        self.params_ = None

    def fit(self, X, y, n_classes: int):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.shape[0] == 0:
            raise ContractViolationError("empty training set")
        n, d = X.shape
        rng = np.random.default_rng(self.seed)
        W1 = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, self.n_hidden))
        b1 = np.zeros(self.n_hidden)
        W2 = rng.normal(0.0, np.sqrt(2.0 / self.n_hidden),
                        size=(self.n_hidden, n_classes))
        b2 = np.zeros(n_classes)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for i in order:
                x = X[i]
                z1 = x @ W1 + b1
                h = np.maximum(z1, 0.0)
                z2 = h @ W2 + b2
                z2 = z2 - z2.max()
                e = np.exp(z2)
                p = e / e.sum()
                d_z2 = p
                d_z2[y[i]] -= 1.0
                gW2 = np.outer(h, d_z2) + self.l2 * W2
                gb2 = d_z2
                d_h = W2 @ d_z2
                d_z1 = d_h * (z1 > 0.0)
                gW1 = np.outer(x, d_z1) + self.l2 * W1
                gb1 = d_z1
                W1 -= self.lr * gW1
                b1 -= self.lr * gb1
                W2 -= self.lr * gW2
                b2 -= self.lr * gb2
        self.params_ = (W1, b1, W2, b2)
        self.n_classes_ = n_classes
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        W1, b1, W2, b2 = self.params_
        h = np.maximum(X @ W1 + b1, 0.0)
        return softmax(h @ W2 + b2)

    def predict(self, X):
        return self.predict_proba(X).argmax(axis=1)

    def to_payload(self) -> dict:
        W1, b1, W2, b2 = self.params_
        return {"n_hidden": self.n_hidden, "W1": W1.tolist(),
                "b1": b1.tolist(), "W2": W2.tolist(), "b2": b2.tolist()}

    def load_payload(self, payload: dict, n_classes: int):
        self.n_hidden = int(payload["n_hidden"])
        self.params_ = tuple(np.array(payload[name], dtype=np.float64)
                             for name in ("W1", "b1", "W2", "b2"))
        self.n_classes_ = n_classes
        return self
