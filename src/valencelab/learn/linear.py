"""Multinomial logistic regression trained by full-batch gradient descent."""

from __future__ import annotations

from ..errors import ContractViolationError
from ..lazy import lazy_import
from .cv import PerFoldFit

np = lazy_import("numpy")

TOL = 1e-7          # stop once one step lowers the loss by less than this


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _with_bias(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1))])


def logreg_loss_and_grad(w_flat, X, y, n_classes: int, l2: float, Xb=None):
    """Mean cross-entropy + (l2/2)*||W||^2, and its gradient.

    Weights are a flat vector packing W of shape (n_features + 1, n_classes);
    the last row is the bias, which is excluded from the penalty. Xb, if
    given, is `_with_bias(X)`, built once by the caller.
    """
    n, d = X.shape
    W = w_flat.reshape(d + 1, n_classes)
    if Xb is None:
        Xb = _with_bias(X)
    probs = softmax(Xb @ W)
    eps = 1e-12
    loss = -np.log(probs[np.arange(n), y] + eps).mean()
    loss += 0.5 * l2 * float((W[:-1] ** 2).sum())
    grad_z = probs.copy()
    grad_z[np.arange(n), y] -= 1.0
    grad = (Xb.T @ grad_z) / n
    grad[:-1] += l2 * W[:-1]
    return loss, grad.ravel()


class SoftmaxRegression(PerFoldFit):
    """Linear softmax classifier; deterministic given data and settings."""

    def __init__(self, l2: float = 1e-3, lr: float = 0.5, n_iter: int = 300):
        self.l2 = float(l2)
        self.lr = float(lr)
        self.n_iter = int(n_iter)
        self.W_ = None

    def fit(self, X, y, n_classes: int):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.shape[0] == 0:
            raise ContractViolationError("empty training set")
        n, d = X.shape
        Xb = _with_bias(X)
        w = np.zeros((d + 1) * n_classes, dtype=np.float64)
        loss, grad = logreg_loss_and_grad(w, X, y, n_classes, self.l2, Xb)
        prev = np.inf
        for _ in range(self.n_iter):
            # Backtracking keeps the full-batch step stable without tuning lr
            # per dataset. The last point tried is taken, with its loss and
            # gradient, even when no step lowered the loss.
            step = self.lr
            for _ in range(20):
                w_new = w - step * grad
                new_loss, new_grad = logreg_loss_and_grad(
                    w_new, X, y, n_classes, self.l2, Xb)
                if new_loss <= loss:
                    break
                step *= 0.5
            w, loss, grad = w_new, new_loss, new_grad
            if prev - loss < TOL:
                break
            prev = loss
        self.W_ = w.reshape(d + 1, n_classes)
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        return softmax(_with_bias(X) @ self.W_)

    def predict(self, X):
        return self.predict_proba(X).argmax(axis=1)

    def to_payload(self) -> dict:
        return {"l2": self.l2, "weights": self.W_.tolist()}
