"""One-hidden-layer perceptron trained by per-sample stochastic descent."""

from __future__ import annotations

from ..errors import ContractViolationError
from ..lazy import lazy_import
from .linear import softmax

np = lazy_import("numpy")


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
    """ReLU hidden layer, softmax output, one sample per update.

    `fit_folds` trains the models that share their settings (the folds of
    one cross-validation pass) in lockstep: their weights are stacked,
    and each tick takes one SGD step per fold with batched numpy calls that
    compute every fold's step exactly as a fit on its fold alone would.
    `fit` is the one-fold case.
    """

    def __init__(self, n_hidden: int = 16, lr: float = 0.01, epochs: int = 50,
                 seed: int = 0):
        self.n_hidden = int(n_hidden)
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.seed = int(seed)
        self.params_ = None

    def fit(self, X, y, n_classes: int):
        self.fit_folds([self], [X], [y], n_classes)
        return self

    @classmethod
    def fit_folds(cls, models, Xs, ys, n_classes: int):
        """Fit models[i] on (Xs[i], ys[i]) for every i.

        Models that share every setting but the seed are fit in one
        lockstep pass. Each draws its initial weights and its per-epoch
        sample order from its own seed. Models of different settings get
        a pass each: padding the hidden layer to a shared width would
        change BLAS reduction lengths, and with them the bits.
        """
        groups = {}
        for i, m in enumerate(models):
            groups.setdefault((m.n_hidden, m.lr, m.epochs), []).append(i)
        for group in groups.values():
            _fit_lockstep([models[i] for i in group], [Xs[i] for i in group],
                          [ys[i] for i in group], n_classes)
        return models

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


def _fit_lockstep(models, Xs, ys, n_classes: int):
    """One lockstep pass over models that share every setting but the seed."""
    Xs = [np.asarray(X, dtype=np.float64) for X in Xs]
    ys = [np.asarray(y, dtype=np.int64) for y in ys]
    if any(X.shape[0] == 0 for X in Xs):
        raise ContractViolationError("empty training set")
    # largest fold first, so the folds still stepping at any tick of an
    # epoch are a leading slice of the stack
    order = sorted(range(len(models)), key=lambda i: -len(ys[i]))
    stack = [models[i] for i in order]
    Xs = [Xs[i] for i in order]
    ys = [ys[i] for i in order]
    sizes = np.array([len(y) for y in ys])
    offsets = np.concatenate([[0], np.cumsum(sizes)])[:-1]
    X_all = np.concatenate(Xs)
    n_in = X_all.shape[1]
    H = stack[0].n_hidden
    lr = stack[0].lr
    # each bias rides as the last row of its weights, fed by a constant
    # input of 1, so one update covers both: 1.0 * g == g exactly
    X_all = np.hstack([X_all, np.ones((len(X_all), 1))])
    targets = np.eye(n_classes)[np.concatenate(ys)]
    W1 = np.zeros((len(stack), n_in + 1, H))
    W2 = np.zeros((len(stack), H + 1, n_classes))
    rngs = [np.random.default_rng(m.seed) for m in stack]
    for j, rng in enumerate(rngs):
        W1[j, :n_in] = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, H))
        W2[j, :H] = rng.normal(0.0, np.sqrt(2.0 / H), size=(H, n_classes))
    hidden = np.ones((len(stack), H + 1))
    # the folds still stepping at tick t of an epoch are the first k;
    # every vector is kept as a (k, 1, n) row or a (k, n, 1) column
    stepping = (sizes[None, :] > np.arange(sizes[0])[:, None]).sum(axis=1)
    views = {k: (W1[:k], W1[:k, :n_in], W1[:k, n_in:], W2[:k],
                 W2[:k, :H], W2[:k, H:], W2[:k, :H].transpose(0, 2, 1),
                 hidden[:k, None, :H], hidden[:k, :, None])
             for k in set(stepping.tolist())}
    picks = np.zeros((sizes[0], len(stack)), dtype=np.int64)
    for _ in range(stack[0].epochs):
        for j, (rng, n) in enumerate(zip(rngs, sizes)):
            picks[:n, j] = offsets[j] + rng.permutation(n)
        X_ep = X_all[picks]
        rows, cols = X_ep[:, :, None, :n_in], X_ep[:, :, :, None]
        T_ep = targets[picks][:, :, None, :]
        # each batched matmul runs, per fold, the gemv that x @ W1 runs
        # on one fold; all else is elementwise, so no fold's bits move
        for t, k in enumerate(stepping):
            w1b, w1, b1, w2b, w2, b2, w2T, h, h_col = views[k]
            z1 = rows[t, :k] @ w1 + b1
            np.maximum(z1, 0.0, out=h)
            z2 = h @ w2 + b2
            z2 -= np.maximum.reduce(z2, axis=2, keepdims=True)
            e = np.exp(z2)
            d_z2 = e / np.add.reduce(e, axis=2, keepdims=True)
            d_z2 -= T_ep[t, :k]
            d_z1 = (d_z2 @ w2T) * (z1 > 0.0)
            w1b -= lr * (cols[t, :k] * d_z1)
            w2b -= lr * (h_col * d_z2)
    for j, model in enumerate(stack):
        model.params_ = (W1[j, :n_in].copy(), W1[j, n_in].copy(),
                         W2[j, :H].copy(), W2[j, H].copy())
