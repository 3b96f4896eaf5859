"""Multiclass gradient boosting with second-order leaf weights.

One regression tree per class per round, fit to softmax gradients. Splits
are exact greedy over quantized feature values; depth-limited; no histogram
approximation beyond the quantization itself.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractViolationError
from .linear import softmax

MAX_BINS = 256


def leaf_weight(G: float, H: float, lam: float) -> float:
    """Second-order optimal leaf value for summed gradient G, hessian H."""
    return -G / (H + lam)


def split_gain(GL, HL, GR, HR, lam):
    """Loss reduction of a split, before any learning-rate shrinkage."""
    def half_sq(G, H):
        return G * G / (H + lam)
    return 0.5 * (half_sq(GL, HL) + half_sq(GR, HR) - half_sq(GL + GR, HL + HR))


class _Tree:
    """Flat-array binary tree; feature == -1 marks a leaf."""

    __slots__ = ("feature", "split_bin", "left", "right", "value")

    def __init__(self):
        self.feature = []
        self.split_bin = []
        self.left = []
        self.right = []
        self.value = []

    def add_leaf(self, value: float) -> int:
        nid = len(self.feature)
        self.feature.append(-1)
        self.split_bin.append(-1)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(value))
        return nid

    def add_split(self, feature: int, split_bin: int) -> int:
        nid = len(self.feature)
        self.feature.append(int(feature))
        self.split_bin.append(int(split_bin))
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return nid

    def predict(self, Xb: np.ndarray) -> np.ndarray:
        out = np.zeros(Xb.shape[0], dtype=np.float64)
        stack = [(0, np.arange(Xb.shape[0]))]
        while stack:
            nid, idx = stack.pop()
            if idx.size == 0:
                continue
            f = self.feature[nid]
            if f < 0:
                out[idx] = self.value[nid]
                continue
            go_left = Xb[idx, f] <= self.split_bin[nid]
            stack.append((self.left[nid], idx[go_left]))
            stack.append((self.right[nid], idx[~go_left]))
        return out

    def to_dict(self) -> dict:
        return {
            "feature": list(self.feature),
            "split_bin": list(self.split_bin),
            "left": list(self.left),
            "right": list(self.right),
            "value": list(self.value),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "_Tree":
        t = cls()
        t.feature = [int(v) for v in d["feature"]]
        t.split_bin = [int(v) for v in d["split_bin"]]
        t.left = [int(v) for v in d["left"]]
        t.right = [int(v) for v in d["right"]]
        t.value = [float(v) for v in d["value"]]
        return t


class GradientBoostedTrees:
    def __init__(self, n_rounds: int = 80, max_depth: int = 3,
                 learning_rate: float = 0.3, subsample: float = 1.0,
                 leaf_l2: float = 1.0, min_child_hessian: float = 1e-3,
                 seed: int = 0):
        self.n_rounds = int(n_rounds)
        self.max_depth = int(max_depth)
        self.learning_rate = float(learning_rate)
        self.subsample = float(subsample)
        self.leaf_l2 = float(leaf_l2)
        self.min_child_hessian = float(min_child_hessian)
        self.seed = int(seed)
        self.trees_ = []            # trees_[r][k]
        self.bin_values_ = []       # per feature, sorted training values
        self.gain_sums_ = None
        self.loss_curve_ = []       # length n_rounds + 1, entry 0 pre-training
        self.n_classes_ = 0

    # -- binning -----------------------------------------------------------

    def _fit_bins(self, X: np.ndarray):
        self.bin_values_ = []
        for f in range(X.shape[1]):
            uniq = np.unique(X[:, f])
            if uniq.size > MAX_BINS:
                qs = np.quantile(X[:, f], np.linspace(0, 1, MAX_BINS))
                uniq = np.unique(qs)
            self.bin_values_.append(uniq)

    def _bin(self, X: np.ndarray) -> np.ndarray:
        Xb = np.empty(X.shape, dtype=np.int64)
        for f, uniq in enumerate(self.bin_values_):
            codes = np.searchsorted(uniq, X[:, f], side="right") - 1
            Xb[:, f] = np.clip(codes, 0, uniq.size - 1)
        return Xb

    # -- tree growth -------------------------------------------------------

    def _best_split(self, Xb, g, h, idx):
        n_feat = Xb.shape[1]
        B = self._max_bin
        sub = Xb[idx]
        codes = (sub + self._offsets).ravel()
        m = idx.size
        gs = np.bincount(codes, weights=np.repeat(g[idx], n_feat),
                         minlength=n_feat * B).reshape(n_feat, B)
        hs = np.bincount(codes, weights=np.repeat(h[idx], n_feat),
                         minlength=n_feat * B).reshape(n_feat, B)
        cs = np.bincount(codes, minlength=n_feat * B).reshape(n_feat, B)
        G_tot = gs[0].sum()
        H_tot = hs[0].sum()
        GL = np.cumsum(gs, axis=1)[:, :-1]
        HL = np.cumsum(hs, axis=1)[:, :-1]
        CL = np.cumsum(cs, axis=1)[:, :-1]
        GR = G_tot - GL
        HR = H_tot - HL
        CR = m - CL
        lam = self.leaf_l2
        # empty or zero-hessian prefixes divide by zero at lam = 0; every
        # such lane is masked below, so silence just those warnings
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = 0.5 * (GL ** 2 / (HL + lam) + GR ** 2 / (HR + lam)
                          - G_tot ** 2 / (H_tot + lam))
        ok = ((CL >= 1) & (CR >= 1)
              & (HL >= self.min_child_hessian) & (HR >= self.min_child_hessian))
        gain = np.where(ok & np.isfinite(gain), gain, -np.inf)
        flat = int(np.argmax(gain))
        best_gain = gain.ravel()[flat]
        if not np.isfinite(best_gain) or best_gain <= 1e-12:
            return None
        return flat // (B - 1), flat % (B - 1), float(best_gain), G_tot, H_tot

    def _grow_tree(self, Xb, g, h, idx):
        tree = _Tree()
        # Iterative growth; parent slot is patched once the child id is known.
        stack = [(idx, 0, -1, "l")]
        while stack:
            rows, depth, parent, side = stack.pop()
            found = None
            if depth < self.max_depth and rows.size >= 2:
                found = self._best_split(Xb, g, h, rows)
            if found is None:
                G = g[rows].sum()
                H = h[rows].sum()
                w = self.learning_rate * leaf_weight(G, H, self.leaf_l2)
                nid = tree.add_leaf(w)
            else:
                f, b, gn, _, _ = found
                self.gain_sums_[f] += gn
                nid = tree.add_split(f, b)
                go_left = Xb[rows, f] <= b
                stack.append((rows[go_left], depth + 1, nid, "l"))
                stack.append((rows[~go_left], depth + 1, nid, "r"))
            if parent >= 0:
                if side == "l":
                    tree.left[parent] = nid
                else:
                    tree.right[parent] = nid
        return tree

    # -- boosting ----------------------------------------------------------

    def fit(self, X, y, n_classes: int):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.shape[0] == 0:
            raise ContractViolationError("empty training set")
        n = X.shape[0]
        self.n_classes_ = n_classes
        self._fit_bins(X)
        Xb = self._bin(X)
        self._max_bin = max(2, max(u.size for u in self.bin_values_))
        self._offsets = (np.arange(X.shape[1]) * self._max_bin)[None, :]
        self.gain_sums_ = np.zeros(X.shape[1], dtype=np.float64)
        rng = np.random.default_rng(self.seed)

        onehot = np.zeros((n, n_classes), dtype=np.float64)
        onehot[np.arange(n), y] = 1.0
        margins = np.zeros((n, n_classes), dtype=np.float64)
        self.trees_ = []
        self.loss_curve_ = [self._logloss(margins, y)]
        m_sub = max(1, int(round(self.subsample * n)))
        for _ in range(self.n_rounds):
            probs = softmax(margins)
            g = probs - onehot
            h = probs * (1.0 - probs)
            if m_sub < n:
                idx = np.sort(rng.choice(n, size=m_sub, replace=False))
            else:
                idx = np.arange(n)
            round_trees = []
            for k in range(n_classes):
                tree = self._grow_tree(Xb, g[:, k], h[:, k], idx)
                margins[:, k] += tree.predict(Xb)
                round_trees.append(tree)
            self.trees_.append(round_trees)
            self.loss_curve_.append(self._logloss(margins, y))
        return self

    @staticmethod
    def _logloss(margins, y):
        probs = softmax(margins)
        return float(-np.log(probs[np.arange(len(y)), y] + 1e-12).mean())

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        Xb = self._bin(X)
        margins = np.zeros((X.shape[0], self.n_classes_), dtype=np.float64)
        for round_trees in self.trees_:
            for k, tree in enumerate(round_trees):
                margins[:, k] += tree.predict(Xb)
        return softmax(margins)

    def predict(self, X):
        return self.predict_proba(X).argmax(axis=1)

    def to_payload(self) -> dict:
        return {
            "trees": [[t.to_dict() for t in rnd] for rnd in self.trees_],
            "bin_values": [u.tolist() for u in self.bin_values_],
            "gain_sums": self.gain_sums_.tolist(),
        }

    def load_payload(self, payload: dict, n_classes: int):
        self.trees_ = [[_Tree.from_dict(t) for t in rnd]
                       for rnd in payload["trees"]]
        self.bin_values_ = [np.array(u, dtype=np.float64)
                            for u in payload["bin_values"]]
        self.gain_sums_ = np.array(payload["gain_sums"], dtype=np.float64)
        self.n_classes_ = n_classes
        return self

    def importance_shares(self) -> np.ndarray:
        total = self.gain_sums_.sum()
        if total <= 0:
            return np.zeros_like(self.gain_sums_)
        return self.gain_sums_ / total
