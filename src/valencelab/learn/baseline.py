"""Stratified baseline: predictions sampled from the training class mix."""

from __future__ import annotations

from ..digest import sha256
from ..errors import ContractViolationError
from ..lazy import lazy_import
from .cv import PerFoldFit

np = lazy_import("numpy")


class StratifiedBaseline(PerFoldFit):
    """Ignores feature values; samples labels from training frequencies.

    Draws are seeded from the model seed plus a digest of the query, so the
    same query always gets the same predictions (serialization-safe) while
    distinct queries get independent draws.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.class_probs_ = None
        self.n_classes_ = 0

    def fit(self, X, y, n_classes: int):
        y = np.asarray(y, dtype=np.int64)
        if y.size == 0:
            raise ContractViolationError("empty training set")
        counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        self.class_probs_ = counts / counts.sum()
        self.n_classes_ = n_classes
        return self

    def _rng_for(self, X: np.ndarray):
        digest = sha256(np.ascontiguousarray(X, dtype=np.float64).tobytes())
        return np.random.default_rng(
            [self.seed, len(X), int.from_bytes(digest[:8], "big")])

    def predict_proba(self, X):
        """Each row is the one-hot of a fresh stratified draw.

        Sampling (rather than returning the frequency vector) is what makes
        the baseline's hard predictions respect the class distribution.
        """
        X = np.asarray(X, dtype=np.float64)
        n = len(X)
        rng = self._rng_for(X)
        draws = rng.choice(self.n_classes_, size=n, p=self.class_probs_)
        probs = np.zeros((n, self.n_classes_), dtype=np.float64)
        probs[np.arange(n), draws] = 1.0
        return probs

    def predict(self, X):
        return self.predict_proba(X).argmax(axis=1)

    def to_payload(self) -> dict:
        return {"seed": self.seed, "class_probs": self.class_probs_.tolist()}
