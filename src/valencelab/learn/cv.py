"""Cross-validation split auto-search and stratified fold assignment.

The split count adapts to the scarcest class so that every fold can hold
every class, which the downstream estimators require.
"""

from __future__ import annotations

from ..errors import ContractViolationError
from ..lazy import lazy_import

np = lazy_import("numpy")


def choose_cv_splits(y, n_max: int = 10) -> int:
    """Pick the fold count as the minimum class count clamped to [2, n_max].

    Every class must appear at least twice; eligibility filtering upstream
    guarantees that for pipeline data.
    """
    y = np.asarray(y)
    if y.size == 0:
        raise ContractViolationError("labels must be non-empty")
    _, counts = np.unique(y, return_counts=True)
    min_count = int(counts.min())
    if min_count < 2:
        raise ContractViolationError(
            f"every class needs >= 2 members, scarcest has {min_count}"
        )
    return int(min(max(min_count, 2), n_max))


def stratified_folds(y, n_splits: int, seed: int = 0):
    """Deterministic stratified folds: list of (train_idx, test_idx) pairs.

    Indices of each class are shuffled once with the given seed and dealt
    round-robin across folds, so each test fold contains every class as
    long as each class has at least ``n_splits`` members.
    """
    y = np.asarray(y)
    if n_splits < 2:
        raise ContractViolationError("n_splits must be >= 2")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(y), dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % n_splits
    folds = []
    for k in range(n_splits):
        test = np.flatnonzero(fold_of == k)
        train = np.flatnonzero(fold_of != k)
        folds.append((train, test))
    return folds


class PerFoldFit:
    """`fit_folds` as one plain `fit` per fold, for estimators too cheap to
    gain from a lockstep fit; the lockstep kinds offer the same call."""

    @classmethod
    def fit_folds(cls, models, Xs, ys, n_classes: int):
        for model, X, y in zip(models, Xs, ys):
            model.fit(X, y, n_classes)
        return models
