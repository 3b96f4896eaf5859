"""Lockstep fits: k folds in one pass equal k one-fold fits, bit for bit,
also when the models differ in their settings."""

import hashlib
import json

import numpy as np
import pytest

from valencelab.learn.boost import GradientBoostedTrees
from valencelab.learn.cv import stratified_folds
from valencelab.learn.mlp import (MLPClassifier, _fit_lockstep,
                                  mlp_loss_and_grad, mlp_pack)


def golden_data(seed=11, n=70):
    """Binary columns like the pipeline's one-hots, plus one 4-level column."""
    rng = np.random.default_rng(seed)
    X = (rng.uniform(size=(n, 12)) < 0.3).astype(np.float64)
    X[:, 0] = rng.integers(0, 4, size=n)
    y = ((X[:, 0] + X[:, 1] + 2 * X[:, 2]) % 3).astype(np.int64)
    flip = rng.uniform(size=n) < 0.15
    y[flip] = rng.integers(0, 3, size=int(flip.sum()))
    return X, y


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def ragged_folds(n=70, k=4):
    """Training folds of unequal size (70 rows do not split evenly)."""
    X, y = golden_data(n=n)
    folds = stratified_folds(y, k, seed=2)
    assert len({len(train) for train, _ in folds}) > 1
    return X, y, folds


def same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.int64),
                          np.asarray(b).view(np.int64))


GBT_SETTINGS = [
    dict(n_rounds=12, max_depth=1, learning_rate=0.3),
    dict(n_rounds=8, max_depth=6, learning_rate=0.2, subsample=0.7),
    dict(n_rounds=10, max_depth=3, leaf_l2=0.0, subsample=0.85),
    dict(n_rounds=6, max_depth=4, leaf_l2=0.0),
]


@pytest.mark.parametrize("settings", GBT_SETTINGS)
def test_gbt_lockstep_equals_one_fold_fits(settings):
    X, y, folds = ragged_folds()
    lockstep = [GradientBoostedTrees(seed=9, **settings) for _ in folds]
    GradientBoostedTrees.fit_folds(lockstep, [X[tr] for tr, _ in folds],
                                   [y[tr] for tr, _ in folds], 3)
    for model, (train, _) in zip(lockstep, folds):
        alone = GradientBoostedTrees(seed=9, **settings).fit(X[train],
                                                             y[train], 3)
        assert model.to_payload() == alone.to_payload()
        assert same_bits(model.loss_curve_, alone.loss_curve_)
        assert same_bits(model.predict_proba(X), alone.predict_proba(X))


def test_gbt_lockstep_mixes_folds_of_different_bin_counts():
    X, y, folds = ragged_folds()
    X = X.copy()
    X[folds[0][1], 0] = 7.0      # only folds other than 0 train on a 5th bin
    lockstep = [GradientBoostedTrees(n_rounds=6, max_depth=3, seed=1)
                for _ in folds]
    GradientBoostedTrees.fit_folds(lockstep, [X[tr] for tr, _ in folds],
                                   [y[tr] for tr, _ in folds], 3)
    assert len({len(m.bin_values_[0]) for m in lockstep}) == 2
    for model, (train, _) in zip(lockstep, folds):
        alone = GradientBoostedTrees(n_rounds=6, max_depth=3, seed=1).fit(
            X[train], y[train], 3)
        assert model.to_payload() == alone.to_payload()


@pytest.mark.parametrize("hidden", [4, 64])
def test_mlp_lockstep_equals_one_fold_fits(hidden):
    X, y, folds = ragged_folds()
    lockstep = [MLPClassifier(n_hidden=hidden, lr=0.05, epochs=4, seed=6)
                for _ in folds]
    MLPClassifier.fit_folds(lockstep, [X[tr] for tr, _ in folds],
                            [y[tr] for tr, _ in folds], 3)
    for model, (train, _) in zip(lockstep, folds):
        alone = MLPClassifier(n_hidden=hidden, lr=0.05, epochs=4,
                              seed=6).fit(X[train], y[train], 3)
        assert model.to_payload() == alone.to_payload()
        assert same_bits(model.predict_proba(X), alone.predict_proba(X))


@pytest.mark.parametrize("n_in, hidden", [(2, 3), (14, 16), (15, 64)])
def test_mlp_lockstep_tick_steps_along_the_checked_gradient(n_in, hidden):
    """Criterion 6 checks mlp_loss_and_grad, and training runs its own
    backprop. One tick of every fold (one row each, one epoch) must be
    w0 - lr * grad(w0) bit for bit, so training follows the checked
    gradient."""
    rng = np.random.default_rng([n_in, hidden])
    lr = 0.05
    models = [MLPClassifier(n_hidden=hidden, lr=lr, epochs=1, seed=seed)
              for seed in (3, 4, 5, 6)]
    Xs = [rng.normal(size=(1, n_in)) for _ in models]
    ys = [rng.integers(0, 3, size=1) for _ in models]
    _fit_lockstep(models, Xs, ys, 3)
    for model, X, y in zip(models, Xs, ys):
        # the initial weights, drawn as the fit draws them
        init = np.random.default_rng(model.seed)
        W1 = init.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, hidden))
        W2 = init.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, 3))
        w0 = mlp_pack(W1, np.zeros(hidden), W2, np.zeros(3))
        _, grad = mlp_loss_and_grad(w0, X, y, n_in, hidden, 3)
        assert same_bits(mlp_pack(*model.params_), w0 - lr * grad)


# One tuner batch: settings differ in every dimension, rounds are ragged,
# depths run from 1 to 6, and fold 0 trains on fewer bins than the rest.
MIXED_GBT_SETTINGS = [
    dict(n_rounds=12, max_depth=1, learning_rate=0.3),
    dict(n_rounds=5, max_depth=2, leaf_l2=0.0, min_child_hessian=0.5),
    dict(n_rounds=9, max_depth=3, subsample=0.7, min_child_hessian=0.05),
    dict(n_rounds=7, max_depth=4, learning_rate=0.1, leaf_l2=2.5),
    dict(n_rounds=3, max_depth=5, subsample=0.85, leaf_l2=0.0),
    dict(n_rounds=10, max_depth=6, learning_rate=0.2, subsample=0.6),
]
# Digest of the one-fold fits of MIXED_GBT_SETTINGS, recorded before
# fit_folds accepted models of different settings.
MIXED_GBT_GOLDEN = (
    "64097a86a13331f35b7964ddcc3aa82747caa8b4654e556edc6f90798a94580f")


def mixed_gbt_lockstep():
    """MIXED_GBT_SETTINGS over ragged folds, fit in one call."""
    X, y, folds = ragged_folds()
    X = X.copy()
    X[folds[0][1], 0] = 7.0      # only folds other than 0 train on a 5th bin
    batch = [(i, settings, train) for i, settings in
             enumerate(MIXED_GBT_SETTINGS) for train, _ in folds]
    lockstep = [GradientBoostedTrees(seed=9 + i, **settings)
                for i, settings, _ in batch]
    GradientBoostedTrees.fit_folds(lockstep, [X[tr] for _, _, tr in batch],
                                   [y[tr] for _, _, tr in batch], 3)
    return X, y, batch, lockstep


def mixed_gbt_digest(lockstep) -> str:
    return digest([[m.to_payload(), m.loss_curve_, m.gain_sums_.tolist()]
                   for m in lockstep])


def test_gbt_lockstep_with_mixed_settings_equals_one_fold_fits():
    X, y, batch, lockstep = mixed_gbt_lockstep()
    assert mixed_gbt_digest(lockstep) == MIXED_GBT_GOLDEN
    for model, (i, settings, train) in zip(lockstep, batch):
        alone = GradientBoostedTrees(seed=9 + i, **settings).fit(
            X[train], y[train], 3)
        assert model.to_payload() == alone.to_payload()
        assert len(model.loss_curve_) == settings["n_rounds"] + 1
        assert same_bits(model.loss_curve_, alone.loss_curve_)
        assert same_bits(model.gain_sums_, alone.gain_sums_)
        assert same_bits(model.predict_proba(X), alone.predict_proba(X))


def test_mlp_lockstep_with_mixed_settings_equals_one_fold_fits():
    X, y, folds = ragged_folds()
    settings = [dict(n_hidden=4, lr=0.05, epochs=3),
                dict(n_hidden=9, lr=0.05, epochs=3),
                dict(n_hidden=4, lr=0.01, epochs=2)]
    batch = [(s, train) for s in settings for train, _ in folds[:2]]
    lockstep = [MLPClassifier(seed=6, **s) for s, _ in batch]
    MLPClassifier.fit_folds(lockstep, [X[tr] for _, tr in batch],
                            [y[tr] for _, tr in batch], 3)
    for model, (s, train) in zip(lockstep, batch):
        alone = MLPClassifier(seed=6, **s).fit(X[train], y[train], 3)
        assert model.to_payload() == alone.to_payload()
        assert same_bits(model.predict_proba(X), alone.predict_proba(X))


def test_gbt_predicts_one_row_as_the_batch_does():
    X, y = golden_data()
    model = GradientBoostedTrees(n_rounds=10, max_depth=4, subsample=0.8,
                                 seed=2).fit(X, y, 3)
    assert same_bits(model.predict_proba(X[:1]), model.predict_proba(X)[:1])
    assert model.predict_proba(X[:0]).shape == (0, 3)


def test_gbt_payload_lists_nodes_in_growth_order():
    """A split node's right child is the next node, and its left child
    comes after the right one's subtree; a leaf links nowhere."""
    X, y = golden_data()
    payload = GradientBoostedTrees(n_rounds=10, max_depth=4, subsample=0.8,
                                   seed=2).fit(X, y, 3).to_payload()
    splits = 0
    for tree in (tree for rnd in payload["trees"] for tree in rnd):
        nodes = zip(tree["feature"], tree["left"], tree["right"])
        for i, (feature, left, right) in enumerate(nodes):
            if feature < 0:
                assert left == right == -1
                continue
            splits += 1
            assert right == i + 1 < left < len(tree["feature"])
    assert splits > 0


# Digests of fitted payloads on fixed data, recorded before the lockstep
# fits replaced the per-fold loops. models.json and the run hash hold only
# the best kind per entity; these guard every GBT and MLP weight.
GBT_GOLDEN = "e17d7d1a1d4ea6a7a34add601f758374382a04e60bc6e065d326f99e8fec6c5e"
MLP_GOLDEN = "964afdc5c415d5ba6f34fc9c69e6b6458e99f9f53ebef59ae628c2829058866f"


def test_gbt_payload_digest_is_pinned():
    X, y = golden_data()
    models = [GradientBoostedTrees(n_rounds=25, max_depth=d,
                                   learning_rate=0.2, subsample=s,
                                   leaf_l2=lam, seed=3).fit(X, y, 3)
              for d, s, lam in ((1, 1.0, 1.0), (3, 0.7, 0.0), (6, 0.9, 2.5))]
    assert digest([[m.to_payload(), m.loss_curve_]
                   for m in models]) == GBT_GOLDEN


# Random labels on binary features make many near-equal split gains; this
# fit moves if the parent term of a split's gain is squared by multiplying
# instead of by libm pow.
GBT_NOISY_GOLDEN = (
    "db919fde3341ef9238650be729fd1c8d1a84bca5565c1940e99e5c4fbf069e9e")


def test_gbt_payload_digest_on_random_labels_is_pinned():
    rng = np.random.default_rng(1)
    X = (rng.uniform(size=(70, 12)) < 0.3).astype(np.float64)
    y = rng.integers(0, 3, size=70)
    model = GradientBoostedTrees(n_rounds=60, max_depth=5, learning_rate=0.3,
                                 seed=1).fit(X, y, 3)
    assert digest([model.to_payload(), model.loss_curve_]) == GBT_NOISY_GOLDEN


def test_mlp_payload_digest_is_pinned():
    X, y = golden_data()
    models = [MLPClassifier(n_hidden=h, lr=0.03, epochs=6, seed=5).fit(X, y, 3)
              for h in (4, 64)]
    assert digest([m.to_payload() for m in models]) == MLP_GOLDEN
