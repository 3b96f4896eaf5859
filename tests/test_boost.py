"""Boosting internals: closed-form leaves, descent, determinism."""

import numpy as np

from valencelab.learn.boost import (
    GradientBoostedTrees,
    leaf_weight,
)


def test_leaf_weight_hand_value():
    assert abs(leaf_weight(4.0, 2.0, 1.0) - (-4.0 / 3.0)) <= 1e-12


def test_leaf_weight_closed_form_random_triples():
    rng = np.random.default_rng(0)
    for _ in range(50):
        G = float(rng.uniform(-10, 10))
        H = float(rng.uniform(0.01, 10))
        lam = float(rng.uniform(0, 10))
        assert abs(leaf_weight(G, H, lam) - (-G / (H + lam))) <= 1e-12


def make_fixture(seed, n=150):
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(0, 3, size=n),
        rng.integers(0, 4, size=n),
        rng.integers(0, 2, size=n),
    ]).astype(np.float64)
    y = ((X[:, 0] + X[:, 1]) % 3).astype(np.int64)
    flip = rng.uniform(size=n) < 0.1
    y[flip] = rng.integers(0, 3, size=int(flip.sum()))
    return X, y


def test_training_loss_never_increases():
    for seed, lr in [(0, 0.1), (1, 0.3), (2, 0.5)]:
        X, y = make_fixture(seed)
        model = GradientBoostedTrees(n_rounds=40, learning_rate=lr,
                                     seed=seed).fit(X, y, 3)
        curve = model.loss_curve_
        assert len(curve) == 41
        for before, after in zip(curve, curve[1:]):
            assert after <= before + 1e-12


def test_fit_learns_modular_interaction():
    X, y = make_fixture(3)
    model = GradientBoostedTrees(n_rounds=60, max_depth=3, seed=0).fit(X, y, 3)
    acc = (model.predict(X) == y).mean()
    assert acc >= 0.88


def test_same_seed_same_model():
    X, y = make_fixture(4)
    a = GradientBoostedTrees(n_rounds=20, subsample=0.7, seed=9).fit(X, y, 3)
    b = GradientBoostedTrees(n_rounds=20, subsample=0.7, seed=9).fit(X, y, 3)
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


def test_binning_handles_unseen_values():
    X = np.array([[0.0], [1.0], [2.0], [3.0]] * 10)
    y = (X[:, 0] >= 2).astype(np.int64)
    model = GradientBoostedTrees(n_rounds=10, max_depth=2).fit(X, y, 2)
    # Values past the training range fall into the outermost bins.
    probe = np.array([[-5.0], [0.5], [2.5], [99.0]])
    pred = model.predict(probe)
    assert pred[0] == 0 and pred[3] == 1


def test_constant_features_yield_prior_predictions():
    X = np.ones((30, 2))
    y = np.array([0] * 20 + [1] * 10)
    model = GradientBoostedTrees(n_rounds=5).fit(X, y, 2)
    probs = model.predict_proba(X)
    # No split is possible, so every row carries the same probabilities.
    assert np.allclose(probs, probs[0])
    assert probs[0, 0] > probs[0, 1]
