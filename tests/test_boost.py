"""Boosting internals: closed-form leaves, descent, determinism."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _searchsorted_and_clip(bin_values, X):
    """Binning as a per-feature searchsorted, shifted and clipped."""
    Xb = np.empty(X.shape, dtype=np.int64)
    for f, uniq in enumerate(bin_values):
        codes = np.searchsorted(uniq, X[:, f], side="right") - 1
        Xb[:, f] = np.clip(codes, 0, uniq.size - 1)
    return Xb


def _probe_values(uniq, rng, n_rows):
    """Rows drawn from the bin values, points between and beyond them,
    NaN and both infinities."""
    gaps = np.diff(uniq) / 2 if uniq.size > 1 else np.array([0.5])
    pool = np.concatenate([
        uniq, uniq[:-1] + gaps[:uniq.size - 1], uniq[0] - [1.0, 1e300],
        uniq[-1] + [1.0, 1e300], [np.nan, np.inf, -np.inf]])
    return rng.choice(pool, size=n_rows)


@settings(max_examples=40, deadline=None)
@given(bins=st.lists(st.integers(1, 256), min_size=1, max_size=5),
       n_rows=st.sampled_from([0, 1, 27, 10_000]),
       seed=st.integers(0, 2**32 - 1))
def test_bin_matches_searchsorted_and_clip(bins, n_rows, seed):
    rng = np.random.default_rng(seed)
    model = GradientBoostedTrees()
    model.bin_values_ = [np.unique(rng.normal(scale=10.0, size=k).round(3))
                         for k in bins]
    X = np.column_stack([_probe_values(u, rng, n_rows)
                         for u in model.bin_values_])
    got = model._bin(X)
    assert got.dtype == np.int64
    assert np.array_equal(got, _searchsorted_and_clip(model.bin_values_, X))


def test_one_row_predict_equals_its_batch_row_bit_for_bit():
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.normal(size=300), rng.integers(0, 2, 300),
                         rng.uniform(-3, 3, 300)])
    y = ((X[:, 0] > 0) + (X[:, 2] > 1)).astype(np.int64)
    model = GradientBoostedTrees(n_rounds=30, max_depth=3, seed=1).fit(
        X, y, 3)
    probe = np.vstack([X[:40], [[np.nan, 0.0, 1.0], [np.inf, -np.inf, 9.0],
                                [-1e300, 5.0, np.nan]]])
    batch = model.predict_proba(probe)
    for i, row in enumerate(probe):
        assert np.array_equal(model.predict_proba(row[None, :])[0], batch[i])
