"""Estimator contracts: the dummy law, gradient checks, serialization."""

import hashlib
import json

import numpy as np
import pytest

from valencelab.errors import ContractViolationError, UnsupportedModelError
from valencelab.evalstat import confusion, f1_weighted
from valencelab.learn import (
    feature_importance,
    model_to_dict,
    predict_proba,
    train,
)
from valencelab.learn import linear
from valencelab.learn.linear import SoftmaxRegression, logreg_loss_and_grad
from valencelab.learn.mlp import mlp_loss_and_grad, mlp_pack, mlp_unpack


def relative_grad_error(loss_fn, w):
    """Central finite differences against the analytic gradient."""
    _, grad = loss_fn(w)
    eps = 1e-6
    fd = np.zeros_like(w)
    for i in range(len(w)):
        wp = w.copy()
        wm = w.copy()
        wp[i] += eps
        wm[i] -= eps
        fd[i] = (loss_fn(wp)[0] - loss_fn(wm)[0]) / (2 * eps)
    denom = max(np.linalg.norm(fd) + np.linalg.norm(grad), 1e-8)
    return np.linalg.norm(fd - grad) / denom


def class_frequency_data(rng, probs, n):
    y = rng.choice(len(probs), size=n, p=probs)
    X = rng.normal(size=(n, 3))
    return X, y


# -- dummy --------------------------------------------------------------------


def test_dummy_balanced_f1_follows_square_law():
    rng = np.random.default_rng(0)
    X, y = class_frequency_data(rng, [1 / 3, 1 / 3, 1 / 3], 6000)
    model = train("dummy", X, y, seed=5)
    Xq = rng.normal(size=(100_000, 3))
    yq = rng.choice(3, size=100_000)
    pred = predict_proba(model, Xq).argmax(axis=1)
    f1 = f1_weighted(confusion(yq, pred, 3))
    assert abs(f1 - 1 / 3) < 0.02


def test_dummy_skewed_f1_follows_square_law():
    # With matching query marginals the expected weighted F1 is sum(p^2).
    probs = [0.5, 0.3, 0.2]
    rng = np.random.default_rng(1)
    X, y = class_frequency_data(rng, probs, 8000)
    model = train("dummy", X, y, seed=9)
    Xq = rng.normal(size=(100_000, 3))
    yq = rng.choice(3, size=100_000, p=probs)
    pred = predict_proba(model, Xq).argmax(axis=1)
    f1 = f1_weighted(confusion(yq, pred, 3))
    assert abs(f1 - 0.38) < 0.02


def test_dummy_predictions_repeat_for_same_query():
    rng = np.random.default_rng(2)
    X, y = class_frequency_data(rng, [0.4, 0.3, 0.3], 500)
    model = train("dummy", X, y, seed=3)
    Xq = rng.normal(size=(50, 3))
    first = predict_proba(model, Xq)
    second = predict_proba(model, Xq)
    assert np.array_equal(first, second)


# -- logreg -------------------------------------------------------------------


def test_logreg_separable_training_accuracy_is_one():
    rng = np.random.default_rng(3)
    centers = np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, -4.0]])
    X = np.vstack([rng.normal(c, 0.3, size=(30, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 30)
    model = train("logreg", X, y, hyperparams={"l2": 1e-6})
    acc = (predict_proba(model, X).argmax(axis=1) == y).mean()
    assert acc == 1.0


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(5, 15))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        l2 = float(rng.uniform(0, 0.5))
        w = rng.normal(scale=0.5, size=(d + 1) * k)
        err = relative_grad_error(
            lambda wv: logreg_loss_and_grad(wv, X, y, k, l2), w)
        assert err <= 1e-4, f"trial {trial}: relative error {err}"


def _logreg_golden_fits():
    """A default fit, one whose steps backtrack (lr 40), and one stopped by
    its iteration cap on nearly separable data."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(90, 4))
    y = np.argmax(X[:, :3] + 0.8 * rng.normal(size=(90, 3)), axis=1)
    Xs = np.round(rng.normal(size=(40, 2)), 2)
    ys = (Xs[:, 0] > 0).astype(np.int64) + (Xs[:, 1] > 1).astype(np.int64)
    return [SoftmaxRegression().fit(X, y, 3),
            SoftmaxRegression(l2=0.05, lr=40.0).fit(X, y, 3),
            SoftmaxRegression(l2=1e-6, n_iter=120).fit(Xs, ys, 3)]


def test_logreg_weights_match_golden_digest():
    # recorded with the fit that recomputed the loss and gradient at every
    # accepted point; reusing the line search's values changes no bit
    h = hashlib.sha256()
    for model in _logreg_golden_fits():
        h.update(model.W_.tobytes())
    assert h.hexdigest() == \
        "3f5874966d81bbd542cb77aa233bf5a0f11ab2a2c751b96a6b708bdb1d2d2f4b"


def test_logreg_fit_evaluates_each_point_once(monkeypatch):
    calls = []

    def counted(w_flat, X, y, n_classes, l2, Xb=None):
        calls.append((w_flat.tobytes(), Xb))
        return logreg_loss_and_grad(w_flat, X, y, n_classes, l2, Xb)

    monkeypatch.setattr(linear, "logreg_loss_and_grad", counted)
    rng = np.random.default_rng(12)
    X = rng.normal(size=(50, 3))
    y = np.argmax(X + rng.normal(size=(50, 3)), axis=1)
    for lr in (0.5, 40.0):
        calls.clear()
        SoftmaxRegression(lr=lr, n_iter=50).fit(X, y, 3)
        points = [w for w, _ in calls]
        # one call per point tried: the start, then each line-search trial
        assert len(points) == len(set(points)) > 1
        # the bias column is built once per fit and handed to every call
        first = calls[0][1]
        assert first is not None and all(xb is first for _, xb in calls)


# -- mlp ----------------------------------------------------------------------


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(4, 10))
        d = int(rng.integers(2, 4))
        h = int(rng.integers(2, 6))
        k = int(rng.integers(2, 4))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        l2 = float(rng.uniform(0, 0.1))
        w = rng.normal(scale=0.5, size=d * h + h + h * k + k)
        err = relative_grad_error(
            lambda wv: mlp_loss_and_grad(wv, X, y, d, h, k, l2), w)
        assert err <= 1e-4, f"trial {trial}: relative error {err}"


def test_mlp_pack_unpack_roundtrip():
    rng = np.random.default_rng(6)
    W1 = rng.normal(size=(3, 4))
    b1 = rng.normal(size=4)
    W2 = rng.normal(size=(4, 2))
    b2 = rng.normal(size=2)
    W1b, b1b, W2b, b2b = mlp_unpack(mlp_pack(W1, b1, W2, b2), 3, 4, 2)
    assert np.array_equal(W1, W1b)
    assert np.array_equal(b1, b1b)
    assert np.array_equal(W2, W2b)
    assert np.array_equal(b2, b2b)


def test_mlp_learns_nonlinear_rule():
    rng = np.random.default_rng(7)
    X = rng.integers(0, 2, size=(200, 2)).astype(np.float64)
    y = (X[:, 0].astype(int) ^ X[:, 1].astype(int))
    model = train("mlp", X, y, n_classes=2,
                  hyperparams={"hidden": 16, "learning_rate": 0.05,
                               "epochs": 80}, seed=1)
    acc = (predict_proba(model, X).argmax(axis=1) == y).mean()
    assert acc >= 0.95


# -- shared contracts ----------------------------------------------------------


@pytest.mark.parametrize("kind", ["dummy", "logreg", "gbt", "mlp"])
def test_probability_rows_sum_to_one(kind):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    hp = {"rounds": 10} if kind == "gbt" else {"epochs": 10} if kind == "mlp" else {}
    model = train(kind, X, y, hyperparams=hp, seed=2)
    probs = predict_proba(model, rng.normal(size=(25, 4)))
    assert probs.shape == (25, 3)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(probs >= 0)


@pytest.mark.parametrize("kind", ["dummy", "logreg", "gbt", "mlp"])
def test_single_class_dataset_rejected(kind):
    X = np.zeros((10, 2))
    y = np.zeros(10, dtype=np.int64)
    with pytest.raises(ContractViolationError):
        train(kind, X, y)


PAYLOAD_KEYS = {
    "dummy": {"seed", "class_probs"},
    "logreg": {"l2", "weights"},
    "gbt": {"trees", "bin_values", "gain_sums"},
    "mlp": {"n_hidden", "W1", "b1", "W2", "b2"},
}


def test_unknown_kind_or_hyperparameter_is_rejected():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(20, 2))
    y = rng.integers(0, 2, size=20)
    with pytest.raises(UnsupportedModelError):
        train("forest", X, y)
    with pytest.raises(ContractViolationError):
        train("gbt", X, y, hyperparams={"trees": 5})


@pytest.mark.parametrize("kind", ["dummy", "logreg", "gbt", "mlp"])
def test_serialization_writes_the_models_json_format(kind):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(80, 5))
    y = ((X[:, 0] > 0).astype(int) + (X[:, 1] > 0).astype(int))
    hp = {"rounds": 15} if kind == "gbt" else {"epochs": 15} if kind == "mlp" else {}
    model = train(kind, X, y, hyperparams=hp, seed=4,
                  feature_names=[f"c{i}" for i in range(5)])
    # scored as the tuner leaves a model: train's NaN score equals nothing
    model.cv_score, model.cv_splits = 0.625, 3
    model.cv_confusion = np.arange(9, dtype=np.int64).reshape(3, 3)
    doc = model_to_dict(model)
    # the models.json format: a change here changes the written artifact
    assert doc["format_version"] == 1
    assert set(doc["payload"]) == PAYLOAD_KEYS[kind]
    assert json.loads(json.dumps(doc)) == doc


def test_serialization_is_json_compatible():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(50, 3))
    y = rng.integers(0, 3, size=50)
    model = train("gbt", X, y, hyperparams={"rounds": 8}, seed=0)
    model.cv_score, model.cv_splits = 0.5, 3
    model.cv_confusion = np.eye(3, dtype=np.int64)
    text = json.dumps(model_to_dict(model), allow_nan=False)
    assert json.loads(text) == model_to_dict(model)


# -- feature importance ---------------------------------------------------------


def test_importance_requires_gbt():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 2))
    y = rng.integers(0, 2, size=30)
    model = train("logreg", X, y)
    with pytest.raises(UnsupportedModelError):
        feature_importance(model)


def test_importance_shares_sum_to_one():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(100, 4))
    y = (X[:, 2] > 0).astype(int)
    model = train("gbt", X, y, n_classes=2, hyperparams={"rounds": 20},
                  feature_names=["a", "b", "c", "d"])
    shares = feature_importance(model)
    assert abs(sum(shares.values()) - 1.0) <= 1e-9


def test_importance_finds_the_predictive_feature():
    rng = np.random.default_rng(13)
    X = np.column_stack([
        rng.integers(0, 3, size=200).astype(np.float64),
        rng.normal(size=200),
        rng.normal(size=200),
    ])
    y = X[:, 0].astype(np.int64)
    model = train("gbt", X, y, hyperparams={"rounds": 20},
                  feature_names=["cluster", "junk1", "junk2"])
    shares = feature_importance(model)
    assert max(shares, key=shares.get) == "cluster"
    assert shares["cluster"] > 0.8


def test_importance_empty_for_zero_round_model():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(30, 2))
    y = rng.integers(0, 2, size=30)
    model = train("gbt", X, y, n_classes=2, hyperparams={"rounds": 0})
    assert feature_importance(model) == {}
