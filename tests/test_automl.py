import numpy as np
import pytest

from valencelab.learn import AutomlConfig, automl_entity
from valencelab.learn.baseline import StratifiedBaseline
from valencelab.learn.linear import SoftmaxRegression


def learnable_entity(seed=0, n=150):
    """Labels follow a modular interaction of two categorical features."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 3, size=n)
    b = rng.integers(0, 3, size=n)
    X = np.zeros((n, 6))
    X[np.arange(n), a] = 1.0
    X[np.arange(n), 3 + b] = 1.0
    y = (a + b) % 3
    flip = rng.uniform(size=n) < 0.05
    y[flip] = rng.integers(0, 3, size=int(flip.sum()))
    return X, y.astype(np.int64)


def test_gbt_beats_dummy_by_wide_margin():
    X, y = learnable_entity(0)
    config = AutomlConfig(budget=5, cv_max_splits=3)
    models = automl_entity(X, y, config=config, seed=0)
    assert models["gbt"].cv_score > models["dummy"].cv_score + 0.15


def test_same_seed_same_incumbents():
    X, y = learnable_entity(1)
    config = AutomlConfig(budget=6, cv_max_splits=3, kinds=("logreg", "gbt"))
    a = automl_entity(X, y, config=config, seed=7)
    b = automl_entity(X, y, config=config, seed=7)
    for kind in ("logreg", "gbt"):
        assert a[kind].hyperparams == b[kind].hyperparams
        assert a[kind].cv_score == b[kind].cv_score


def test_durations_recorded_positive():
    X, y = learnable_entity(2)
    config = AutomlConfig(budget=5, cv_max_splits=2)
    models = automl_entity(X, y, config=config, seed=1)
    for kind, model in models.items():
        assert model.duration_s > 0, kind
        assert model.cv_splits >= 2


@pytest.mark.parametrize("kind, estimator", [("dummy", StratifiedBaseline),
                                             ("logreg", SoftmaxRegression)])
def test_each_hyperparameter_set_is_fit_once_per_fold(monkeypatch, kind,
                                                      estimator):
    fits = []
    fit = estimator.fit

    def counting_fit(self, *args):
        fits.append(self)
        return fit(self, *args)

    monkeypatch.setattr(estimator, "fit", counting_fit)
    X, y = learnable_entity(3)
    config = AutomlConfig(budget=6, cv_max_splits=3, kinds=(kind,))
    model = automl_entity(X, y, config=config, seed=4)[kind]
    k = model.cv_splits
    # tuner evaluations plus the incumbent's score share CV passes; the
    # final refit on all rows is the one extra fit
    if kind == "dummy":
        assert len(fits) == k + 1
    else:
        assert len(fits) <= config.budget * k + 1
