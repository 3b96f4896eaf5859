from collections import Counter

import numpy as np
import pytest

from valencelab.learn import AutomlConfig, automl_entity
from valencelab.learn.baseline import StratifiedBaseline
from valencelab.learn.bayesopt import DESIGN_SIZE
from valencelab.learn.boost import GradientBoostedTrees
from valencelab.learn.linear import SoftmaxRegression
from valencelab.learn.mlp import MLPClassifier


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
    config = AutomlConfig(budget=5)
    models = automl_entity(X, y, config=config, seed=0)
    assert models["gbt"].cv_score > models["dummy"].cv_score + 0.15


def test_same_seed_same_incumbents():
    X, y = learnable_entity(1)
    config = AutomlConfig(budget=6, kinds=("logreg", "gbt"))
    a = automl_entity(X, y, config=config, seed=7)
    b = automl_entity(X, y, config=config, seed=7)
    for kind in ("logreg", "gbt"):
        assert a[kind].hyperparams == b[kind].hyperparams
        assert a[kind].cv_score == b[kind].cv_score


def test_durations_recorded_positive():
    X, y = learnable_entity(2)
    config = AutomlConfig(budget=5)
    models = automl_entity(X, y, config=config, seed=1)
    for kind, model in models.items():
        assert model.duration_s > 0, kind
        assert model.cv_splits >= 2


def _settings(model) -> tuple:
    """A model's constructor settings; fitted attributes end in "_"."""
    return tuple(sorted((name, value) for name, value in vars(model).items()
                        if not name.endswith("_")))


@pytest.mark.parametrize("kind, estimator", [
    ("dummy", StratifiedBaseline), ("logreg", SoftmaxRegression),
    ("gbt", GradientBoostedTrees), ("mlp", MLPClassifier)])
def test_each_hyperparameter_set_is_fit_once_per_fold(monkeypatch, kind,
                                                      estimator):
    fits = Counter()        # settings -> training folds fit with them
    handed = []             # folds per outermost fit_folds call
    inside = []
    fit, fit_folds = estimator.fit, estimator.fit_folds.__func__

    def counting(models, run, is_lockstep):
        if not inside:
            fits.update(_settings(m) for m in models)
            if is_lockstep:
                handed.append(len(models))
        inside.append(True)
        try:
            return run()
        finally:
            inside.pop()

    def counting_fit(self, *args):
        return counting([self], lambda: fit(self, *args), False)

    def counting_fit_folds(cls, models, *args):
        return counting(models, lambda: fit_folds(cls, models, *args), True)

    monkeypatch.setattr(estimator, "fit", counting_fit)
    monkeypatch.setattr(estimator, "fit_folds",
                        classmethod(counting_fit_folds))
    X, y = learnable_entity(3)
    config = AutomlConfig(budget=6, kinds=(kind,))
    model = automl_entity(X, y, config=config, seed=4)[kind]
    k = model.cv_splits
    # tuner evaluations plus the incumbent's score share CV passes; the
    # final refit on all rows is the one extra fit
    assert fits.pop(_settings(model.estimator)) == k + 1
    assert set(fits.values()) <= {k}
    # the tuner's design is one batch, whose sets hand all their folds to
    # one fit_folds call; each later set hands its k folds alone
    n_sets = len(fits) + 1
    design = 1 if kind == "dummy" else DESIGN_SIZE
    assert handed == [design * k] + [k] * (n_sets - design)


@pytest.mark.parametrize("budget", [5, 8])
def test_gbt_fits_the_design_in_one_call(monkeypatch, budget):
    calls = []
    fit_folds = GradientBoostedTrees.fit_folds.__func__

    def counting_fit_folds(cls, models, *args):
        calls.append(len(models))
        return fit_folds(cls, models, *args)

    monkeypatch.setattr(GradientBoostedTrees, "fit_folds",
                        classmethod(counting_fit_folds))
    X, y = learnable_entity(3)
    config = AutomlConfig(budget=budget, kinds=("gbt",))
    k = automl_entity(X, y, config=config, seed=4)["gbt"].cv_splits
    # one call for the design, one per GP step, and the refit on all rows
    assert calls == [DESIGN_SIZE * k] + [k] * (budget - DESIGN_SIZE) + [1]
