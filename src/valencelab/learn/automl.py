"""Per-entity model selection: tuned fits for four estimator kinds.

For each kind, hyperparameters are tuned by Bayesian optimization against a
mean cross-validated weighted F1, then the incumbent is refit on the full
entity dataset. Wall-clock duration is recorded per kind.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractViolationError, UnsupportedModelError
from ..evalstat import confusion, f1_weighted
from .baseline import StratifiedBaseline
from .bayesopt import Dim, SearchSpace, bayes_optimize
from .boost import GradientBoostedTrees
from .cv import choose_cv_splits, stratified_folds
from .linear import SoftmaxRegression
from .mlp import MLPClassifier


def _renamed(hyperparams: dict, **names) -> dict:
    """Hyperparameters keyed by constructor argument instead of tuned name."""
    return {names.get(k, k): v for k, v in hyperparams.items()}


@dataclass(frozen=True)
class ModelKind:
    """One model family: its tuning space, and a factory from tuned values
    to an unfitted estimator. Names left unset take the constructor default.
    """

    space: SearchSpace
    factory: Callable[[dict, int], object]  # (hyperparams, seed) -> estimator

    def make(self, hyperparams: dict, seed: int):
        unknown = sorted(set(hyperparams) - set(self.space.dims))
        if unknown:
            raise ContractViolationError(f"unknown hyperparameters {unknown}")
        return self.factory(hyperparams, seed)


KIND_TABLE = {
    "dummy": ModelKind(
        SearchSpace({}),
        lambda hp, seed: StratifiedBaseline(seed=seed)),
    "logreg": ModelKind(
        SearchSpace({
            "l2": Dim(1e-4, 1e2, "logfloat"),
        }),
        lambda hp, seed: SoftmaxRegression(**hp)),
    "gbt": ModelKind(
        SearchSpace({
            "rounds": Dim(10, 200, "int"),
            "depth": Dim(1, 6, "int"),
            "learning_rate": Dim(0.01, 0.5, "float"),
            "subsample": Dim(0.5, 1.0, "float"),
            "leaf_l2": Dim(0.0, 10.0, "float"),
        }),
        lambda hp, seed: GradientBoostedTrees(
            seed=seed, **_renamed(hp, rounds="n_rounds", depth="max_depth"))),
    "mlp": ModelKind(
        SearchSpace({
            "hidden": Dim(4, 64, "int"),
            "learning_rate": Dim(1e-4, 1e-1, "logfloat"),
            "epochs": Dim(10, 200, "int"),
        }),
        lambda hp, seed: MLPClassifier(
            seed=seed, **_renamed(hp, hidden="n_hidden", learning_rate="lr"))),
}

MODEL_KINDS = tuple(KIND_TABLE)


def _kind(kind: str) -> ModelKind:
    try:
        return KIND_TABLE[kind]
    except KeyError:
        raise UnsupportedModelError(f"unknown model kind {kind!r}") from None


# the most CV folds an entity is split into; fewer when a class is scarcer
CV_MAX_SPLITS = 3


@dataclass
class AutomlConfig:
    budget: int
    kinds: tuple = MODEL_KINDS


@dataclass
class TrainedModel:
    kind: str
    estimator: object
    hyperparams: dict
    cv_splits: int
    cv_score: float
    duration_s: float
    feature_names: list = field(default_factory=list)
    n_classes: int = 3
    cv_confusion: object = None


def derive_seed(seed: int, name: str) -> int:
    """A 32-bit seed for `name` (an entity id, a model kind) under `seed`."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def train(kind: str, X, y, n_classes: int = 3, hyperparams: dict | None = None,
          seed: int = 0, feature_names=None) -> TrainedModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise ContractViolationError("empty dataset")
    if np.unique(y).size < 2:
        raise ContractViolationError("single-class dataset")
    hp = dict(hyperparams or {})
    t0 = time.perf_counter()
    est = _kind(kind).make(hp, seed).fit(X, y, n_classes)
    duration = time.perf_counter() - t0
    return TrainedModel(
        kind=kind, estimator=est, hyperparams=hp, cv_splits=0,
        cv_score=float("nan"), duration_s=duration,
        feature_names=list(feature_names or []), n_classes=n_classes)


def predict_proba(model: TrainedModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    probs = model.estimator.predict_proba(x)
    return probs[0] if single else probs


def feature_importance(model: TrainedModel) -> dict:
    """Gain share per feature name; defined for boosted-tree models only."""
    if model.kind != "gbt":
        raise UnsupportedModelError(
            f"feature importance needs a gbt model, got {model.kind!r}")
    shares = model.estimator.importance_shares()
    if shares.sum() <= 0:
        return {}
    names = model.feature_names or [f"f{i}" for i in range(len(shares))]
    return {names[i]: float(shares[i]) for i in range(len(shares))}


def _cv_eval(make, X, y, n_classes, folds, seed, settings):
    """Mean per-fold weighted F1 plus the pooled out-of-fold confusion, for
    each hyperparameter set in settings.

    One `fit_folds` call fits every training fold of every set; each test
    fold is then predicted by its own model.
    """
    models = [make(hyperparams, seed) for hyperparams in settings
              for _ in folds]
    type(models[0]).fit_folds(
        models, [X[train] for _ in settings for train, _ in folds],
        [y[train] for _ in settings for train, _ in folds], n_classes)
    results = []
    for at in range(0, len(models), len(folds)):
        scores = []
        pooled = np.zeros((n_classes, n_classes), dtype=np.int64)
        for model, (_, test_idx) in zip(models[at:], folds):
            mat = confusion(y[test_idx], model.predict(X[test_idx]), n_classes)
            pooled += mat.counts
            scores.append(f1_weighted(mat))
        results.append((float(np.mean(scores)), pooled))
    return results


def _memo_cv_eval(make, X, y, n_classes, folds, seed):
    """`_cv_eval` once per distinct hyperparameter set. The pass is
    deterministic, so the tuner's objective and the incumbent's final score
    share it. evaluate takes a batch: the sets not scored yet go to one
    `_cv_eval` call."""
    scored = {}

    def evaluate(settings):
        keys = [tuple(sorted(hp.items())) for hp in settings]
        new = {key: hp for key, hp in zip(keys, settings) if key not in scored}
        if new:
            scored.update(zip(new, _cv_eval(make, X, y, n_classes, folds,
                                            seed, list(new.values()))))
        return [scored[key] for key in keys]
    return evaluate


def automl_entity(X, y, config: AutomlConfig, seed: int = 0,
                  n_classes: int = 3, feature_names=None) -> dict:
    """Tune, fit, and time one model per kind on a single entity's data."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_splits = choose_cv_splits(y, CV_MAX_SPLITS)
    folds = stratified_folds(y, n_splits, seed)
    out = {}
    for kind in config.kinds:
        t0 = time.perf_counter()
        spec = _kind(kind)
        evaluate = _memo_cv_eval(spec.make, X, y, n_classes, folds, seed)
        best_hp = {}
        if spec.space.n_dims:
            best_hp = bayes_optimize(
                spec.space,
                lambda batch: [score for score, _ in evaluate(batch)],
                config.budget, seed=derive_seed(seed, kind)).best_params
        [(cv_score, cv_conf)] = evaluate([best_hp])
        est = spec.make(best_hp, seed).fit(X, y, n_classes)
        duration = time.perf_counter() - t0
        out[kind] = TrainedModel(
            kind=kind, estimator=est, hyperparams=best_hp,
            cv_splits=n_splits, cv_score=cv_score,
            duration_s=duration, feature_names=list(feature_names or []),
            n_classes=n_classes, cv_confusion=cv_conf)
    return out


# -- serialization ------------------------------------------------------------


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format_version": 1,
        "kind": model.kind,
        "hyperparams": model.hyperparams,
        "cv_splits": model.cv_splits,
        "cv_score": model.cv_score,
        "duration_s": model.duration_s,
        "feature_names": list(model.feature_names),
        "n_classes": model.n_classes,
        "cv_confusion": (None if model.cv_confusion is None
                         else np.asarray(model.cv_confusion).tolist()),
        "payload": model.estimator.to_payload(),
    }


def model_from_dict(d: dict) -> TrainedModel:
    kind = d["kind"]
    hyperparams = dict(d["hyperparams"])
    n_classes = int(d["n_classes"])
    # the seed only steers fitting; a dummy's comes back with its payload
    est = _kind(kind).make(hyperparams, 0).load_payload(d["payload"],
                                                         n_classes)
    conf = d.get("cv_confusion")
    return TrainedModel(
        kind=kind, estimator=est, hyperparams=hyperparams,
        cv_splits=int(d["cv_splits"]), cv_score=float(d["cv_score"]),
        duration_s=float(d["duration_s"]),
        feature_names=list(d["feature_names"]), n_classes=n_classes,
        cv_confusion=None if conf is None else np.asarray(conf, dtype=np.int64))
