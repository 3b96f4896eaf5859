"""Learning core: clustering, cross-validation, four estimators, tuning."""

from .automl import (
    MODEL_KINDS,
    AutomlConfig,
    TrainedModel,
    automl_entity,
    derive_seed,
    feature_importance,
    model_to_dict,
    predict_proba,
    train,
)
from .bayesopt import Dim, SearchSpace, bayes_optimize
from .cluster import (
    ClusterModel,
    autodiscover_cluster_params,
    density_cluster,
    density_validity_index,
    fit_cluster_model,
)
from .cv import choose_cv_splits, stratified_folds

__all__ = [
    "MODEL_KINDS",
    "AutomlConfig",
    "TrainedModel",
    "automl_entity",
    "derive_seed",
    "feature_importance",
    "model_to_dict",
    "predict_proba",
    "train",
    "Dim",
    "SearchSpace",
    "bayes_optimize",
    "ClusterModel",
    "autodiscover_cluster_params",
    "density_cluster",
    "density_validity_index",
    "fit_cluster_model",
    "choose_cv_splits",
    "stratified_folds",
]
