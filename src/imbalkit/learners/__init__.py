from .base import (
    ALGORITHMS,
    HYPERPARAMETERS,
    LearnerError,
    ModelSpec,
    TrainedModel,
    child_rng,
    deserialize_model,
    fit_model,
    load_model,
    predict_proba,
    save_model,
    serialize_model,
)
from .gbt import GbtModel, ordered_target_statistics
from .linear import LogisticModel
from .search import tune_random_search
from .tree import DecisionTreeModel, TreeNode, entropy_impurity

__all__ = [
    "ALGORITHMS",
    "HYPERPARAMETERS",
    "LearnerError",
    "ModelSpec",
    "TrainedModel",
    "child_rng",
    "deserialize_model",
    "fit_model",
    "load_model",
    "predict_proba",
    "save_model",
    "serialize_model",
    "GbtModel",
    "ordered_target_statistics",
    "LogisticModel",
    "tune_random_search",
    "DecisionTreeModel",
    "TreeNode",
    "entropy_impurity",
]
