"""The eight base learners and their shared contract. Each exported name is
imported from its module on first use (PEP 562), so importing this package,
or learners.base alone, loads no learner module."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "base": ("ALGORITHMS", "HYPERPARAMETERS", "LearnerError", "ModelSpec", "TrainedModel",
             "child_rng", "deserialize_model", "fit_model", "load_model", "predict_proba",
             "save_model", "serialize_model"),
    "gbt": ("GbtModel", "ordered_target_statistics"),
    "linear": ("LogisticModel",),
    "search": ("tune_random_search",),
    "tree": ("DecisionTreeModel", "TreeNode", "entropy_impurity"),
})
