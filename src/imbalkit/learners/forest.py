"""Bootstrap-aggregated forest of entropy decision trees."""

from __future__ import annotations

import numpy as np

from .base import ModelSpec, TrainedModel, child_rng
from .tree import TreeNode, build_tree, flatten_trees, leaf_values

__all__ = ["RandomForestModel"]


class RandomForestModel(TrainedModel):
    """Probability = arithmetic mean of member-tree leaf probabilities."""

    algorithm = "random-forest"
    state = ("trees",)

    def __init__(self, trees: list[dict], feature_names):
        super().__init__(feature_names)
        self.trees = [TreeNode(t) for t in trees]
        self._flat = flatten_trees(trees)

    @classmethod
    def fit(cls, X, y, spec: ModelSpec, feature_names) -> "RandomForestModel":
        h = spec.hyperparameters
        d = X.shape[1]
        mf = h["max_features"]
        if mf == "sqrt":
            max_features = max(1, int(np.sqrt(d)))
        elif mf == "all":
            max_features = d
        else:
            max_features = int(mf)
        n = X.shape[0]
        trees = []
        for t in range(h["n_estimators"]):
            rng = child_rng(spec.seed, 1, t)
            sample = rng.integers(0, n, size=n)  # bootstrap with replacement
            trees.append(build_tree(X[sample], y[sample], h["max_depth"], 2,
                                    max_features=max_features, rng=rng))
        return cls(trees, feature_names)

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        acc = np.zeros(values.shape[0])
        for leaf in leaf_values(self._flat, values):
            acc += leaf
        return acc / len(self.trees)
