"""Bootstrap-aggregated forest of entropy decision trees."""

from __future__ import annotations

import numpy as np

from .base import ModelSpec, child_rng
from .tree import TreeModel, TreeNode, build_tree

__all__ = ["RandomForestModel"]


class RandomForestModel(TreeModel):
    """Probability = arithmetic mean of member-tree leaf probabilities."""

    algorithm = "random-forest"
    state = ("trees",)

    def __init__(self, trees: list[dict], feature_names):
        if not trees:
            raise ValueError("a forest with no trees")
        super().__init__(trees, feature_names, divisor=len(trees))
        self.trees = [TreeNode(t) for t in trees]

    @classmethod
    def fit(cls, X, y, spec: ModelSpec, feature_names) -> "RandomForestModel":
        h = spec.hyperparameters
        d = X.shape[1]
        mf = h["max_features"]
        max_features = {"sqrt": max(1, int(np.sqrt(d))), "all": d}.get(mf, mf)
        n = X.shape[0]
        trees = []
        for t in range(h["n_estimators"]):
            rng = child_rng(spec.seed, 1, t)
            sample = rng.integers(0, n, size=n)  # bootstrap with replacement
            trees.append(build_tree(X[sample], y[sample], h["max_depth"], 2,
                                    max_features=max_features, rng=rng))
        return cls(trees, feature_names)._fitted()
