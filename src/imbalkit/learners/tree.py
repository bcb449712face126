"""Entropy-criterion decision tree grown by exhaustive threshold search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import LearnerError, ModelSpec, TrainedModel

__all__ = ["entropy_impurity", "TreeNode", "DecisionTreeModel", "build_tree"]


def entropy_impurity(class_counts) -> float:
    """Shannon entropy in bits of a two-class count pair, with 0 * log 0 = 0."""
    c0, c1 = class_counts
    total = c0 + c1
    if total == 0:
        raise LearnerError("entropy of an empty node is undefined")
    h = 0.0
    for c in (c0, c1):
        if c > 0:
            p = c / total
            h -= p * np.log2(p)
    return float(h)


def _entropy_vec(pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Entropy in bits for vectors of positive counts / totals (0 where n == 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p1 = np.where(n > 0, pos / np.maximum(n, 1), 0.0)
        p0 = 1.0 - p1
        h = -np.where(p1 > 0, p1 * np.log2(np.maximum(p1, 1e-300)), 0.0)
        h -= np.where(p0 > 0, p0 * np.log2(np.maximum(p0, 1e-300)), 0.0)
    return np.where(n > 0, h, 0.0)


@dataclass
class TreeNode:
    n_samples: int
    impurity: float
    value: float                      # class-1 fraction at this node
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def to_dict(self) -> dict:
        d = {"n": self.n_samples, "impurity": self.impurity, "value": self.value}
        if not self.is_leaf:
            d.update(feature=self.feature, threshold=self.threshold,
                     left=self.left.to_dict(), right=self.right.to_dict())
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TreeNode":
        node = cls(n_samples=d["n"], impurity=d["impurity"], value=d["value"])
        if "feature" in d:
            node.feature = d["feature"]
            node.threshold = d["threshold"]
            node.left = cls.from_dict(d["left"])
            node.right = cls.from_dict(d["right"])
        return node


def best_entropy_split(X: np.ndarray, y: np.ndarray) -> tuple[int, float, float] | None:
    """Highest information-gain split; ties break to the lowest feature index,
    then the lowest threshold. Returns (feature, threshold, gain) or None."""
    n = y.size
    pos_total = int(y.sum())
    parent = entropy_impurity((n - pos_total, pos_total))
    if parent == 0.0:
        return None
    best = None
    for j in range(X.shape[1]):
        x = X[:, j]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[order]
        boundaries = np.flatnonzero(xs[1:] != xs[:-1])
        if boundaries.size == 0:
            continue
        pos_prefix = np.cumsum(ys)
        n_left = boundaries + 1
        pos_left = pos_prefix[boundaries]
        n_right = n - n_left
        pos_right = pos_total - pos_left
        h_left = _entropy_vec(pos_left.astype(float), n_left.astype(float))
        h_right = _entropy_vec(pos_right.astype(float), n_right.astype(float))
        gains = parent - (n_left / n) * h_left - (n_right / n) * h_right
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if gain <= 1e-12:
            continue
        threshold = 0.5 * (xs[boundaries[k]] + xs[boundaries[k] + 1])
        if best is None or gain > best[2] + 1e-15:
            best = (j, float(threshold), gain)
    return best


def build_tree(X: np.ndarray, y: np.ndarray, max_depth: int, min_samples_split: int,
               depth: int = 0, max_features: int | None = None,
               rng: np.random.Generator | None = None) -> TreeNode:
    """Grow an entropy tree depth-first. Without rng every node searches all
    columns; with rng (a random-forest member) each node that may split first
    draws max_features columns, in left-before-right node order."""
    n = y.size
    pos = int(y.sum())
    node = TreeNode(n_samples=n, impurity=entropy_impurity((n - pos, pos)), value=pos / n)
    if depth >= max_depth or n < min_samples_split or node.impurity == 0.0:
        return node
    if rng is None:
        split = best_entropy_split(X, y)
    else:
        d = X.shape[1]
        feats = np.sort(rng.choice(d, size=min(max_features, d), replace=False))
        split = best_entropy_split(X[:, feats], y)
        if split is not None:
            split = (int(feats[split[0]]),) + split[1:]
    if split is None:
        return node
    j, thr, _ = split
    mask = X[:, j] <= thr
    node.feature = j
    node.threshold = thr
    node.left = build_tree(X[mask], y[mask], max_depth, min_samples_split, depth + 1,
                           max_features, rng)
    node.right = build_tree(X[~mask], y[~mask], max_depth, min_samples_split, depth + 1,
                            max_features, rng)
    return node


def tree_predict(root: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        node = root
        while not node.is_leaf:
            node = node.left if X[i, node.feature] <= node.threshold else node.right
        out[i] = node.value
    return out


class DecisionTreeModel(TrainedModel):
    algorithm = "decision-tree"

    def __init__(self, root: TreeNode, feature_names):
        super().__init__(feature_names)
        self.root = root

    @classmethod
    def fit(cls, X, y, spec: ModelSpec, feature_names) -> "DecisionTreeModel":
        h = spec.hyperparameters
        root = build_tree(X, y, h["max_depth"], max(2, h["min_samples_split"]))
        return cls(root, feature_names)

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        return tree_predict(self.root, values)

    def params_dict(self) -> dict:
        return {"root": self.root.to_dict()}

    @classmethod
    def from_params_dict(cls, d, feature_names):
        return cls(TreeNode.from_dict(d["root"]), feature_names)
