"""Entropy-criterion decision tree grown by exhaustive threshold search, and
the flat, level-wise walk that every tree model (decision tree, random forest,
gradient-boosted trees) predicts through."""

from __future__ import annotations

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


class TreeNode:
    """Read-only view of a tree document: {"n", "impurity", "value"} (value is
    the class-1 fraction), plus "feature", "threshold", "left" and "right" at
    a split. A leaf's feature, threshold, left and right are None."""

    __slots__ = ("_doc",)

    def __init__(self, doc: dict):
        self._doc = doc

    n_samples = property(lambda self: self._doc["n"])
    impurity = property(lambda self: self._doc["impurity"])
    value = property(lambda self: self._doc["value"])
    feature = property(lambda self: self._doc.get("feature"))
    threshold = property(lambda self: self._doc.get("threshold"))
    left = property(lambda self: None if self.is_leaf else TreeNode(self._doc["left"]))
    right = property(lambda self: None if self.is_leaf else TreeNode(self._doc["right"]))
    is_leaf = property(lambda self: "feature" not in self._doc)

    def to_dict(self) -> dict:
        return self._doc


def best_entropy_split(X: np.ndarray, y: np.ndarray) -> tuple[int, float, float] | None:
    """Highest information-gain split; ties break to the lowest feature index,
    then the lowest threshold. Returns (feature, threshold, gain) or None.

    Every column is scored in one pass: one stable sort per column, one prefix
    sum of labels, and one entropy evaluation over every (position, column)
    pair, with positions between equal values masked out."""
    n = y.size
    pos_total = int(y.sum())
    parent = entropy_impurity((n - pos_total, pos_total))
    if parent == 0.0:
        return None
    order = X.argsort(axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    pos_left = y.take(order).cumsum(axis=0)[:-1]
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    pos_right = pos_total - pos_left
    h_left = _entropy_vec(pos_left.astype(float), n_left.astype(float))
    h_right = _entropy_vec(pos_right.astype(float), n_right.astype(float))
    gains = parent - (n_left / n) * h_left - (n_right / n) * h_right
    gains[xs[1:] == xs[:-1]] = -np.inf  # no boundary between equal values
    ks = gains.argmax(axis=0)
    best = None
    for j, k in enumerate(ks.tolist()):
        gain = float(gains[k, j])
        if gain <= 1e-12:
            continue
        if best is None or gain > best[2] + 1e-15:
            best = (j, float(0.5 * (xs[k, j] + xs[k + 1, j])), gain)
    return best


def build_tree(X: np.ndarray, y: np.ndarray, max_depth: int, min_samples_split: int,
               depth: int = 0, max_features: int | None = None,
               rng: np.random.Generator | None = None) -> dict:
    """Grow an entropy tree depth-first and return its document (see TreeNode).
    Without rng every node searches all columns; with rng (a random-forest
    member) each node that may split first draws max_features columns, in
    left-before-right node order."""
    n = y.size
    pos = int(y.sum())
    node = {"n": n, "impurity": entropy_impurity((n - pos, pos)), "value": pos / n}
    if depth >= max_depth or n < min_samples_split or node["impurity"] == 0.0:
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
    node.update(feature=j, threshold=thr,
                left=build_tree(X[mask], y[mask], max_depth, min_samples_split, depth + 1,
                                max_features, rng),
                right=build_tree(X[~mask], y[~mask], max_depth, min_samples_split, depth + 1,
                                 max_features, rng))
    return node


def _add_nodes(tree, nodes, depth) -> int:
    """Append `tree`'s nodes to `nodes` in preorder; returns its leaf depth."""
    i = len(nodes)
    if "feature" not in tree:
        nodes.append((0, 0.0, i, i, tree["value"]))
        return depth
    nodes.append(None)
    left_depth = _add_nodes(tree["left"], nodes, depth + 1)
    right = len(nodes)
    right_depth = _add_nodes(tree["right"], nodes, depth + 1)
    nodes[i] = (tree["feature"], tree["threshold"], i + 1, right, 0.0)
    return max(left_depth, right_depth)


def flatten_trees(trees):
    """Flat node arrays (feature, threshold, children, value) of nested-dict
    trees, the index of each root, and the depth of the deepest leaf. children
    interleaves each node's right and left child, so node i steps to
    children[2*i + go_left]. A leaf points to itself, so walking that many
    levels from the roots ends on every row's leaf in every tree."""
    nodes: list = []
    roots = []
    depth = 0
    for tree in trees:
        roots.append(len(nodes))
        depth = max(depth, _add_nodes(tree, nodes, 0))
    table = np.array(nodes, dtype=float).reshape(-1, 5)
    feature = table[:, 0].astype(np.intp)
    children = table[:, [3, 2]].astype(np.intp).ravel()
    return (feature, table[:, 1], children, table[:, 4]), np.array(roots, dtype=np.intp), depth


def leaf_values(flat, values: np.ndarray) -> np.ndarray:
    """(n_trees, n_rows) leaf values of flatten_trees' output `flat`, walked
    one level at a time for every row and tree at once; a row goes left when
    its value is <= the node's threshold."""
    (feature, threshold, children, value), roots, depth = flat
    n, d = values.shape
    cells = values.ravel()  # row-major, copied if values is not
    base = np.arange(n) * d  # each row's offset in cells
    node = np.repeat(roots[:, None], n, axis=1)
    for _ in range(depth):
        go_left = cells.take(base + feature.take(node)) <= threshold.take(node)
        node = children.take(2 * node + go_left)
    return value.take(node)


class DecisionTreeModel(TrainedModel):
    algorithm = "decision-tree"
    state = ("root",)

    def __init__(self, root: dict, feature_names):
        super().__init__(feature_names)
        self.root = TreeNode(root)
        self._flat = flatten_trees([root])

    @classmethod
    def fit(cls, X, y, spec: ModelSpec, feature_names) -> "DecisionTreeModel":
        h = spec.hyperparameters
        root = build_tree(X, y, h["max_depth"], max(2, h["min_samples_split"]))
        return cls(root, feature_names)

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        return leaf_values(self._flat, values)[0]
