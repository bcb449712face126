"""Entropy-criterion decision tree grown by exhaustive threshold search, and
TreeModel, which compiles a model's tree documents once into flat node arrays
and scores every tree model (decision tree, random forest, gradient-boosted
trees) through one level-wise walk."""

from __future__ import annotations

import numbers

import numpy as np

from .base import LearnerError, ModelSpec, Rule, TrainedModel, TreeDepthError

__all__ = ["entropy_impurity", "TreeNode", "TreeModel", "DecisionTreeModel", "build_tree"]


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


# the deepest tree a model may hold. A fit that grows a deeper one fails with a
# LearnerError naming max_depth (fit_model), and a document of one is
# malformed, so every fitted model round-trips. json encodes and decodes a
# document with one call per level: 800 levels leave room for the caller's
# own frames below Python's default recursion limit of 1000
MAX_TREE_DEPTH = 800
_ROWS = Rule(kind=numbers.Integral, low=1, high=np.inf)
_IMPURITY = Rule(kind=numbers.Real, high=np.inf)


def _add_nodes(tree, nodes, column: Rule, counted: bool) -> int:
    """Append `tree`'s nodes to `nodes` in preorder, walked with a stack, not
    recursion; returns its deepest leaf's depth. A tree deeper than
    MAX_TREE_DEPTH raises TreeDepthError."""
    deepest = 0
    stack = [(tree, 0, None)]  # (node, its depth, the split it is the right child of)
    while stack:
        tree, depth, parent = stack.pop()
        if depth > MAX_TREE_DEPTH:
            raise TreeDepthError(f"a tree deeper than the {MAX_TREE_DEPTH} levels "
                                 "a model document holds")
        i = len(nodes)
        if parent is not None:
            nodes[parent][3] = i
        n, impurity = (tree["n"], tree["impurity"]) if counted else (0, 0.0)
        if counted and not (_ROWS.accepts(n) and _IMPURITY.accepts(impurity)):
            raise ValueError(f"a tree node of n {n!r} and impurity {impurity!r}")
        if "feature" not in tree:
            nodes.append([0, 0.0, i, i, tree["value"], n, impurity])
            deepest = max(deepest, depth)
            continue
        if not column.accepts(tree["feature"]):
            raise ValueError(f"a split on feature {tree['feature']!r}, not {column}")
        left, right = tree["left"], tree["right"]
        nodes.append([tree["feature"], tree["threshold"], i + 1, None, 0.0, n, impurity])
        stack += [(right, depth + 1, i), (left, depth + 1, None)]
    return deepest


def flatten_trees(trees, width: int, counted: bool = False):
    """Flat node arrays (feature, threshold, children, value, n, impurity) of
    nested-dict trees, the index of each root, and the depth of the deepest
    leaf. children interleaves each node's right and left child, so node i
    steps to children[2*i + go_left]. A leaf points to itself, so walking that
    many levels from the roots ends on every row's leaf in every tree. A split
    on anything but an integer in range(width) raises ValueError, and a tree
    deeper than MAX_TREE_DEPTH TreeDepthError. With counted (entropy trees),
    every node's row count n must be an integer >= 1 and its impurity a
    number >= 0, or ValueError; without, both arrays are 0."""
    column = Rule(kind=numbers.Integral, high=width - 1)
    nodes: list = []
    roots = []
    depth = 0
    for tree in trees:
        roots.append(len(nodes))
        depth = max(depth, _add_nodes(tree, nodes, column, counted))
    table = np.array(nodes, dtype=float).reshape(-1, 7)
    children = table[:, [3, 2]].astype(np.intp).ravel()
    return ((table[:, 0].astype(np.intp), table[:, 1], children, table[:, 4], table[:, 5],
             table[:, 6]), np.array(roots, dtype=np.intp), depth)


def leaf_values(flat, values: np.ndarray) -> np.ndarray:
    """(n_trees, n_rows) leaf values of flatten_trees' output `flat`, walked
    one level at a time for every row and tree at once; a row goes left when
    its value is <= the node's threshold."""
    (feature, threshold, children, value, _, _), roots, depth = flat
    n, d = values.shape
    cells = values.ravel()  # row-major, copied if values is not
    base = np.arange(n) * d  # each row's offset in cells
    node = np.repeat(roots[:, None], n, axis=1)
    for _ in range(depth):
        go_left = cells.take(base + feature.take(node)) <= threshold.take(node)
        node = children.take(2 * node + go_left)
    return value.take(node)


class TreeModel(TrainedModel):
    """A model scored through its tree documents, compiled once by
    flatten_trees: a row scores (start + scale * v_1 + ... + scale * v_T) / divisor,
    v_t its leaf value in tree t, added in tree order from start."""

    def __init__(self, trees, feature_names, start: float = 0.0, scale: float = 1.0,
                 divisor: int = 1, counted: bool = True):
        super().__init__(feature_names)
        self._flat = flatten_trees(trees, len(self.feature_names), counted)
        self._start, self._scale, self._divisor = start, scale, divisor

    def _fitted(self, **info) -> "TreeModel":
        """self, its fit_info the compiled node count and deepest leaf, plus info."""
        (feature, *_), _, depth = self._flat
        return super()._fitted(nodes=feature.size, depth=depth, **info)

    def _transform(self, values: np.ndarray) -> np.ndarray:
        return values

    def raw_score(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(self._transform(values), dtype=float)
        acc = np.full(values.shape[0], self._start)
        for leaf in leaf_values(self._flat, values):
            acc += self._scale * leaf
        return acc / self._divisor

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        return self.raw_score(values)


class DecisionTreeModel(TreeModel):
    algorithm = "decision-tree"
    state = ("root",)

    def __init__(self, root: dict, feature_names):
        super().__init__([root], feature_names)
        self.root = TreeNode(root)

    @classmethod
    def fit(cls, X, y, spec: ModelSpec, feature_names) -> "DecisionTreeModel":
        h = spec.hyperparameters
        root = build_tree(X, y, h["max_depth"], max(2, h["min_samples_split"]))
        return cls(root, feature_names)._fitted()
