"""Gradient-boosted trees on logistic loss with second-order leaf values.

One implementation covers the boosted-tree family: L2 leaf regularization,
optional histogram-binned split candidates, and optional ordered target
statistics for integer-coded categorical columns.

Splits come from a pre-sorted exact greedy search (Chen & Guestrin, KDD 2016):
each column is sorted once per fit, and every node hands its children their
rows in each column's sorted order, so no node sorts. A column's split
candidates are the midpoints between its consecutive distinct training
values; `bins > 0` subsamples them to at most `bins` evenly spaced ones, and
the same search runs over that subset. Fitted trees are kept as nested dicts,
their serialized form, and as parallel node arrays over all trees
(`tree.flatten_trees`), which predict walks one level at a time for every
row and tree at once.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .base import LearnerError, ModelSpec, TrainedModel, child_rng
from .linear import sigmoid
from .tree import flatten_trees, leaf_values

__all__ = ["GbtModel", "SplitRecord", "ordered_target_statistics"]


def ordered_target_statistics(column, target, permutation, prior: float,
                              smoothing: float = 1.0) -> np.ndarray:
    """Leakage-resistant categorical encoding from a random permutation.

    For the row at permutation position t, the encoding is
    (sum of targets of strictly earlier rows with the same category +
    smoothing * prior) / (count of those rows + smoothing).
    """
    col = np.asarray(column)
    y = np.asarray(target, dtype=float)
    perm = np.asarray(permutation)
    if perm.shape != col.shape or sorted(perm.tolist()) != list(range(col.size)):
        raise LearnerError("permutation must be a bijection over the rows")
    if smoothing <= 0:
        raise LearnerError("smoothing must be positive")
    out = np.empty(col.size, dtype=float)
    sums: dict = {}
    counts: dict = {}
    for t in range(col.size):
        r = perm[t]
        c = col[r]
        s = sums.get(c, 0.0)
        k = counts.get(c, 0)
        out[r] = (s + smoothing * prior) / (k + smoothing)
        sums[c] = s + y[r]
        counts[c] = k + 1
    return out


class SplitRecord(NamedTuple):
    tree: int
    feature: int
    gain: float


class _Grower:
    """Grows the regression trees of one fit from columns sorted once.

    Split candidates of a column are the midpoints of its consecutive distinct
    training values; `bins > 0` keeps an evenly spaced subset of them. A row's
    rank in a column is the index of the first candidate at or above its
    value, so a row goes left of candidate c exactly when its rank is <= c.
    """

    def __init__(self, X, bins, lam, max_depth, min_samples_split):
        n, d = X.shape
        self.lam = lam
        self.max_depth = max_depth
        self.min_split = max(2, min_samples_split)
        self.order = np.empty((d, n), dtype=np.int32)  # rows in stable column order
        self.rank = np.empty((d, n), dtype=np.int32)
        self.mids = []
        self.first_kept = []  # per column: rank -> first kept candidate at or above it
        for j in range(d):
            col = X[:, j]
            uniq = np.unique(col)
            mids = 0.5 * (uniq[:-1] + uniq[1:])
            keep = np.arange(mids.size)
            if bins and mids.size > bins:
                keep = np.unique(np.linspace(0, mids.size - 1, bins).round().astype(int))
            self.order[j] = np.argsort(col, kind="stable")
            self.rank[j] = np.searchsorted(mids, col)
            self.mids.append(mids)
            self.first_kept.append(np.append(keep, mids.size)[
                np.searchsorted(keep, np.arange(mids.size + 1))])
        self.goes_left = np.empty(n, dtype=bool)

    def grow(self, g, h, tree_idx, records):
        """One tree fitted to gradients g and hessians h. Returns the tree as
        nested dicts and each training row's leaf value."""
        self.g, self.h = g, h
        self.tree_idx, self.records = tree_idx, records
        self.leaf = np.empty(g.size)
        rows = np.arange(g.size, dtype=np.int32)
        return self._grow(rows, self.order, 0), self.leaf

    def _grow(self, rows, order, depth):
        """`rows` ascending; `order[j]` the same rows in column j's sorted order,
        a subsequence of the whole column's stable sort, so its prefix sums of
        g and h equal those of sorting this node alone."""
        G, H = self.g.take(rows).sum(), self.h.take(rows).sum()
        split = None
        if depth < self.max_depth and rows.size >= self.min_split:
            split = self._best_split(order, G, H)
        if split is None:
            value = float(-G / (H + self.lam))
            self.leaf[rows] = value
            return {"value": value}
        j, c, gain = split
        self.records.append(SplitRecord(tree=self.tree_idx, feature=j, gain=gain))
        # the buffer is shared with the children's splits: read it before them
        mask = self.rank[j].take(rows) <= c
        self.goes_left[rows] = mask
        left = self.goes_left[order]
        d = order.shape[0]
        return {"feature": j, "threshold": float(self.mids[j][c]),
                "left": self._grow(rows[mask], order[left].reshape(d, -1), depth + 1),
                "right": self._grow(rows[~mask], order[~left].reshape(d, -1), depth + 1)}

    def _best_split(self, order, G, H):
        """(feature, candidate, gain) of the best split, or None.

        Only the positions where a column's sorted ranks pass a kept candidate
        are scored, each at the lowest such candidate: the one a scan over
        every candidate in order would pick, since all candidates between two
        adjacent rows give the same gain.
        """
        lam = self.lam
        parent_score = G * G / (H + lam)
        best_gain = 0.0
        best = None
        g, h = self.g, self.h
        for j in range(order.shape[0]):
            o = order[j]
            rank = self.rank[j].take(o)
            end = (rank[:-1] != rank[1:]).nonzero()[0]
            cand = self.first_kept[j].take(rank.take(end))
            ok = cand < rank.take(end + 1)
            end = end[ok]
            if not end.size:
                continue
            GL = g.take(o).cumsum().take(end)
            HL = h.take(o).cumsum().take(end)
            GR = G - GL
            HR = H - HL
            gains = 0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - parent_score)
            k = gains.argmax()
            gain = float(gains[k])
            if gain > best_gain + 1e-15:
                best_gain = gain
                best = (j, int(cand[ok][k]))
        if best is None or best_gain <= 1e-12:
            return None
        return (*best, best_gain)


class GbtModel(TrainedModel):
    algorithm = "gbt"
    state = ("trees", "base_log_odds", "learning_rate", "l2_leaf_reg", "split_records",
             "n_train", "cat_encoders")

    def __init__(self, trees, base_log_odds, learning_rate, l2_leaf_reg,
                 split_records, n_train, cat_encoders, feature_names):
        super().__init__(feature_names)
        self.trees = trees  # nested dicts, as params_dict writes them
        self._flat = flatten_trees(trees)
        self.base_log_odds = base_log_odds
        self.learning_rate = learning_rate
        self.l2_leaf_reg = l2_leaf_reg
        self.split_records = [SplitRecord(*r) for r in split_records]
        self.n_train = n_train
        # feature index -> {"prior": float, "stats": {code: stat}}
        self.cat_encoders = {
            int(j): {"prior": e["prior"], "stats": {float(k): v for k, v in e["stats"].items()}}
            for j, e in cat_encoders.items()}

    @classmethod
    def fit(cls, X, y, spec: ModelSpec, feature_names) -> "GbtModel":
        h = spec.hyperparameters
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n = y.size
        lam = float(h["l2_leaf_reg"])

        cat_encoders = {}
        if h["categorical_handling"] == "ordered-target-stats":
            X = X.copy()
            prior = float(y.mean())
            a = float(h["target_stat_smoothing"])
            for j in h["categorical_features"]:
                if j >= X.shape[1]:
                    raise LearnerError(f"categorical feature index {j} is outside the "
                                       f"{X.shape[1]} columns")
                rng = child_rng(spec.seed, 2, int(j))
                perm = rng.permutation(n)
                stats = {}
                col = X[:, j]
                for code in np.unique(col):
                    m = col == code
                    stats[float(code)] = (y[m].sum() + a * prior) / (m.sum() + a)
                X[:, j] = ordered_target_statistics(col, y, perm, prior, a)
                cat_encoders[int(j)] = {"prior": prior, "stats": stats}

        prevalence = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
        base = float(np.log(prevalence / (1.0 - prevalence)))
        grower = _Grower(X, int(h["bins"]), lam, h["max_depth"], h["min_samples_split"])

        raw = np.full(n, base)
        trees = []
        records: list[SplitRecord] = []
        lr = float(h["learning_rate"])
        for t in range(h["n_estimators"]):
            p = sigmoid(raw)
            g = p - y
            hess = p * (1.0 - p)
            tree, leaf = grower.grow(g, hess, t, records)
            trees.append(tree)
            raw = raw + lr * leaf
        return cls(trees, base, lr, lam, records, n, cat_encoders, feature_names)

    def _transform(self, values: np.ndarray) -> np.ndarray:
        if not self.cat_encoders:
            return values
        values = np.asarray(values, dtype=float).copy()
        for j, enc in self.cat_encoders.items():
            col = values[:, j]
            out = np.full(col.size, enc["prior"])
            for code, stat in enc["stats"].items():
                out[col == code] = stat
            values[:, j] = out
        return values

    def raw_score(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(self._transform(values), dtype=float)
        acc = np.full(values.shape[0], self.base_log_odds)
        for leaf in leaf_values(self._flat, values):
            acc += self.learning_rate * leaf
        return acc

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw_score(values))
