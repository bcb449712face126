"""Gradient-boosted trees on logistic loss with second-order leaf values.

One implementation covers the boosted-tree family: L2 leaf regularization,
optional histogram-binned split candidates, and optional ordered target
statistics for integer-coded categorical columns.

Splits come from a pre-sorted exact greedy search (Chen & Guestrin, KDD 2016):
each column is sorted once per fit, its distinct values and each row's
candidate rank are read off that sort, and every node hands each child that
may still split its rows in each column's sorted order, so no node sorts. A
node scores its columns in blocks of about `_BLOCK_CELLS` (column, row)
cells, a few numpy calls per block. A column's split candidates are the
midpoints between its consecutive distinct training values; `bins > 0`
subsamples them to at most `bins` evenly spaced ones, and the same search
runs over that subset. Fitted trees are kept as nested dicts, their
serialized form, and are scored through `tree.TreeModel`'s node arrays,
walked one level at a time for every row and tree at once.
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

from .base import REAL, LearnerError, ModelSpec, Rule, child_rng
from .linear import sigmoid
from .tree import TreeModel

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
    if not np.isfinite(col).all():
        raise LearnerError("ordered target statistics need finite category codes")
    by_category = perm[col[perm].argsort(kind="stable")]  # each category in permutation order
    _, starts, counts = np.unique(col[by_category], return_index=True, return_counts=True)
    out = np.empty(col.size, dtype=float)
    for c in np.unique(counts):  # the categories of c rows each, one per row of a block
        rows = by_category[starts[counts == c, None] + np.arange(c)]
        sums = np.c_[np.zeros(rows.shape[0]), y[rows[:, :-1]]].cumsum(axis=1)  # along each row
        out[rows] = (sums + smoothing * prior) / (np.arange(c) + smoothing)
    return out


class SplitRecord(NamedTuple):
    tree: int
    feature: int
    gain: float


# A node's split search scores its columns in blocks of as many columns as fit
# in this many (column, row) cells, and its partition gathers this many cells
# at a time, so that each block's temporaries stay in cache and a fit's peak
# memory stays near the column-at-a-time search's (8,192 cells added 0.3 MB);
# every gain keeps its bits at any block size.
_BLOCK_CELLS = 4096


def _select(flat, keep, d):
    """flat.compress(keep).reshape(d, -1), _BLOCK_CELLS cells at a time, since
    compress first builds an intp index of every cell it keeps."""
    out = np.empty(np.count_nonzero(keep), dtype=flat.dtype)
    k = 0
    for s in range(0, flat.size, _BLOCK_CELLS):
        part = keep[s:s + _BLOCK_CELLS]
        n = np.count_nonzero(part)
        flat[s:s + _BLOCK_CELLS].compress(part, out=out[k:k + n])
        k += n
    return out.reshape(d, -1)


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
        self.offset = np.arange(d)[:, None] * n  # each column's start in rank.ravel()
        self.mids = []
        first = np.empty(n, dtype=bool)  # where a distinct value starts in sorted order
        first[:1] = True
        for j in range(d):
            order = np.argsort(X[:, j], kind="stable")
            col = X[:, j].take(order)
            np.not_equal(col[1:], col[:-1], out=first[1:])
            uniq = col.compress(first)
            mids = 0.5 * (uniq[:-1] + uniq[1:])
            if bins and mids.size > bins:
                mids = mids[np.unique(np.linspace(0, mids.size - 1, bins).round().astype(int))]
            # searchsorted(mids, X[:, j]), looked up once per distinct value
            self.rank[j, order] = np.searchsorted(mids, uniq).take(first.cumsum() - 1)
            self.order[j] = order
            self.mids.append(mids)
        self.goes_left = np.empty(n, dtype=bool)

    def grow(self, g, h, tree_idx, records):
        """One tree fitted to gradients g and hessians h. Returns the tree as
        nested dicts and each training row's leaf value."""
        self.g, self.h = g, h
        self.tree_idx, self.records = tree_idx, records
        self.leaf = np.empty(g.size)
        rows = np.arange(g.size, dtype=np.int32)
        return self._grow(rows, self.order, 0), self.leaf

    def _splits(self, n_rows, depth) -> bool:
        """Whether a node of n_rows rows at this depth may split."""
        return depth < self.max_depth and n_rows >= self.min_split

    def _grow(self, rows, order, depth):
        """`rows` ascending; `order[j]` the same rows in column j's sorted order,
        a subsequence of the whole column's stable sort, so its prefix sums of
        g and h equal those of sorting this node alone. `order` is None for a
        node that may not split, which needs no orders."""
        G, H = self.g.take(rows).sum(), self.h.take(rows).sum()
        split = self._best_split(order, G, H) if self._splits(rows.size, depth) else None
        if split is None:
            value = float(-G / (H + self.lam))
            self.leaf[rows] = value
            return {"value": value}
        j, c, gain = split
        self.records.append(SplitRecord(tree=self.tree_idx, feature=j, gain=gain))
        mask = self.rank[j].take(rows) <= c
        n_left = int(np.count_nonzero(mask))
        split_left = self._splits(n_left, depth + 1)
        split_right = self._splits(rows.size - n_left, depth + 1)
        flat = left = None
        if split_left or split_right:
            # the buffer is shared with the children's splits: read it before them
            self.goes_left[rows] = mask
            flat = order.ravel()
            left = np.empty(flat.size, dtype=bool)
            for s in range(0, flat.size, _BLOCK_CELLS):  # take copies its int32 indices to intp
                self.goes_left.take(flat[s:s + _BLOCK_CELLS], out=left[s:s + _BLOCK_CELLS])
        # the right child's orders are selected after the left subtree is grown,
        # so only one child's orders are held during a subtree's growth
        d = order.shape[0]
        return {"feature": j, "threshold": float(self.mids[j][c]),
                "left": self._grow(rows.compress(mask),
                                   _select(flat, left, d) if split_left else None, depth + 1),
                "right": self._grow(rows.compress(~mask),
                                    _select(flat, ~left, d) if split_right else None, depth + 1)}

    def _best_split(self, order, G, H):
        """(feature, candidate, gain) of the best split, or None.

        Only the positions where a column's sorted ranks change are scored, each
        at the rank of its last row on the left: the lowest candidate that
        splits there, the one a scan over every candidate in order would pick,
        since all candidates between two adjacent rows give the same gain.
        A block of columns is scored at once: `cumsum` adds along each row in
        sequence, so each gain has the bits of scoring its column alone, and
        `argmax` picks each column's first best (or first NaN) change position.
        """
        lam = self.lam
        parent_score = G * G / (H + lam)
        best_gain = 0.0
        best = None
        g, h = self.g, self.h
        d, m = order.shape
        step = max(1, _BLOCK_CELLS // m)
        ranks = self.rank.ravel()
        for j0 in range(0, d, step):
            o = order[j0:j0 + step]
            rank = ranks.take(o + self.offset[j0:j0 + step])  # flat: a 2-D gather is slower
            GL = g.take(o).cumsum(axis=1)[:, :-1]
            HL = h.take(o).cumsum(axis=1)[:, :-1]
            gains = 0.5 * (GL**2 / (HL + lam) + (G - GL)**2 / (H - HL + lam) - parent_score)
            gains[rank[:, :-1] == rank[:, 1:]] = -np.inf  # no candidate between equal ranks
            k = gains.argmax(axis=1)
            cols = np.arange(k.size)
            # -inf, for a column without a change, never beats best_gain >= 0
            for j, gain, c in zip(range(j0, d), gains[cols, k].tolist(), rank[cols, k].tolist()):
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best = (j, c)
        if best is None or best_gain <= 1e-12:
            return None
        return (*best, best_gain)


class GbtModel(TreeModel):
    algorithm = "gbt"
    state = ("trees", "base_log_odds", "learning_rate", "l2_leaf_reg", "split_records",
             "n_train", "cat_encoders")

    def __init__(self, trees, base_log_odds, learning_rate, l2_leaf_reg,
                 split_records, n_train, cat_encoders, feature_names):
        self.base_log_odds = float(base_log_odds)
        super().__init__(trees, feature_names, start=self.base_log_odds, scale=learning_rate,
                         counted=False)
        self.trees = trees  # nested dicts, as params_dict writes them
        self.learning_rate = learning_rate
        self.l2_leaf_reg = l2_leaf_reg
        record = (Rule(kind=numbers.Integral, high=len(trees) - 1),
                  Rule(kind=numbers.Integral, high=len(self.feature_names) - 1), REAL)
        for r in split_records:
            if not all(rule.accepts(v) for rule, v in zip(record, r)):
                raise ValueError(f"split record {r!r} is not (tree, feature, gain) of this model")
        self.split_records = [SplitRecord(*r) for r in split_records]
        self.n_train = n_train
        # feature index -> {"prior": float, "stats": {code: stat}}
        self.cat_encoders = {
            int(j): {"prior": float(e["prior"]),
                     "stats": {float(k): float(v) for k, v in e["stats"].items()}}
            for j, e in cat_encoders.items()}
        if not set(self.cat_encoders) <= set(range(len(self.feature_names))):
            raise ValueError("an encoder of a feature outside the columns")
        # per encoder: [its codes sorted, then NaN; their stats, then the prior]
        self._lookups = {j: np.array([*sorted(e["stats"].items()), (np.nan, e["prior"])]).T.copy()
                         for j, e in self.cat_encoders.items()}
        if not all(np.isfinite(table[0, :-1]).all() for table in self._lookups.values()):
            raise ValueError("an encoder code that is not a finite number")

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
                perm = child_rng(spec.seed, 2, int(j)).permutation(n)
                col = X[:, j]
                codes = np.unique(col)
                group = np.searchsorted(codes, col)  # not return_inverse: it may pick 0.0 for -0.0
                stats = (np.bincount(group, weights=y) + a * prior) / (np.bincount(group) + a)
                X[:, j] = ordered_target_statistics(col, y, perm, prior, a)
                cat_encoders[int(j)] = {"prior": prior, "stats": dict(zip(codes, stats))}

        prevalence = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
        base = float(np.log(prevalence / (1.0 - prevalence)))
        grower = _Grower(X, int(h["bins"]), lam, h["max_depth"], h["min_samples_split"])

        raw = np.full(n, base)
        p = sigmoid(raw)
        trees = []
        records: list[SplitRecord] = []
        losses = []  # the training log loss after each tree
        lr = float(h["learning_rate"])
        for t in range(h["n_estimators"]):
            tree, leaf = grower.grow(p - y, p * (1.0 - p), t, records)
            trees.append(tree)
            raw = raw + lr * leaf
            p = sigmoid(raw)
            q = np.clip(p, 1e-12, 1.0 - 1e-12)
            losses.append(float(-np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q))))
        model = cls(trees, base, lr, lam, records, n, cat_encoders, feature_names)
        return model._fitted(splits=len(records), losses=losses)

    def _transform(self, values: np.ndarray) -> np.ndarray:
        if not self.cat_encoders:
            return values
        values = np.asarray(values, dtype=float).copy()
        for j, (codes, stats) in self._lookups.items():
            col = values[:, j]
            k = np.searchsorted(codes, col)  # an unseen code past the last, or NaN: the NaN
            values[:, j] = np.where(codes[k] == col, stats[k], stats[-1])
        return values

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw_score(values))
