"""k-nearest-neighbor classifier with uniform or inverse-distance weighting."""

from __future__ import annotations

import numpy as np

from .. import data
from .base import ModelSpec, TrainedModel

__all__ = ["KnnModel"]


class KnnModel(TrainedModel):
    algorithm = "knn"
    state = ("X", "y", "n_neighbors", "weights")

    def __init__(self, X, y, n_neighbors, weights, feature_names):
        super().__init__(feature_names)
        self.X = np.asarray(X, dtype=float).reshape(-1, len(self.feature_names))
        self.y = np.asarray(y, dtype=float).reshape(len(self.X))
        if not n_neighbors <= len(self.X):
            raise ValueError(f"{n_neighbors} neighbours of {len(self.X)} training rows")
        self.n_neighbors = n_neighbors
        self.weights = weights

    @classmethod
    def fit(cls, X, y, spec: ModelSpec, feature_names) -> "KnnModel":
        h = spec.hyperparameters
        k = min(h["n_neighbors"], X.shape[0])
        return cls(X, y, k, h["weights"], feature_names)

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        """Mean label of each row's nearest training rows, scored block by block
        on the distances smote's neighbour search uses. Rows exactly tied with
        the k-th distance are all included and share the boundary weight, so
        exact ties average out; with distance weights, training rows at
        distance 0 decide alone. Distances that overflow raise DataError."""
        y, k = self.y, self.n_neighbors
        out = np.empty(values.shape[0])
        for start, d2 in data._sq_distance_blocks(values, self.X):
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
            near = d2 <= kth
            # exactly k neighbours and no zero distance: one vectorized vote
            regular = (near.sum(axis=1) == k) & ~(d2 == 0.0).any(axis=1)
            cols = near[regular].nonzero()[1].reshape(-1, k)
            out[start:start + d2.shape[0]][regular] = self._vote(
                np.take_along_axis(d2[regular], cols, axis=1), y.take(cols))
            for i in np.flatnonzero(~regular):
                idx = np.flatnonzero(near[i])
                dd, yy = d2[i, idx], y.take(idx)
                zero = dd == 0.0
                if self.weights == "distance" and zero.any():
                    out[start + i] = yy[zero].mean()
                else:
                    out[start + i] = self._vote(dd[None], yy[None])[0]
        return out

    def _vote(self, dd: np.ndarray, yy: np.ndarray) -> np.ndarray:
        """Per row of (rows, m) neighbour distances and labels, none of them
        at distance 0: the mean label, or the inverse-distance weighted one."""
        if self.weights == "uniform":
            return yy.mean(axis=1)
        w = 1.0 / np.sqrt(dd)
        return np.sum(w * yy, axis=1) / np.sum(w, axis=1)
