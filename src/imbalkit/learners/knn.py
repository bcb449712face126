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
        return cls(X, y, k, h["weights"], feature_names)._fitted(training_rows=X.shape[0])

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        """Label vote of each row's ball, by smote's neighbour rule on its
        distances: every training row at or within the k-th distance, so exact
        ties at the k-th distance share the vote. The vote is the mean label,
        or the inverse-distance weighted one, where training rows at distance 0
        decide alone. Distances that overflow raise DataError."""
        y, k = self.y, self.n_neighbors
        out = np.empty(values.shape[0])
        for start, d2 in data._sq_distance_blocks(values, self.X):
            ball = data._ball(d2, k)
            weighted = np.zeros(d2.shape[0], dtype=bool)
            if self.weights == "distance":  # training rows at distance 0 decide alone
                zero = d2 == 0.0
                weighted = ~zero.any(axis=1)
                ball &= zero | weighted[:, None]
            for rows, cols in data._ball_groups(ball):
                yy, w = y.take(cols), weighted[rows]
                vote = yy.mean(axis=1)
                if w.any():
                    inv = 1.0 / np.sqrt(d2[rows[w, None], cols[w]])
                    vote[w] = np.sum(inv * yy[w], axis=1) / np.sum(inv, axis=1)
                out[start + rows] = vote
        return out
