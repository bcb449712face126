"""k-nearest-neighbor classifier with uniform or inverse-distance weighting."""

from __future__ import annotations

import numpy as np

from .base import ModelSpec, TrainedModel

__all__ = ["KnnModel"]


class KnnModel(TrainedModel):
    algorithm = "knn"

    def __init__(self, X, y, n_neighbors, weights, feature_names):
        super().__init__(feature_names)
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.n_neighbors = n_neighbors
        self.weights = weights

    @classmethod
    def fit(cls, X, y, spec: ModelSpec, feature_names) -> "KnnModel":
        h = spec.hyperparameters
        k = min(h["n_neighbors"], X.shape[0])
        return cls(X, y, k, h["weights"], feature_names)

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        sq_t = np.sum(self.X * self.X, axis=1)
        out = np.empty(values.shape[0])
        for i in range(values.shape[0]):
            x = values[i]
            d2 = np.maximum(sq_t - 2.0 * (self.X @ x) + x @ x, 0.0)
            order = np.argsort(d2, kind="stable")
            kth = d2[order[self.n_neighbors - 1]]
            # rows exactly tied with the k-th distance are all included and
            # share the boundary weight, so exact ties average out
            idx = np.flatnonzero(d2 <= kth)
            dd = d2[idx]
            yy = self.y[idx]
            if self.weights == "uniform":
                out[i] = yy.mean()
            else:
                zero = dd == 0.0
                if np.any(zero):
                    out[i] = yy[zero].mean()
                else:
                    w = 1.0 / np.sqrt(dd)
                    out[i] = float(np.sum(w * yy) / np.sum(w))
        return out

    def params_dict(self) -> dict:
        return {"X": self.X.tolist(), "y": self.y.tolist(),
                "n_neighbors": self.n_neighbors, "weights": self.weights}

    @classmethod
    def from_params_dict(cls, d, feature_names):
        return cls(np.array(d["X"], dtype=float).reshape(-1, len(feature_names)),
                   np.array(d["y"], dtype=float), d["n_neighbors"], d["weights"],
                   feature_names)
