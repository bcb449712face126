"""Gaussian naive Bayes on integer-encoded features."""

from __future__ import annotations

import numpy as np

from .base import ModelSpec, TrainedModel

__all__ = ["NaiveBayesModel"]


class NaiveBayesModel(TrainedModel):
    algorithm = "naive-bayes"
    state = ("priors", "means", "variances")

    def __init__(self, priors, means, variances, feature_names):
        super().__init__(feature_names)
        d = len(self.feature_names)
        self.priors = np.asarray(priors, dtype=float).reshape(2)
        self.means = np.asarray(means, dtype=float).reshape(2, d)
        self.variances = np.asarray(variances, dtype=float).reshape(2, d)
        if not (np.all(self.priors > 0) and np.all(self.variances > 0)):
            raise ValueError("naive-bayes priors and variances must be positive")

    @classmethod
    def fit(cls, X, y, spec: ModelSpec, feature_names) -> "NaiveBayesModel":
        eps = float(spec.hyperparameters["var_smoothing"])
        X = np.asarray(X, dtype=float)
        smoothing = eps * X.var(axis=0).max() if X.size else eps
        priors, means, variances = [], [], []
        for cls_label in (0, 1):
            Xc = X[y == cls_label]
            priors.append(Xc.shape[0] / X.shape[0])
            means.append(Xc.mean(axis=0))
            variances.append(Xc.var(axis=0) + max(smoothing, eps))
        return cls(priors, means, variances, feature_names)._fitted(training_rows=X.shape[0])

    def _log_joint(self, values: np.ndarray) -> np.ndarray:
        out = np.empty((values.shape[0], 2))
        for c in (0, 1):
            var = self.variances[c]
            ll = -0.5 * np.sum(np.log(2.0 * np.pi * var))
            ll = ll - 0.5 * np.sum((values - self.means[c]) ** 2 / var, axis=1)
            out[:, c] = ll + np.log(self.priors[c])
        return out

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        lj = self._log_joint(values)
        m = lj.max(axis=1, keepdims=True)
        w = np.exp(lj - m)
        return w[:, 1] / w.sum(axis=1)
