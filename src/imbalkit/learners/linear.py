"""Logistic regression, and the damped Newton solver behind every logistic fit."""

from __future__ import annotations

import numpy as np

from .base import ModelSpec, TrainedModel

__all__ = ["sigmoid", "newton_logistic", "LogisticModel"]


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def newton_logistic(A, y, l1=0.0, l2=0.0, max_iter=500, tol=1e-10) -> tuple[np.ndarray, dict]:
    """Damped Newton on mean(log(1 + e^z) - y z) + l1 ||w||_1 + l2 ||w||^2, z = A theta;
    w is theta less its last entry (an unpenalized intercept), y may hold soft
    targets in [0, 1]. A step minimizes the quadratic model by least squares (H
    is singular if a column is constant or p(1 - p) underflows), or if l1 > 0 by
    soft-thresholding coordinate sweeps that skip H_jj = 0 (newGLMNET: Yuan, Ho
    & Lin, JMLR 2012), then backtracks to Armijo's condition, or to a predicted
    decrease below the rounding error of f, which no trial could show. Stops once
    every entry of the minimum-norm subgradient is <= tol, or after max_iter steps."""
    n, k = A.shape
    l1, ridge = l1 * (np.arange(k) < k - 1), 2.0 * l2 * np.diag(np.arange(k) < k - 1)

    def objective(theta):
        z = A @ theta
        return (np.mean(np.logaddexp(0.0, z) - y * z) + l1 @ np.abs(theta)
                + theta @ ridge @ theta / 2), z

    theta, iterations = np.zeros(k), 0
    f, z = objective(theta)
    while True:
        p = sigmoid(z)
        g = A.T @ (p - y) / n + ridge @ theta
        gap = float(np.max(np.where(theta != 0, abs(g + l1 * np.sign(theta)), abs(g) - l1)))
        if gap <= tol or iterations == max_iter:
            break
        H = (A.T * (p * (1.0 - p))) @ A / n + ridge
        if not l1.any():
            target = theta + np.linalg.lstsq(H, -g, rcond=None)[0]
        else:  # sweeps, until none moves a coordinate more than tol
            target = theta.copy()
            for _ in range(max_iter):
                start = target.copy()
                for j in np.flatnonzero(np.diag(H) > 0):
                    v = target[j] - (g[j] + H[j] @ (target - theta)) / H[j, j]
                    target[j] = np.sign(v) * max(abs(v) - l1[j] / H[j, j], 0.0)
                if np.max(abs(target - start)) <= tol:
                    break
        delta = g @ (target - theta) + l1 @ (np.abs(target) - np.abs(theta))
        if not delta < 0:
            break  # the model offers no descent: stop, unconverged
        for t in 0.5 ** np.arange(53):  # down to machine epsilon; at t = 1 the trial is target
            f_trial, z_trial = objective(trial := (1.0 - t) * theta + t * target)
            if f_trial <= f + 1e-4 * t * delta or -t * delta <= 2.0 ** -52 * f:
                break
        else:
            break  # no step length decreases the objective: stop, unconverged
        theta, f, z, iterations = trial, f_trial, z_trial, iterations + 1
    return theta, {"iterations": iterations, "converged": gap <= tol, "kkt_gap": gap}


class LogisticModel(TrainedModel):
    algorithm = "logistic"
    state = ("intercept", "weights", "penalty", "C")

    def __init__(self, intercept, weights, penalty, C, feature_names):
        super().__init__(feature_names)
        self.intercept = float(intercept)
        self.weights = np.asarray(weights, dtype=float).reshape(len(self.feature_names))
        self.penalty = penalty
        self.C = C  # inverse regularization strength

    @classmethod
    def fit(cls, X, y, spec: ModelSpec, feature_names) -> "LogisticModel":
        """Mean log-loss + penalty/(C*n) by newton_logistic (max_iter Newton iterations,
        tol its KKT-gap tolerance) on features standardized for conditioning, folded
        back to the original scale; the solver's report is fit_info."""
        h = spec.hyperparameters
        mu, sd = X.mean(axis=0), X.std(axis=0)
        sd = np.where(sd > 0, sd, 1.0)
        lam = 1.0 / (h["C"] * len(X))
        w, info = newton_logistic(np.c_[(X - mu) / sd, np.ones(len(X))], y,
                                  lam * (h["penalty"] == "l1"), lam * (h["penalty"] == "l2"),
                                  h["max_iter"], h["tol"])
        return cls(float(w[-1] - np.sum(w[:-1] * mu / sd)), w[:-1] / sd, h["penalty"], h["C"],
                   feature_names)._fitted(**info)

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        return sigmoid(self.intercept + values @ self.weights)
