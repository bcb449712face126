"""RBF-kernel SVM trained by two-variable coordinate updates on the dual."""

from __future__ import annotations

import numpy as np

from .base import LearnerError, ModelSpec, TrainedModel, child_rng
from .linear import sigmoid

__all__ = ["SvmModel"]


def _kernel_matrix(A, B, gamma: float) -> np.ndarray:
    sq_a = np.sum(A * A, axis=1)[:, None]
    sq_b = np.sum(B * B, axis=1)[None, :]
    d2 = np.maximum(sq_a + sq_b - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma * d2)


def _smo(K, t, C, tol, max_passes, rng):
    """Simplified SMO; each two-variable step maximizes the dual exactly,
    so the recorded dual objective is monotone non-decreasing."""
    n = t.size
    alpha = np.zeros(n)
    b = 0.0
    objective_history = []

    def dual_objective():
        at = alpha * t
        return float(alpha.sum() - 0.5 * at @ K @ at)

    passes = 0
    epochs = 0
    while passes < max_passes and epochs < 100 * max_passes:
        changed = 0
        for i in range(n):
            Ei = float((alpha * t) @ K[:, i] + b - t[i])
            if (t[i] * Ei < -tol and alpha[i] < C) or (t[i] * Ei > tol and alpha[i] > 0):
                j = int(rng.integers(0, n - 1))
                if j >= i:
                    j += 1
                Ej = float((alpha * t) @ K[:, j] + b - t[j])
                ai_old, aj_old = alpha[i], alpha[j]
                if t[i] != t[j]:
                    L, H = max(0.0, aj_old - ai_old), min(C, C + aj_old - ai_old)
                else:
                    L, H = max(0.0, ai_old + aj_old - C), min(C, ai_old + aj_old)
                if L >= H:
                    continue
                eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                if eta >= 0:
                    continue
                aj = aj_old - t[j] * (Ei - Ej) / eta
                aj = min(max(aj, L), H)
                if abs(aj - aj_old) < 1e-7:
                    continue
                ai = ai_old + t[i] * t[j] * (aj_old - aj)
                alpha[i], alpha[j] = ai, aj
                b1 = b - Ei - t[i] * (ai - ai_old) * K[i, i] - t[j] * (aj - aj_old) * K[i, j]
                b2 = b - Ej - t[i] * (ai - ai_old) * K[i, j] - t[j] * (aj - aj_old) * K[j, j]
                if 0 < ai < C:
                    b = b1
                elif 0 < aj < C:
                    b = b2
                else:
                    b = 0.5 * (b1 + b2)
                changed += 1
        objective_history.append(dual_objective())
        epochs += 1
        passes = passes + 1 if changed == 0 else 0
    return alpha, b, objective_history


def _platt(decision, y, iters=300, lr=0.5):
    """1-D logistic calibration of decision values to probabilities."""
    z = np.asarray(decision, dtype=float)
    scale = np.std(z) or 1.0
    z = z / scale
    a, c = 1.0, 0.0
    for _ in range(iters):
        p = sigmoid(a * z + c)
        ga = float(np.mean((p - y) * z))
        gc = float(np.mean(p - y))
        a -= lr * ga
        c -= lr * gc
    return a / scale, c


class SvmModel(TrainedModel):
    algorithm = "svm"

    def __init__(self, support_vectors, coef, intercept, gamma, platt_a, platt_b,
                 feature_names, slack=None, objective_history=None):
        super().__init__(feature_names)
        self.support_vectors = support_vectors
        self.coef = coef  # alpha_i * t_i for support vectors
        self.intercept = intercept
        self.gamma = gamma
        self.platt_a = platt_a
        self.platt_b = platt_b
        self.slack = slack if slack is not None else np.empty(0)
        self.objective_history = objective_history or []

    @classmethod
    def fit(cls, X, y, spec: ModelSpec, feature_names) -> "SvmModel":
        h = spec.hyperparameters
        if h["kernel"] != "rbf":
            raise LearnerError("only the rbf kernel is supported")
        X = np.asarray(X, dtype=float)
        t = np.where(np.asarray(y) == 1, 1.0, -1.0)
        if h["gamma"] == "scale":
            v = X.var()
            gamma = 1.0 / (X.shape[1] * v) if v > 0 else 1.0
        else:
            gamma = float(h["gamma"])
        K = _kernel_matrix(X, X, gamma)
        rng = child_rng(spec.seed, 3)
        alpha, b, history = _smo(K, t, float(h["C"]), float(h["tol"]),
                                 int(h["max_passes"]), rng)
        decision = (alpha * t) @ K + b
        slack = np.maximum(0.0, 1.0 - t * decision)
        sv = alpha > 1e-10
        a_cal, b_cal = _platt(decision, np.asarray(y, dtype=float))
        return cls(X[sv], (alpha * t)[sv], b, gamma, a_cal, b_cal, feature_names,
                   slack=slack, objective_history=history)

    def decision_values(self, values: np.ndarray) -> np.ndarray:
        if self.support_vectors.shape[0] == 0:
            return np.full(values.shape[0], self.intercept)
        K = _kernel_matrix(values, self.support_vectors, self.gamma)
        return K @ self.coef + self.intercept

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        return sigmoid(self.platt_a * self.decision_values(values) + self.platt_b)

    def params_dict(self) -> dict:
        return {
            "support_vectors": self.support_vectors.tolist(),
            "coef": self.coef.tolist(),
            "intercept": self.intercept,
            "gamma": self.gamma,
            "platt_a": self.platt_a,
            "platt_b": self.platt_b,
        }

    @classmethod
    def from_params_dict(cls, d, feature_names):
        return cls(np.array(d["support_vectors"], dtype=float).reshape(-1, len(feature_names)),
                   np.array(d["coef"], dtype=float), d["intercept"], d["gamma"],
                   d["platt_a"], d["platt_b"], feature_names)
