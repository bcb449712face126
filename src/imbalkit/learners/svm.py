"""RBF-kernel SVM trained by second-order SMO on the dual, with Platt scaling."""

from __future__ import annotations

import numpy as np

from ..data import DataError
from .base import LearnerError, ModelSpec, TrainedModel
from .linear import newton_logistic, sigmoid

__all__ = ["SvmModel"]

_TAU = 1e-12  # floor on the curvature a of a two-variable step (LIBSVM's TAU)
_KERNEL_BUDGET_BYTES = 1 << 30  # most a fit may hold of its kernel and one block
_KERNEL_BLOCK = 256  # rows of sq_a + sq_b held at once while the kernel is built


def _kernel_matrix(A, B, gamma: float) -> np.ndarray:
    """exp(-gamma * max(|a|^2 + |b|^2 - 2 a.b, 0)) for every row pair, built in
    the buffer of A @ B.T; each entry takes the same operations in the same
    order as the whole-matrix expression, so the bits are the same. Squared
    distances that overflow to NaN raise DataError, as k-NN's do."""
    sq_a = np.sum(A * A, axis=1)[:, None]
    sq_b = np.sum(B * B, axis=1)[None, :]
    K = A @ B.T
    for start in range(0, K.shape[0], _KERNEL_BLOCK):
        block = K[start:start + _KERNEL_BLOCK]
        np.multiply(block, 2.0, out=block)
        np.subtract(sq_a[start:start + _KERNEL_BLOCK] + sq_b, block, out=block)
    np.maximum(K, 0.0, out=K)
    np.multiply(K, -gamma, out=K)
    if np.isnan(K.max(initial=0.0)):  # max is NaN when any entry is, and allocates nothing
        raise DataError("squared distances overflow; rescale the features")
    return np.exp(K, out=K)


def _smo(K, t, C, tol, max_steps):
    """Dual SMO with second-order working-set selection (Fan, Chen & Lin,
    JMLR 2005, as in LIBSVM) on min f(a) = 1/2 a'Qa - e'a, Q = tt'K,
    0 <= a <= C, t'a = 0.

    The gradient G = Qa - e is kept up to date with two kernel rows per step.
    Each step takes the maximal violator i over I_up, the partner j over
    I_low with the largest second-order decrease b^2/a, and solves the
    two-variable subproblem exactly, so the dual objective -f(a) never falls.
    The loop stops when the KKT gap m(a) - M(a) <= tol or after max_steps
    steps. Returns (alpha, b, objective history, fit info)."""
    n = t.size
    alpha = np.zeros(n)
    G = -np.ones(n)
    diag = np.diag(K)
    up = np.where(t > 0, alpha < C, alpha > 0)    # I_up
    low = np.where(t > 0, alpha > 0, alpha < C)   # I_low
    history = []  # the dual objective every n steps and at return

    def dual_objective():
        return float(-0.5 * alpha @ (G - 1.0))

    steps = 0
    while True:
        v = -t * G
        i = int(np.argmax(np.where(up, v, -np.inf)))
        m = v[i]
        M = np.min(np.where(low, v, np.inf))
        if m - M <= tol or steps >= max_steps:
            break
        if steps % n == 0:
            history.append(dual_objective())
        Ki = K[i]
        gain_b = m - v
        gain_a = np.maximum(diag[i] + diag - 2.0 * Ki, _TAU)
        j = int(np.argmin(np.where(low & (gain_b > 0), -gain_b * gain_b / gain_a, np.inf)))
        # move a_i by t_i * lam and a_j by -t_j * lam, 0 < lam, within [0, C]
        cap_i = C - alpha[i] if t[i] > 0 else alpha[i]
        cap_j = alpha[j] if t[j] > 0 else C - alpha[j]
        lam = min(gain_b[j] / gain_a[j], cap_i, cap_j)
        ai, aj = alpha[i], alpha[j]
        if lam == cap_i:
            alpha[i] = C if t[i] > 0 else 0.0
        else:
            alpha[i] = min(max(ai + t[i] * lam, 0.0), C)
        if lam == cap_j:
            alpha[j] = 0.0 if t[j] > 0 else C
        else:
            alpha[j] = min(max(aj - t[j] * lam, 0.0), C)
        di, dj = t[i] * (alpha[i] - ai), t[j] * (alpha[j] - aj)  # lam, -lam
        G += t * (di * Ki + dj * K[j])
        for k in (i, j):
            up[k] = alpha[k] < C if t[k] > 0 else alpha[k] > 0
            low[k] = alpha[k] > 0 if t[k] > 0 else alpha[k] < C
        steps += 1
    history.append(dual_objective())

    free = (alpha > 0) & (alpha < C)
    b = float(np.mean(v[free])) if free.any() else float(0.5 * (m + M))
    info = {"iterations": steps, "converged": bool(m - M <= tol),
            "kkt_gap": float(m - M), "dual_objective": history[-1]}
    return alpha, b, history, info


class SvmModel(TrainedModel):
    algorithm = "svm"
    state = ("support_vectors", "coef", "intercept", "gamma", "platt_a", "platt_b")

    def __init__(self, support_vectors, coef, intercept, gamma, platt_a, platt_b,
                 feature_names):
        super().__init__(feature_names)
        self.support_vectors = np.asarray(support_vectors, dtype=float).reshape(
            -1, len(self.feature_names))
        self.coef = np.asarray(coef, dtype=float).reshape(len(self.support_vectors))  # alpha_i t_i
        self.intercept = float(intercept)
        self.gamma = gamma
        self.platt_a = float(platt_a)
        self.platt_b = float(platt_b)

    # a view of fit_info kept for callers that read it as an attribute
    objective_history = property(lambda self: self.fit_info.get("objective_history", []))

    @classmethod
    def fit(cls, X, y, spec: ModelSpec, feature_names) -> "SvmModel":
        h = spec.hyperparameters
        C = float(h["C"])
        X = np.asarray(X, dtype=float)
        t = np.where(np.asarray(y) == 1, 1.0, -1.0)
        if h["gamma"] == "scale":
            v = X.var()
            gamma = 1.0 / (X.shape[1] * v) if v > 0 else 1.0
        else:
            gamma = float(h["gamma"])
        n = X.shape[0]
        held = (n + min(n, _KERNEL_BLOCK)) * n * 8  # the float64 kernel and one block
        if held > _KERNEL_BUDGET_BYTES:
            raise LearnerError(
                f"svm: building the {n} x {n} kernel matrix needs {held / 2**20:.0f} MiB, "
                f"over the {_KERNEL_BUDGET_BYTES / 2**20:.0f} MiB budget")
        K = _kernel_matrix(X, X, gamma)
        # max_passes is a step cap: at most 100 * max_passes steps per training row
        alpha, b, history, info = _smo(K, t, C, float(h["tol"]),
                                       100 * int(h["max_passes"]) * n)
        decision = (alpha * t) @ K + b
        sv = alpha > 1e-10
        n_pos = int(np.sum(t > 0))  # Platt scaling on Lin, Lin & Weng's (2007) targets
        soft = np.where(t > 0, (n_pos + 1) / (n_pos + 2), 1 / (n - n_pos + 2))
        (a_cal, b_cal), info["platt"] = newton_logistic(np.c_[decision, np.ones(n)], soft)
        return cls(X[sv], (alpha * t)[sv], b, gamma, a_cal, b_cal, feature_names)._fitted(
            **info, objective_history=history)

    def decision_values(self, values: np.ndarray) -> np.ndarray:
        K = _kernel_matrix(values, self.support_vectors, self.gamma)
        return K @ self.coef + self.intercept

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        return sigmoid(self.platt_a * self.decision_values(values) + self.platt_b)
