"""Multilayer perceptron with a sigmoid output unit, trained by Adam."""

from __future__ import annotations

import numpy as np

from .base import LearnerError, ModelSpec, TrainedModel, child_rng
from .linear import sigmoid

__all__ = ["MlpModel", "mlp_loss_and_grads", "init_layers"]

_ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: (a > 0).astype(float)),
}


def init_layers(sizes, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Xavier-initialized (weight, bias) pairs for consecutive layer sizes."""
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append((W, np.zeros(fan_out)))
    return layers


def _forward(layers, activation, X):
    act_fn, _ = _ACTIVATIONS[activation]
    activations = [X]
    a = X
    for i, (W, b) in enumerate(layers):
        z = a @ W + b
        a = sigmoid(z) if i == len(layers) - 1 else act_fn(z)
        activations.append(a)
    return activations


def mlp_loss_and_grads(layers, activation, X, y):
    """Mean binary cross-entropy and its analytic gradients per layer."""
    _, act_deriv = _ACTIVATIONS[activation]
    n = X.shape[0]
    acts = _forward(layers, activation, X)
    p = np.clip(acts[-1][:, 0], 1e-12, 1.0 - 1e-12)
    loss = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

    grads = [None] * len(layers)
    delta = (acts[-1] - y[:, None]) / n  # sigmoid + cross-entropy
    for i in range(len(layers) - 1, -1, -1):
        W, _ = layers[i]
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ W.T) * act_deriv(acts[i])
    return loss, grads


class MlpModel(TrainedModel):
    algorithm = "mlp"
    state = ("layers", "activation")

    def __init__(self, layers, activation, feature_names):
        super().__init__(feature_names)
        self.layers = [(np.asarray(W, dtype=float), np.asarray(b, dtype=float))
                       for W, b in layers]
        self.activation = activation

    @classmethod
    def fit(cls, X, y, spec: ModelSpec, feature_names) -> "MlpModel":
        h = spec.hyperparameters
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        mu, sd = X.mean(axis=0), X.std(axis=0)
        sd = np.where(sd > 0, sd, 1.0)
        Z = (X - mu) / sd

        rng = child_rng(spec.seed, 4)
        sizes = (X.shape[1], *h["hidden_layer_sizes"], 1)
        layers = init_layers(sizes, rng)
        lr = float(h["learning_rate"])
        batch = int(h["batch_size"])
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m = [(np.zeros_like(W), np.zeros_like(b)) for W, b in layers]
        v = [(np.zeros_like(W), np.zeros_like(b)) for W, b in layers]
        step = 0
        n = Z.shape[0]
        for _ in range(int(h["max_iterations"])):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                _, grads = mlp_loss_and_grads(layers, h["activation"], Z[idx], y[idx])
                step += 1
                for i, ((gW, gb), (W, b)) in enumerate(zip(grads, layers)):
                    mW, mb = m[i]
                    vW, vb = v[i]
                    mW = beta1 * mW + (1 - beta1) * gW
                    mb = beta1 * mb + (1 - beta1) * gb
                    vW = beta2 * vW + (1 - beta2) * gW * gW
                    vb = beta2 * vb + (1 - beta2) * gb * gb
                    m[i] = (mW, mb)
                    v[i] = (vW, vb)
                    corr1 = 1 - beta1 ** step
                    corr2 = 1 - beta2 ** step
                    W -= lr * (mW / corr1) / (np.sqrt(vW / corr2) + eps)
                    b -= lr * (mb / corr1) / (np.sqrt(vb / corr2) + eps)
        if not all(np.all(np.isfinite(W)) and np.all(np.isfinite(b)) for W, b in layers):
            raise LearnerError("mlp training diverged to non-finite weights")
        # fold standardization into the first layer
        W0, b0 = layers[0]
        W0_orig = W0 / sd[:, None]
        b0_orig = b0 - (mu / sd) @ W0
        layers[0] = (W0_orig, b0_orig)
        return cls(layers, h["activation"], feature_names)

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        return _forward(self.layers, self.activation, values)[-1][:, 0]
