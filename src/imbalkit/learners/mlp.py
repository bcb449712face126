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
        widths = [len(self.feature_names), *(len(b) for _, b in layers)]  # each layer's inputs
        if len(widths) < 2 or widths[-1] != 1:
            raise ValueError("the last layer must have one output unit")
        self.layers = [(np.asarray(W, dtype=float).reshape(m, n),
                        np.asarray(b, dtype=float).reshape(n))
                       for (W, b), m, n in zip(layers, widths, widths[1:])]
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
        params = [p for layer in layers for p in layer]  # every W and b, updated in place
        state = [[np.zeros_like(p) for _ in range(4)] for p in params]  # Adam's m, v; scratch s, t
        lr = float(h["learning_rate"])
        batch = int(h["batch_size"])
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        n = Z.shape[0]
        epoch_losses = []  # each epoch's mean batch loss
        for _ in range(int(h["max_iterations"])):
            order = rng.permutation(n)
            losses = []
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                loss, grads = mlp_loss_and_grads(layers, h["activation"], Z[idx], y[idx])
                losses.append(loss)
                step += 1
                corr1, corr2 = 1 - beta1 ** step, 1 - beta2 ** step
                for p, g, (m, v, s, t) in zip(params, (g for pair in grads for g in pair), state):
                    # each element as m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g
                    m *= beta1
                    m += np.multiply(g, 1 - beta1, out=s)
                    v *= beta2
                    v += np.multiply(np.multiply(g, 1 - beta2, out=s), g, out=s)
                    np.sqrt(np.divide(v, corr2, out=t), out=t)
                    t += eps
                    np.divide(m, corr1, out=s)
                    s *= lr
                    p -= np.divide(s, t, out=s)
            epoch_losses.append(float(np.mean(losses)))
        if not all(np.isfinite(p).all() for p in params):
            raise LearnerError("mlp training diverged to non-finite weights")
        W0, b0 = layers[0]
        layers[0] = (W0 / sd[:, None], b0 - (mu / sd) @ W0)  # fold in the standardization
        # Adam here has no stopping test: every fit runs all max_iterations epochs
        return cls(layers, h["activation"], feature_names)._fitted(
            iterations=len(epoch_losses), converged=False,
            loss=epoch_losses[-1] if epoch_losses else None, epoch_losses=epoch_losses)

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        return _forward(self.layers, self.activation, values)[-1][:, 0]
