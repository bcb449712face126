"""Probabilistic-classifier contract shared by all base learners."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..data import EncodedMatrix

__all__ = [
    "ModelSpec",
    "TrainedModel",
    "LearnerError",
    "ALGORITHMS",
    "default_hyperparameters",
    "fit_model",
    "predict_proba",
    "child_rng",
    "serialize_model",
    "deserialize_model",
    "save_model",
    "load_model",
]

MODEL_FORMAT = "imbalkit-model"
MODEL_VERSION = 1


class LearnerError(ValueError):
    pass


_DEFAULTS: dict[str, dict] = {
    "logistic": {"penalty": "l2", "C": 1.0, "max_iter": 500, "tol": 1e-10},
    "decision-tree": {"max_depth": 10, "min_samples_split": 10},
    "random-forest": {"n_estimators": 500, "max_depth": 20, "max_features": "sqrt"},
    "gbt": {
        "n_estimators": 200, "learning_rate": 0.01, "max_depth": 3,
        "l2_leaf_reg": 1.0, "min_samples_split": 2, "bins": 0,
        "categorical_handling": "plain-codes", "categorical_features": (),
        "target_stat_smoothing": 1.0,
    },
    "svm": {"kernel": "rbf", "C": 10.0, "gamma": "scale", "tol": 1e-3, "max_passes": 8},
    "naive-bayes": {"var_smoothing": 1e-9},
    "knn": {"n_neighbors": 3, "weights": "distance"},
    "mlp": {
        "hidden_layer_sizes": (512, 256, 128), "activation": "tanh",
        "max_iterations": 500, "learning_rate": 1e-3, "batch_size": 32,
    },
}

ALGORITHMS = tuple(_DEFAULTS)


def default_hyperparameters(algorithm: str) -> dict:
    if algorithm not in _DEFAULTS:
        raise LearnerError(f"unknown algorithm {algorithm!r}")
    return dict(_DEFAULTS[algorithm])


@dataclass(frozen=True)
class ModelSpec:
    algorithm: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in _DEFAULTS:
            raise LearnerError(f"unknown algorithm {self.algorithm!r}")
        unknown = set(self.hyperparameters) - set(_DEFAULTS[self.algorithm])
        if unknown:
            raise LearnerError(
                f"unknown hyperparameters for {self.algorithm}: {sorted(unknown)}"
            )
        merged = default_hyperparameters(self.algorithm)
        merged.update(self.hyperparameters)
        object.__setattr__(self, "hyperparameters", merged)

    def replace(self, **hyper) -> "ModelSpec":
        merged = dict(self.hyperparameters)
        merged.update(hyper)
        return ModelSpec(self.algorithm, merged, self.seed)


class TrainedModel:
    """A fitted probabilistic classifier exposing class-1 probability."""

    algorithm: str = ""

    def __init__(self, feature_names: tuple[str, ...]):
        self.feature_names = tuple(feature_names)

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params_dict(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_params_dict(cls, d: dict, feature_names) -> "TrainedModel":
        raise NotImplementedError


def child_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-style seed derivation so parallel and serial runs agree."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), *stream]))


def _registry() -> dict:
    from . import linear, tree, forest, gbt, svm, naive_bayes, knn, mlp
    from .. import stacking

    return {
        "logistic": linear.LogisticModel,
        "decision-tree": tree.DecisionTreeModel,
        "random-forest": forest.RandomForestModel,
        "gbt": gbt.GbtModel,
        "svm": svm.SvmModel,
        "naive-bayes": naive_bayes.NaiveBayesModel,
        "knn": knn.KnnModel,
        "mlp": mlp.MlpModel,
        "stacking": stacking.StackedModel,
    }


def _as_values(X) -> np.ndarray:
    if isinstance(X, EncodedMatrix):
        return X.values
    return np.asarray(X, dtype=np.float64)


def fit_model(spec, train: EncodedMatrix) -> TrainedModel:
    """Train one base learner (ModelSpec) or out-of-fold stack (StackingSpec);
    reproducible given (spec, data, seed)."""
    values = train.values
    y = train.target
    if not np.all(np.isfinite(values)):
        raise LearnerError("non-finite feature values")
    if len(np.unique(y)) < 2:
        raise LearnerError("training data must contain both classes")
    if isinstance(spec, ModelSpec):
        cls = _registry()[spec.algorithm]
        return cls.fit(values, y, spec, tuple(train.column_names))
    from ..stacking import StackingSpec, stack_fit

    if isinstance(spec, StackingSpec):
        return stack_fit(spec, train)
    raise TypeError(f"unsupported spec type {type(spec).__name__}")


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    """Class-1 probabilities of any fitted model, a stack included, for an
    EncodedMatrix or raw value matrix."""
    values = _as_values(X)
    if values.ndim != 2 or values.shape[1] != len(model.feature_names):
        raise LearnerError(
            f"feature dimension mismatch: model expects {len(model.feature_names)}"
        )
    probs = model.predict_proba_values(values)
    return np.clip(probs, 0.0, 1.0)


def serialize_model(model: TrainedModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "algorithm": model.algorithm,
        "feature_names": list(model.feature_names),
        "params": model.params_dict(),
    }


def deserialize_model(doc: dict) -> TrainedModel:
    if doc.get("format") != MODEL_FORMAT:
        raise LearnerError("not a model document")
    if doc.get("version") != MODEL_VERSION:
        raise LearnerError(f"unsupported model version {doc.get('version')!r}")
    cls = _registry()[doc["algorithm"]]
    return cls.from_params_dict(doc["params"], tuple(doc["feature_names"]))


def save_model(model: TrainedModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_model(model), fh, sort_keys=True)


def load_model(path) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize_model(json.load(fh))
