"""Probabilistic-classifier contract shared by all base learners."""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ..data import EncodedMatrix

__all__ = [
    "ModelSpec",
    "TrainedModel",
    "LearnerError",
    "ALGORITHMS",
    "HYPERPARAMETERS",
    "fit_model",
    "predict_proba",
    "child_rng",
    "map_ordered",
    "serialize_model",
    "deserialize_model",
    "save_model",
    "load_model",
]

MODEL_FORMAT = "imbalkit-model"
MODEL_VERSION = 1


class LearnerError(ValueError):
    pass


@dataclass(frozen=True)
class Rule:
    """The values a setting accepts: the JSON constants in choices, and integers
    (kind numbers.Integral) or reals (numbers.Real) from low to high, or strictly
    between them if strict; numpy scalars pass, bools are not numbers. With
    each=True, lists (or tuples) of such values instead."""

    choices: tuple = ()
    kind: type | None = None
    low: float = 0
    high: float = 0
    strict: bool = False
    each: bool = False

    def accepts(self, value) -> bool:
        if self.each:
            item = replace(self, each=False)
            return isinstance(value, (list, tuple)) and all(map(item.accepts, value))
        if self.kind and isinstance(value, self.kind) and not isinstance(value, bool):
            return self.low < value < self.high if self.strict else self.low <= value <= self.high
        return any(isinstance(value, type(c)) and value == c for c in self.choices)

    def __str__(self):
        words = [json.dumps(c) for c in self.choices]
        if self.strict:  # only ever (0, high)
            words.append(f"positive and below {self.high:g}")
        elif self.kind is numbers.Integral:
            words.append(f"an integer from {self.low} to {self.high}")
        elif self.kind:
            words.append(f"a number from {self.low:g} to {self.high:g}")
        return ("a list, each " if self.each else "") + " or ".join(words)


def check_value(rule: Rule, value, what: str) -> None:
    """LearnerError unless rule accepts value; the value is never converted."""
    if not rule.accepts(value):
        raise LearnerError(f"{what} must be {rule}, got {value!r}")


def count(low: int, **more) -> Rule:
    return Rule(kind=numbers.Integral, low=low, high=10**6, **more)


POSITIVE = Rule(kind=numbers.Real, high=1e12, strict=True)
NON_NEGATIVE = Rule(kind=numbers.Real, high=1e12)

# algorithm -> hyperparameter -> (default, the rule its values must pass)
HYPERPARAMETERS: dict[str, dict[str, tuple]] = {
    "logistic": {"penalty": ("l2", Rule(("l1", "l2"))), "C": (1.0, POSITIVE),
                 "max_iter": (500, count(0)), "tol": (1e-10, NON_NEGATIVE)},
    "decision-tree": {"max_depth": (10, count(1)), "min_samples_split": (10, count(0))},
    "random-forest": {"n_estimators": (500, count(1)), "max_depth": (20, count(0)),
                      "max_features": ("sqrt", count(0, choices=("sqrt", "all")))},
    "gbt": {
        "n_estimators": (200, count(0)), "learning_rate": (0.01, NON_NEGATIVE),
        "max_depth": (3, count(1)), "l2_leaf_reg": (1.0, NON_NEGATIVE),
        "min_samples_split": (2, count(0)), "bins": (0, count(0)),
        "categorical_handling": ("plain-codes", Rule(("plain-codes", "ordered-target-stats"))),
        "categorical_features": ((), count(0, each=True)),
        "target_stat_smoothing": (1.0, POSITIVE),
    },
    "svm": {"kernel": ("rbf", Rule(("rbf",))), "C": (10.0, POSITIVE),
            "gamma": ("scale", replace(POSITIVE, choices=("scale",))),
            "tol": (1e-3, NON_NEGATIVE), "max_passes": (8, count(0))},
    "naive-bayes": {"var_smoothing": (1e-9, POSITIVE)},
    "knn": {"n_neighbors": (3, count(1)), "weights": ("distance", Rule(("uniform", "distance")))},
    "mlp": {
        "hidden_layer_sizes": ((512, 256, 128), count(1, each=True)),
        "activation": ("tanh", Rule(("tanh", "relu"))), "max_iterations": (500, count(0)),
        "learning_rate": (1e-3, NON_NEGATIVE), "batch_size": (32, count(1)),
    },
}

ALGORITHMS = tuple(HYPERPARAMETERS)


def hyperparameter_rules(algorithm: str, keys) -> dict:
    """{key: rule} for keys of algorithm; an unknown algorithm or key is a LearnerError."""
    if algorithm not in HYPERPARAMETERS:
        raise LearnerError(f"unknown algorithm {algorithm!r}")
    unknown = set(keys) - set(HYPERPARAMETERS[algorithm])
    if unknown:
        raise LearnerError(f"unknown hyperparameters for {algorithm}: {sorted(unknown)}")
    return {key: HYPERPARAMETERS[algorithm][key][1] for key in keys}


@dataclass(frozen=True)
class ModelSpec:
    algorithm: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        for key, rule in hyperparameter_rules(self.algorithm, self.hyperparameters).items():
            check_value(rule, self.hyperparameters[key], f"{self.algorithm} {key}")
        merged = {key: default for key, (default, _) in HYPERPARAMETERS[self.algorithm].items()}
        merged.update(self.hyperparameters)
        object.__setattr__(self, "hyperparameters", merged)

    def replace(self, **hyper) -> "ModelSpec":
        merged = dict(self.hyperparameters)
        merged.update(hyper)
        return ModelSpec(self.algorithm, merged, self.seed)


def plain(value):
    """value as JSON gives it back: arrays and tuples as lists, dict keys as
    str, a TreeNode as its document."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    return value.to_dict() if hasattr(value, "to_dict") else value


class TrainedModel:
    """A fitted probabilistic classifier exposing class-1 probability.

    state names the attributes params_dict writes, in the order the
    constructor takes them before feature_names; the constructor accepts each
    as fitted or as plain() gives it back. fit_info describes how the fit went
    (for an iterative solver: its iterations and whether it converged); it is
    not part of params_dict, so it never reaches a serialized model."""

    algorithm: str = ""
    state: tuple[str, ...] = ()

    def __init__(self, feature_names: tuple[str, ...]):
        self.feature_names = tuple(feature_names)
        self.fit_info: dict = {}

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params_dict(self) -> dict:
        return {key: plain(getattr(self, key)) for key in self.state}

    @classmethod
    def from_params_dict(cls, d: dict, feature_names) -> "TrainedModel":
        return cls(*(d[key] for key in cls.state), feature_names)


def child_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-style seed derivation so parallel and serial runs agree."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), *stream]))


# (fn, items) of the map a worker serves; set only in map_ordered's workers,
# whose own map_ordered calls therefore run serially
_job: tuple | None = None


def _available_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _adopt(fn, items) -> None:
    global _job
    _job = (fn, items)


def _run(i: int):
    fn, items = _job
    return fn(items[i])


def map_ordered(fn, items) -> list:
    """[fn(item) for item in items], spread over forked worker processes, one
    per CPU this process may use and at most one per item.

    Workers inherit fn and items through fork; only item indices go to them
    and only results come back pickled, so fn may be a closure and its inputs
    are never pickled. Results come back in item order, so with child_rng
    seeds the output is the serial loop's, bit for bit. The serial loop runs
    instead for one worker or one item, where the platform has no fork, and
    inside a worker, so pools never nest. An exception from fn is raised for
    the earliest failing item, as the loop would raise it; a worker that dies
    raises BrokenProcessPool. The pool is joined before this returns."""
    import multiprocessing  # here, not at import time: most commands never fork
    from concurrent.futures import ProcessPoolExecutor

    items = list(items)
    workers = min(_available_cpus(), len(items))
    if workers <= 1 or _job is not None or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(fn, items)) as pool:
        return list(pool.map(_run, range(len(items))))


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
    """The model serialize_model wrote doc from. A document of another format
    or version, or one with an unknown algorithm, a missing key or a value of
    the wrong type, raises LearnerError."""
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise LearnerError("not a model document")
    if doc.get("version") != MODEL_VERSION:
        raise LearnerError(f"unsupported model version {doc.get('version')!r}")
    try:
        cls = _registry()[doc["algorithm"]]
        return cls.from_params_dict(doc["params"], tuple(doc["feature_names"]))
    except LearnerError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise LearnerError(f"malformed model document: {exc!r}") from exc


def save_model(model: TrainedModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_model(model), fh, sort_keys=True)


def load_model(path) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize_model(json.load(fh))
