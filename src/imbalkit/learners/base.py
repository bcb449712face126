"""Probabilistic-classifier contract shared by all base learners."""

from __future__ import annotations

import importlib
import json
import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ..data import EncodedMatrix, child_rng

__all__ = [
    "ModelSpec",
    "TrainedModel",
    "LearnerError",
    "TreeDepthError",
    "ALGORITHMS",
    "HYPERPARAMETERS",
    "fit_model",
    "predict_proba",
    "child_rng",
    "FIT_SECONDS",
    "fit_cost",
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


class TreeDepthError(LearnerError):
    """A tree deeper than a model document may hold (tree.MAX_TREE_DEPTH levels)."""


@dataclass(frozen=True)
class Rule:
    """The values a setting accepts: the JSON constants in choices, and integers
    (kind numbers.Integral) or reals (numbers.Real) from low to high, or strictly
    between them if strict; numpy scalars pass, bools are not numbers. With
    each=True, lists (or tuples) of such values instead, without a repeat if
    distinct."""

    choices: tuple = ()
    kind: type | None = None
    low: float = 0
    high: float = 0
    strict: bool = False
    each: bool = False
    distinct: bool = False

    def accepts(self, value) -> bool:
        if self.each:
            item = replace(self, each=False)
            return (isinstance(value, (list, tuple)) and all(map(item.accepts, value))
                    and not (self.distinct and len(set(value)) < len(value)))
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
        each = "a list of distinct values, each " if self.distinct else "a list, each "
        return (each if self.each else "") + " or ".join(words)


def check_value(rule: Rule, value, what: str) -> None:
    """LearnerError unless rule accepts value; the value is never converted."""
    if not rule.accepts(value):
        raise LearnerError(f"{what} must be {rule}, got {value!r}")


def count(low: int, **more) -> Rule:
    return Rule(kind=numbers.Integral, low=low, high=10**6, **more)


REAL = Rule(kind=numbers.Real, low=-np.inf, high=np.inf)
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
        "categorical_features": ((), count(0, each=True, distinct=True)),
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
    str, a TreeNode or a TrainedModel as its document. Nested lists and dicts
    are walked with a list of open slots, not recursion, so a tree document
    converts at any depth."""
    root = [value]
    slots = [(root, 0)]  # (container, key) of each value still to convert
    while slots:
        container, key = slots.pop()
        value = container[key]
        if isinstance(value, TrainedModel):
            value = serialize_model(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, (list, tuple)):
            value = list(value)
            slots.extend((value, i) for i in range(len(value)))
        elif isinstance(value, dict):
            value = {str(k): v for k, v in value.items()}
            slots.extend((value, k) for k in value)
        elif hasattr(value, "to_dict"):
            value = value.to_dict()
        container[key] = value
    return root[0]


class TrainedModel:
    """A fitted probabilistic classifier exposing class-1 probability.

    state names the attributes params_dict writes, in the order the
    constructor takes them before feature_names; the constructor accepts each
    as fitted or as plain() gives it back, and reshapes each array to the
    shape predict uses. fit_info describes how the fit went
    (for an iterative solver: its iterations and whether it converged); it is
    not part of params_dict, so it never reaches a serialized model."""

    algorithm: str = ""
    state: tuple[str, ...] = ()

    def __init__(self, feature_names: tuple[str, ...]):
        self.feature_names = tuple(feature_names)
        self.fit_info: dict = {}

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _fitted(self, **info) -> "TrainedModel":
        """self, with info, the report of the fit that made it, as its fit_info."""
        self.fit_info = info
        return self

    def params_dict(self) -> dict:
        return {key: plain(getattr(self, key)) for key in self.state}

    @classmethod
    def from_params_dict(cls, d: dict, feature_names) -> "TrainedModel":
        """A state value named after a hyperparameter passes its rule, less its upper bound
        and named choices (svm gamma is fitted: a number); any other scalar is a real."""
        rules = HYPERPARAMETERS.get(cls.algorithm, {})
        for key in (k for k in cls.state if k in rules or not isinstance(d[k], (list, dict))):
            rule = rules[key][1] if key in rules else REAL
            check_value(replace(rule, choices=(), high=np.inf) if rule.kind else rule, d[key],
                        f"malformed model document: {cls.algorithm} {key}")
        return cls(*(d[key] for key in cls.state), feature_names)


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


# seconds to fit each algorithm at its defaults and score the test set, on the
# criterion-11 split (2,666 SMOTEd training rows, 400 test rows; BENCH_29.json,
# 2-core Xeon VM): map_ordered's estimate of what a unit costs
FIT_SECONDS = {"mlp": 171.0, "random-forest": 26.0, "gbt": 1.79, "svm": 0.32,
               "decision-tree": 0.089, "knn": 0.02, "logistic": 0.0135, "naive-bayes": 0.0027}
# seconds that starting a pool adds to a run: importing multiprocessing and
# concurrent.futures, forking the workers and joining them. Pooling the naive
# Bayes + logistic roster of perfbench's survey-scale benchmark added 31-46 ms
# on a 2-core Xeon VM
POOL_START_S = 0.046


def fit_cost(spec) -> float:
    """Estimated seconds to fit spec and score a test set: a ModelSpec's
    FIT_SECONDS, a stack's (oof_folds + 1) times the sum of its bases' (it fits
    each base once per out-of-fold fold, then once on every row); 0 for
    anything else. Read by attribute, so base never imports stacking."""
    if isinstance(spec, ModelSpec):
        return FIT_SECONDS[spec.algorithm]
    bases = getattr(spec, "base_specs", ())
    return (getattr(spec, "oof_folds", 0) + 1) * sum(map(fit_cost, bases))


def map_ordered(fn, items, costs=None) -> list:
    """[fn(item) for item in items], spread over forked worker processes, one
    per CPU this process may use and at most one per item.

    costs, one estimated cost in seconds per item (fit_cost), orders the
    dispatch: the costliest item goes to a worker first, so that no worker
    is left alone with a long item at the end (Graham's LPT rule); without
    costs, items go in item order. Workers inherit fn and items through fork;
    only item indices go to them and only results come back pickled, so fn
    may be a closure and its inputs are never pickled. Results come back in
    item order, so with child_rng seeds the output is the serial loop's, bit
    for bit. The serial loop runs instead for one worker or one item, inside a
    worker (so pools never nest), when the items other than the costliest
    together cost less than starting a pool (POOL_START_S), and where the
    platform has no fork. An exception from fn is raised for the earliest
    failing item in item order, as the loop would raise it; a worker that
    dies raises BrokenProcessPool. The pool is joined before this returns."""
    items = list(items)
    workers = min(_available_cpus(), len(items))
    if costs is not None and len(costs) != len(items):
        raise ValueError(f"{len(costs)} costs for {len(items)} items")
    cheap = costs is not None and sum(costs) - max(costs, default=0) < POOL_START_S
    if workers <= 1 or _job is not None or cheap:
        return [fn(item) for item in items]
    import multiprocessing  # here, not at import time: most commands never fork
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    order = range(len(items))
    if costs is not None:  # a stable sort: equal costs keep item order
        order = sorted(order, key=lambda i: -costs[i])
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(fn, items)) as pool:
        futures = {i: pool.submit(_run, i) for i in order}
        try:
            return [futures[i].result() for i in range(len(items))]
        finally:
            for future in futures.values():
                future.cancel()


# algorithm -> (module under imbalkit, class): a fit or a model document
# imports only the module of its own algorithm
_MODELS = {
    "logistic": ("learners.linear", "LogisticModel"),
    "decision-tree": ("learners.tree", "DecisionTreeModel"),
    "random-forest": ("learners.forest", "RandomForestModel"),
    "gbt": ("learners.gbt", "GbtModel"),
    "svm": ("learners.svm", "SvmModel"),
    "naive-bayes": ("learners.naive_bayes", "NaiveBayesModel"),
    "knn": ("learners.knn", "KnnModel"),
    "mlp": ("learners.mlp", "MlpModel"),
    "stacking": ("stacking", "StackedModel"),
}


def _model_class(algorithm: str) -> type:
    """The TrainedModel class of algorithm; KeyError for an unknown one."""
    module, name = _MODELS[algorithm]
    return getattr(importlib.import_module(f"..{module}", __package__), name)


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
        cls = _model_class(spec.algorithm)
        try:
            return cls.fit(values, y, spec, tuple(train.column_names))
        except RecursionError as exc:  # the tree learners grow one call deeper per level
            raise LearnerError(f"{spec.algorithm} max_depth {spec.hyperparameters['max_depth']}: "
                               "a tree grew too deep for Python's recursion limit") from exc
        except TreeDepthError as exc:  # it grew, but no model document could hold it
            raise LearnerError(f"{spec.algorithm} max_depth "
                               f"{spec.hyperparameters['max_depth']}: {exc}") from exc
    from ..stacking import StackingSpec, stack_fit

    if isinstance(spec, StackingSpec):
        return stack_fit(spec, train)
    raise TypeError(f"unsupported spec type {type(spec).__name__}")


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    """Class-1 probabilities of any fitted model, a stack included, for an
    EncodedMatrix or raw value matrix; a NaN or infinite score raises LearnerError."""
    values = X.values if isinstance(X, EncodedMatrix) else np.asarray(X, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(model.feature_names):
        raise LearnerError(f"feature dimension mismatch: model expects {len(model.feature_names)}")
    scores = model.predict_proba_values(values)
    if not np.all(np.isfinite(scores)):
        raise LearnerError(f"non-finite {model.algorithm} scores; rescale the features")
    return np.clip(scores, 0.0, 1.0)


def serialize_model(model: TrainedModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "algorithm": model.algorithm,
        "feature_names": list(model.feature_names),
        "params": model.params_dict(),
    }


def _finite(value) -> bool:
    """Whether value holds no None, NaN or infinity at any depth; no fitted model
    does. Walked with a stack, not recursion, as plain walks."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, (list, dict)):
            stack.extend(value.values() if isinstance(value, dict) else value)
        elif value is None or isinstance(value, float) and not np.isfinite(value):
            return False
    return True


def deserialize_model(doc: dict) -> TrainedModel:
    """The model serialize_model wrote doc from. A document of another format
    or version, or one with an unknown algorithm, a missing key, a value of
    the wrong type, shape or range, or a tree deeper than tree.MAX_TREE_DEPTH
    levels, raises LearnerError."""
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise LearnerError("not a model document")
    if doc.get("version") != MODEL_VERSION:
        raise LearnerError(f"unsupported model version {doc.get('version')!r}")
    try:
        cls = _model_class(doc["algorithm"])
        if not _finite(doc["params"]):
            raise ValueError("null, NaN or infinity in the state")
        return cls.from_params_dict(doc["params"], tuple(doc["feature_names"]))
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        if str(exc).startswith("malformed model document"):  # a state check's, or a base's
            raise
        raise LearnerError(f"malformed model document: {exc!r}") from exc


def save_model(model: TrainedModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_model(model), fh, sort_keys=True)


def load_model(path) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return deserialize_model(json.load(fh))
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as exc:  # not UTF-8 JSON, or nested too deep to decode
            raise LearnerError(f"not a model document: {exc}") from exc
