"""Two-tier stacking: base classifiers under a logistic meta-learner trained
on out-of-fold base probabilities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import EncodedMatrix, SmoteSettings
from .learners.base import (
    LearnerError,
    ModelSpec,
    TrainedModel,
    child_rng,
    deserialize_model,
    fit_model,
    predict_proba,
)
from .validation import fold_partitions, stratified_folds

__all__ = ["StackingSpec", "StackedModel", "stack_fit", "stack_predict_proba"]


@dataclass(frozen=True)
class StackingSpec:
    base_specs: tuple[ModelSpec, ...]
    meta_spec: ModelSpec = field(default_factory=lambda: ModelSpec("logistic"))
    oof_folds: int = 5
    seed: int = 0
    resampler: SmoteSettings | None = None

    def __post_init__(self):
        object.__setattr__(self, "base_specs", tuple(self.base_specs))
        if len(self.base_specs) < 1:
            raise LearnerError("need at least one base spec")
        if not all(isinstance(b, ModelSpec) for b in self.base_specs):
            raise LearnerError("every base must be a ModelSpec; a stack is not a base")
        if self.meta_spec.algorithm != "logistic":
            raise LearnerError("the meta-learner must be logistic")
        if self.oof_folds < 2:
            raise LearnerError("oof_folds must be >= 2")


class StackedModel(TrainedModel):
    """Meta-learner over the class-1 probabilities of the base models; its
    features are the bases' features. bases and meta may be fitted models or
    their documents."""

    algorithm = "stacking"
    state = ("bases", "meta", "oof_matrix", "oof_fold_assignment")

    def __init__(self, bases, meta, oof_matrix, oof_fold_assignment, feature_names):
        super().__init__(feature_names)
        self.bases = [b if isinstance(b, TrainedModel) else deserialize_model(b) for b in bases]
        self.meta = meta if isinstance(meta, TrainedModel) else deserialize_model(meta)
        widths = [len(self.feature_names)] * len(self.bases) + [len(self.bases)]
        if [len(m.feature_names) for m in (*self.bases, self.meta)] != widths:
            raise ValueError("the bases do not take the stack's features or the meta its inputs")
        # (n_train, n_bases) held-out base probabilities, and each row's fold (diagnostic)
        self.oof_matrix = np.asarray(oof_matrix, dtype=float).reshape(-1, len(self.bases))
        self.oof_fold_assignment = np.asarray(oof_fold_assignment, dtype=np.int64).reshape(
            len(self.oof_matrix))

    base_algorithms = property(lambda self: tuple(m.algorithm for m in self.bases))

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        base_probs = np.column_stack([predict_proba(m, values) for m in self.bases])
        return self.meta.predict_proba_values(base_probs)


def stack_fit(spec: StackingSpec, train: EncodedMatrix,
              base_fit=None) -> StackedModel:
    """Fit bases and meta-learner with out-of-fold meta features; this is
    what fit_model(spec, train) runs for a StackingSpec.

    Every row's meta feature comes from a fold model that never saw that row;
    resampling, when configured, is applied inside each fold-training
    partition only. Bases are refit on the full training set for inference.

    base_fit(spec, matrix) -> model overrides base training (test hook).
    """
    fit = base_fit or fit_model

    def fit_base(b: int, matrix: EncodedMatrix) -> TrainedModel:
        try:
            return fit(spec.base_specs[b], matrix)
        except Exception as exc:
            raise LearnerError(f"base {b} ({spec.base_specs[b].algorithm}) failed: {exc}") from exc

    bases = range(len(spec.base_specs))
    assignment = stratified_folds(train.target, spec.oof_folds, spec.seed)
    oof = np.empty((train.n_rows, len(bases)))
    for held_out, fold_train, fold_val in fold_partitions(train, assignment, spec.resampler,
                                                          spec.seed, 30):
        for b in bases:
            oof[held_out, b] = predict_proba(fit_base(b, fold_train), fold_val)

    meta_train = EncodedMatrix(
        oof, train.target,
        tuple(f"base_{b}_{s.algorithm}" for b, s in enumerate(spec.base_specs)),
        train.row_ids,
    )
    meta = fit_model(spec.meta_spec, meta_train)

    full_train = train if spec.resampler is None else spec.resampler.apply(
        train, int(child_rng(spec.seed, 31).integers(0, 2**31)))
    return StackedModel([fit_base(b, full_train) for b in bases], meta, oof, assignment,
                        train.column_names)


def stack_predict_proba(model: StackedModel, X) -> np.ndarray:
    """Meta-learner applied to the vector of base class-1 probabilities."""
    return predict_proba(model, X)
