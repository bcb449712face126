"""Two-tier stacking: base classifiers under a logistic meta-learner trained
on out-of-fold base probabilities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import EncodedMatrix, smote
from .learners.base import (
    LearnerError,
    ModelSpec,
    TrainedModel,
    child_rng,
    deserialize_model,
    fit_model,
    predict_proba,
    serialize_model,
)
from .validation import SmoteSettings, stratified_folds

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
        if self.meta_spec.algorithm != "logistic":
            raise LearnerError("the meta-learner must be logistic")
        if self.oof_folds < 2:
            raise LearnerError("oof_folds must be >= 2")


class StackedModel(TrainedModel):
    """Meta-learner over the class-1 probabilities of the base models; its
    features are the bases' features."""

    algorithm = "stacking"

    def __init__(self, base_models: list, meta_model: TrainedModel,
                 oof_matrix: np.ndarray, oof_fold_assignment: np.ndarray,
                 base_algorithms: tuple[str, ...]):
        super().__init__(base_models[0].feature_names)
        self.base_models = base_models
        self.meta_model = meta_model
        self.oof_matrix = oof_matrix      # (n_train, n_bases) held-out base probabilities
        self.oof_fold_assignment = oof_fold_assignment  # fold per training row (diagnostic)
        self.base_algorithms = tuple(base_algorithms)

    def predict_proba_values(self, values: np.ndarray) -> np.ndarray:
        base_probs = np.column_stack([predict_proba(m, values) for m in self.base_models])
        return self.meta_model.predict_proba_values(base_probs)

    def params_dict(self) -> dict:
        return {
            "bases": [serialize_model(m) for m in self.base_models],
            "meta": serialize_model(self.meta_model),
            "oof_matrix": self.oof_matrix.tolist(),
            "oof_fold_assignment": self.oof_fold_assignment.tolist(),
        }

    @classmethod
    def from_params_dict(cls, d, feature_names) -> "StackedModel":
        bases = [deserialize_model(b) for b in d["bases"]]
        return cls(bases, deserialize_model(d["meta"]),
                   np.array(d["oof_matrix"], dtype=float),
                   np.array(d["oof_fold_assignment"], dtype=np.int64),
                   tuple(m.algorithm for m in bases))


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
    n = train.n_rows
    assignment = stratified_folds(train.target, spec.oof_folds, spec.seed)
    oof = np.empty((n, len(spec.base_specs)))
    for f in range(spec.oof_folds):
        val_mask = assignment == f
        fold_train = train.take(np.flatnonzero(~val_mask))
        if spec.resampler is not None:
            fold_seed = int(child_rng(spec.seed, 30, f).integers(0, 2**31))
            fold_train = smote(fold_train, k_neighbors=spec.resampler.k_neighbors,
                               seed=fold_seed, rounding=spec.resampler.rounding)
        fold_val = train.take(np.flatnonzero(val_mask))
        for b, base_spec in enumerate(spec.base_specs):
            try:
                model = fit(base_spec, fold_train)
            except Exception as exc:
                raise LearnerError(f"base {b} ({base_spec.algorithm}) failed: {exc}") from exc
            oof[val_mask, b] = predict_proba(model, fold_val)

    meta_train = EncodedMatrix(
        oof, train.target,
        tuple(f"base_{b}_{s.algorithm}" for b, s in enumerate(spec.base_specs)),
        train.row_ids,
    )
    meta_model = fit_model(spec.meta_spec, meta_train)

    full_train = train
    if spec.resampler is not None:
        full_seed = int(child_rng(spec.seed, 31).integers(0, 2**31))
        full_train = smote(full_train, k_neighbors=spec.resampler.k_neighbors,
                           seed=full_seed, rounding=spec.resampler.rounding)
    base_models = []
    for b, base_spec in enumerate(spec.base_specs):
        try:
            base_models.append(fit(base_spec, full_train))
        except Exception as exc:
            raise LearnerError(f"base {b} ({base_spec.algorithm}) failed: {exc}") from exc
    return StackedModel(base_models, meta_model, oof, assignment,
                        tuple(s.algorithm for s in spec.base_specs))


def stack_predict_proba(model: StackedModel, X) -> np.ndarray:
    """Meta-learner applied to the vector of base class-1 probabilities."""
    return predict_proba(model, X)
