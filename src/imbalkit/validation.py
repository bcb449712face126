"""Leakage-safe stratified cross-validation with optional in-fold resampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, EncodedMatrix, smote
from .learners.base import ModelSpec, child_rng, fit_model, predict_proba
from .metrics import EvaluationReport, evaluate

__all__ = ["SmoteSettings", "CvRun", "stratified_folds", "cross_validate"]


@dataclass(frozen=True)
class SmoteSettings:
    k_neighbors: int = 5
    rounding: str = "continuous"


@dataclass(frozen=True)
class CvRun:
    reports: tuple[EvaluationReport, ...]
    fold_assignment: np.ndarray       # fold index per row
    validation_row_ids: tuple[np.ndarray, ...]
    resampled: bool

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([r.accuracy for r in self.reports])

    def metric(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.reports])


def stratified_folds(target: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold assignment (round-robin within each class)."""
    counts = np.bincount(target, minlength=2)
    if folds < 2:
        raise DataError("need at least 2 folds")
    if folds > counts.min():
        raise DataError(
            f"fold count {folds} exceeds the minority class count {counts.min()}"
        )
    rng = child_rng(seed, 10)
    assignment = np.empty(target.size, dtype=np.int64)
    for cls in (0, 1):
        idx = np.flatnonzero(target == cls)
        perm = rng.permutation(idx)
        assignment[perm] = np.arange(perm.size) % folds
    return assignment


def cross_validate(spec, data: EncodedMatrix, folds: int = 10,
                   resampler: SmoteSettings | None = None, seed: int = 0) -> CvRun:
    """Stratified k-fold evaluation; SMOTE (when enabled) touches only the
    training partition of each fold, so every validation row is original."""
    assignment = stratified_folds(data.target, folds, seed)
    reports = []
    val_ids = []
    for f in range(folds):
        val_mask = assignment == f
        train_part = data.take(np.flatnonzero(~val_mask))
        val_part = data.take(np.flatnonzero(val_mask))
        if resampler is not None:
            fold_seed = int(child_rng(seed, 11, f).integers(0, 2**31))
            train_part = smote(train_part, k_neighbors=resampler.k_neighbors,
                               seed=fold_seed, rounding=resampler.rounding)
        model = _fit_any(spec, train_part)
        probs = _predict_any(spec, model, val_part)
        reports.append(evaluate(probs, val_part.target))
        val_ids.append(val_part.row_ids.copy())
    return CvRun(tuple(reports), assignment, tuple(val_ids),
                 resampled=resampler is not None)


def _fit_any(spec, train: EncodedMatrix):
    if isinstance(spec, ModelSpec):
        return fit_model(spec, train)
    from .stacking import StackingSpec, stack_fit

    if isinstance(spec, StackingSpec):
        return stack_fit(spec, train)
    raise TypeError(f"unsupported spec type {type(spec).__name__}")


def _predict_any(spec, model, X: EncodedMatrix):
    if isinstance(spec, ModelSpec):
        return predict_proba(model, X)
    from .stacking import stack_predict_proba

    return stack_predict_proba(model, X)
