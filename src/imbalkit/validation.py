"""Leakage-safe stratified cross-validation with optional in-fold resampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, EncodedMatrix, smote
from .learners.base import child_rng, fit_model, predict_proba
from .metrics import EvaluationReport, evaluate

__all__ = ["SmoteSettings", "CvRun", "check_fold_count", "stratified_folds",
           "fold_partitions", "cross_validate"]


@dataclass(frozen=True)
class SmoteSettings:
    k_neighbors: int = 5

    def apply(self, data: EncodedMatrix, seed: int) -> EncodedMatrix:
        """SMOTE with these settings: every resampling path goes through here."""
        return smote(data, k_neighbors=self.k_neighbors, seed=seed)


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


def check_fold_count(target: np.ndarray, folds: int) -> None:
    """Every fold needs a row of each class."""
    counts = np.bincount(target, minlength=2)
    if folds < 2:
        raise DataError("need at least 2 folds")
    if folds > counts.min():
        raise DataError(f"fold count {folds} exceeds the minority class count {counts.min()}")


def stratified_folds(target: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold assignment (round-robin within each class)."""
    check_fold_count(target, folds)
    rng = child_rng(seed, 10)
    assignment = np.empty(target.size, dtype=np.int64)
    for cls in (0, 1):
        idx = np.flatnonzero(target == cls)
        perm = rng.permutation(idx)
        assignment[perm] = np.arange(perm.size) % folds
    return assignment


def fold_partitions(data: EncodedMatrix, assignment, resampler, seed: int, stream: int):
    """(held-out mask, training partition, held-out partition) per fold; SMOTE
    touches only the training partition, seeded by child_rng(seed, stream, fold)."""
    for f in range(int(assignment.max()) + 1):
        held_out = assignment == f
        train_part = data.take(np.flatnonzero(~held_out))
        if resampler is not None:
            train_part = resampler.apply(
                train_part, int(child_rng(seed, stream, f).integers(0, 2**31)))
        yield held_out, train_part, data.take(np.flatnonzero(held_out))


def cross_validate(spec, data: EncodedMatrix, folds: int = 10,
                   resampler: SmoteSettings | None = None, seed: int = 0) -> CvRun:
    """Stratified k-fold evaluation of a ModelSpec or StackingSpec; SMOTE (when
    enabled) touches only the training partition of each fold, so every
    validation row is original."""
    assignment = stratified_folds(data.target, folds, seed)
    reports, val_ids = [], []
    for _, train_part, val_part in fold_partitions(data, assignment, resampler, seed, 11):
        probs = predict_proba(fit_model(spec, train_part), val_part)
        reports.append(evaluate(probs, val_part.target))
        val_ids.append(val_part.row_ids.copy())
    return CvRun(tuple(reports), assignment, tuple(val_ids), resampled=resampler is not None)
