"""Leakage-safe stratified cross-validation with optional in-fold resampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, EncodedMatrix, smote
from .learners.base import child_rng, fit_model, map_ordered, predict_proba
from .metrics import EvaluationReport, evaluate

__all__ = ["SmoteSettings", "CvRun", "check_fold_count", "stratified_folds",
           "fold_partitions", "cross_validate", "cross_validate_many"]


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


def _fold_report(unit):
    """The report of one (spec, fold) unit, or the exception its fit, predict
    or evaluation raised: one spec's failure must not stop the others' units."""
    spec, (_, train_part, val_part) = unit
    try:
        return evaluate(predict_proba(fit_model(spec, train_part), val_part), val_part.target)
    except Exception as exc:
        return exc


def cross_validate_many(specs, data: EncodedMatrix, folds: int = 10,
                        resampler: SmoteSettings | None = None, seed: int = 0) -> list:
    """One CvRun per spec (a ModelSpec or StackingSpec), or the exception that
    stopped it: its first failing fold's, in fold order. Every spec sees the
    same stratified folds, and each fold's training partition is SMOTEd once
    (when enabled) and shared, so every validation row is original. All
    (spec, fold) units fit, predict and evaluate through map_ordered."""
    try:
        assignment = stratified_folds(data.target, folds, seed)
        parts = list(fold_partitions(data, assignment, resampler, seed, 11))
    except Exception as exc:  # no fold exists, so every spec stops here
        return [exc] * len(specs)
    results = map_ordered(_fold_report, [(spec, part) for spec in specs for part in parts])
    val_ids = tuple(val_part.row_ids.copy() for _, _, val_part in parts)
    runs = []
    for start in range(0, len(results), len(parts)):
        reports = tuple(results[start:start + len(parts)])
        failure = next((r for r in reports if isinstance(r, Exception)), None)
        runs.append(failure if failure is not None else
                    CvRun(reports, assignment, val_ids, resampled=resampler is not None))
    return runs


def cross_validate(spec, data: EncodedMatrix, folds: int = 10,
                   resampler: SmoteSettings | None = None, seed: int = 0) -> CvRun:
    """cross_validate_many for one spec; raises the exception that stopped it."""
    run, = cross_validate_many((spec,), data, folds, resampler, seed)
    if isinstance(run, Exception):
        raise run
    return run
