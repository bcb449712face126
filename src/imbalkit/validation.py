"""Leakage-safe stratified cross-validation with optional in-fold resampling."""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from .data import DataError, EncodedMatrix, SmoteSettings, smote_classes
from .learners.base import (
    LearnerError,
    ModelSpec,
    child_rng,
    fit_cost,
    fit_model,
    map_ordered,
    predict_proba,
)
from .metrics import EvaluationReport, evaluate

__all__ = ["SmoteSettings", "CvRun", "check_fold_counts", "training_rows", "stratified_folds",
           "fold_partitions", "cross_validate", "cross_validate_many"]


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


def check_fold_counts(specs, data: EncodedMatrix, folds: int | None, seed: int,
                      resampler: SmoteSettings | None = None) -> None:
    """Raise DataError, before any fit, for a fold count above the minority
    class count of the raw rows it splits, or a training partition SMOTE will
    resample but cannot. It checks folds, a cross-validation of specs over
    data with this seed whose training partitions resampler resamples (folds
    None: each spec fits all of data), and each stack's oof_folds over every
    training set the stack will be fit on, resampled by its own resampler."""

    def training_partitions(target, folds, seed, resampler):
        assignment = stratified_folds(target, folds, seed)
        parts = [target[assignment != f] for f in range(folds)]
        for part in parts if resampler is not None else ():
            smote_classes(part)
        return parts

    training = [data.target]
    if folds is not None and specs:
        training = training_partitions(data.target, folds, seed, resampler)
    for spec in specs:
        for target in () if isinstance(spec, ModelSpec) else training:
            training_partitions(target, spec.oof_folds, spec.seed, spec.resampler)


def training_rows(spec, raw: EncodedMatrix, resampled: EncodedMatrix) -> EncodedMatrix:
    """A stack SMOTEs inside its own out-of-fold partitions, so it trains on
    the raw rows; every other spec trains on the resampled rows."""
    return resampled if isinstance(spec, ModelSpec) else raw


def stratified_folds(target: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold assignment (round-robin within each
    class); every fold needs a row of each class."""
    counts = np.bincount(target, minlength=2)
    if folds < 2:
        raise DataError("need at least 2 folds")
    if folds > counts.min():
        raise DataError(f"fold count {folds} exceeds the minority class count {counts.min()}")
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
    or evaluation raised: one spec's failure must not stop the others' units.
    The unit may run in a worker, so an exception that does not survive
    pickling comes back as a LearnerError with its message, in every process."""
    spec, data, (held_out, train_part, val_part) = unit
    try:
        train_part = training_rows(spec, data.take(np.flatnonzero(~held_out)), train_part)
        return evaluate(predict_proba(fit_model(spec, train_part), val_part), val_part.target)
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            return LearnerError(str(exc))
        return exc


def cross_validate_many(specs, data: EncodedMatrix, folds: int = 10,
                        resampler: SmoteSettings | None = None, seed: int = 0) -> list:
    """One CvRun per spec (a ModelSpec or StackingSpec), or the exception that
    stopped it: its first failing fold's, in fold order. Every spec sees the
    same stratified folds, so every validation row is original; each fold's
    training partition is SMOTEd once (when enabled) and shared, and a spec
    trains on the partition training_rows picks. All (spec, fold) units fit,
    predict and evaluate through map_ordered, costliest first by fit_cost."""
    try:
        assignment = stratified_folds(data.target, folds, seed)
        parts = list(fold_partitions(data, assignment, resampler, seed, 11))
    except Exception as exc:  # no fold exists, so every spec stops here
        return [exc] * len(specs)
    units = [(spec, data, part) for spec in specs for part in parts]
    results = map_ordered(_fold_report, units, [fit_cost(spec) for spec, _, _ in units])
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
