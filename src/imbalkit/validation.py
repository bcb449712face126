"""Leakage-safe stratified cross-validation with optional in-fold resampling."""

from __future__ import annotations

import numbers
import pickle
from dataclasses import dataclass

import numpy as np

from .data import DataError, EncodedMatrix, SmoteSettings, smote_classes
from .learners.base import (
    LearnerError,
    ModelSpec,
    Rule,
    child_rng,
    count,
    fit_cost,
    fit_model,
    map_ordered,
    predict_proba,
)
from .metrics import EvaluationReport, evaluate

__all__ = ["SmoteSettings", "CvRun", "check_fold_counts", "training_rows", "stratified_folds",
           "fold_partitions", "score_many", "cross_validate", "cross_validate_many"]


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
    class count of the raw rows it splits, a training partition SMOTE will
    resample but cannot, or an ordered-target-stats categorical feature index
    of a spec or stack base past data's columns. It checks folds, a
    cross-validation of specs over data with this seed whose training
    partitions resampler resamples (folds None: each spec fits all of data),
    and each stack's oof_folds over every training set the stack will be fit
    on, resampled by its own resampler."""

    def training_partitions(target, folds, seed, resampler):
        assignment = stratified_folds(target, folds, seed)
        parts = [target[assignment != f] for f in range(folds)]
        for part in parts if resampler is not None else ():
            smote_classes(part)
        return parts

    training = [data.target]
    if folds is not None and specs:
        training = training_partitions(data.target, folds, seed, resampler)
    column = Rule(kind=numbers.Integral, high=len(data.column_names) - 1, each=True)
    for spec in specs:
        for model in (spec,) if isinstance(spec, ModelSpec) else spec.base_specs:
            if model.hyperparameters.get("categorical_handling") == "ordered-target-stats":
                column.check(model.hyperparameters["categorical_features"],
                             f"{model.algorithm} categorical_features", DataError)
        for target in () if isinstance(spec, ModelSpec) else training:
            training_partitions(target, spec.oof_folds, spec.seed, spec.resampler)


def training_rows(spec, data: EncodedMatrix, part) -> EncodedMatrix:
    """The rows spec trains on in part, a fold_partitions triple over data: a
    stack SMOTEs inside its own out-of-fold partitions, so it trains on the
    raw rows outside the held-out mask, copied here for it alone; every other
    spec trains on the part's resampled rows."""
    held_out, resampled, _ = part
    return resampled if isinstance(spec, ModelSpec) else data.take(np.flatnonzero(~held_out))


def stratified_folds(target: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold assignment (round-robin within each
    class); every fold needs a row of each class."""
    count(2).check(folds, "folds", DataError)
    counts = np.bincount(target, minlength=2)
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


def _score(unit):
    """(class-1 probabilities, report) of one (spec, data, part) unit: spec
    fitted on the rows training_rows picks, then scored and evaluated on the
    part's scored rows; or the exception its fit, scores or evaluation raised,
    since one spec's failure must not stop the others' units. The unit may run
    in a worker, so an exception that does not survive pickling comes back as
    a LearnerError with its message, in every process."""
    spec, data, part = unit
    scored = part[2]
    try:
        probs = predict_proba(fit_model(spec, training_rows(spec, data, part)), scored)
        return probs, evaluate(probs, scored.target)
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            return LearnerError(str(exc))
        return exc


def score_many(specs, data: EncodedMatrix, parts) -> list:
    """Per spec, in spec order, the (probabilities, report) of each part in
    part order, or the exception of its first failing part. A part is a
    fold_partitions triple over data: held-out mask, resampled training rows,
    scored rows. Every (spec, part) unit fits, scores and evaluates in _score
    through map_ordered, costliest first by fit_cost."""
    units = [(spec, data, part) for spec in specs for part in parts]
    results = map_ordered(_score, units, [fit_cost(spec) for spec, _, _ in units])
    per_spec = (results[start:start + len(parts)] for start in range(0, len(results), len(parts)))
    return [next((r for r in rs if isinstance(r, Exception)), tuple(rs)) for rs in per_spec]


def cross_validate_many(specs, data: EncodedMatrix, folds: int = 10,
                        resampler: SmoteSettings | None = None, seed: int = 0) -> list:
    """One CvRun per spec (a ModelSpec or StackingSpec), or the exception that
    stopped it: its first failing fold's, in fold order. Every spec sees the
    same stratified folds, so every validation row is original; each fold's
    training partition is SMOTEd once (when enabled) and shared, and
    score_many runs every (spec, fold) unit."""
    try:
        assignment = stratified_folds(data.target, folds, seed)
        parts = list(fold_partitions(data, assignment, resampler, seed, 11))
    except Exception as exc:  # no fold exists, so every spec stops here
        return [exc] * len(specs)
    val_ids = tuple(val_part.row_ids.copy() for _, _, val_part in parts)
    return [result if isinstance(result, Exception) else
            CvRun(tuple(report for _, report in result), assignment, val_ids,
                  resampled=resampler is not None)
            for result in score_many(specs, data, parts)]


def cross_validate(spec, data: EncodedMatrix, folds: int = 10,
                   resampler: SmoteSettings | None = None, seed: int = 0) -> CvRun:
    """cross_validate_many for one spec; raises the exception that stopped it."""
    run, = cross_validate_many((spec,), data, folds, resampler, seed)
    if isinstance(run, Exception):
        raise run
    return run
