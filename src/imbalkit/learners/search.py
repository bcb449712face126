"""Randomized hyperparameter search scored by stratified k-fold accuracy."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from ..data import EncodedMatrix
from ..validation import cross_validate_many
from .base import LearnerError, ModelSpec, check_value, child_rng, hyperparameter_rules

__all__ = ["SearchSpace", "CandidateScore", "check_space", "sample_spec", "tune_random_search"]

# a search space maps hyperparameter name -> one of
#   non-empty list of values          (uniform choice)
#   ("uniform", lo, hi)               (float)
#   ("loguniform", lo, hi)            (float, log scale)
#   ("randint", lo, hi)               (integer, hi exclusive)
#   any other value                   (fixed)
# a distribution only for a numeric hyperparameter: knn's
# ["uniform", "distance"] is a list of choices
SearchSpace = dict
_DISTRIBUTIONS = ("uniform", "loguniform", "randint")


def _is_distribution(dist, rule) -> bool:
    return (rule.kind is not None and isinstance(dist, (list, tuple)) and bool(dist)
            and dist[0] in _DISTRIBUTIONS)


@dataclass(frozen=True)
class CandidateScore:
    spec: ModelSpec
    mean_accuracy: float
    fold_accuracies: tuple[float, ...]


def check_space(algorithm: str, space: SearchSpace) -> None:
    """Every choice, and both ends lo < hi of every distribution, must pass the
    hyperparameter's rule; randint only draws integer hyperparameters, uniform
    and loguniform (lo > 0) only real ones."""
    for key, rule in hyperparameter_rules(algorithm, space).items():
        dist = space[key]
        if not _is_distribution(dist, rule):
            for choice in dist if isinstance(dist, (list, tuple)) and dist else [dist]:
                check_value(rule, choice, f"{algorithm} {key}")
            continue
        kind, *ends = dist
        number = replace(rule, choices=())
        if not (len(ends) == 2 and not number.each and all(map(number.accepts, ends))
                and ends[0] < ends[1]
                and number.kind is (numbers.Integral if kind == "randint" else numbers.Real)
                and (kind != "loguniform" or ends[0] > 0)):
            raise LearnerError(f"{algorithm} {key}: {list(dist)!r} is not [kind, lo, hi] with "
                               f"lo < hi inside {rule} (randint only for integers, uniform "
                               "and loguniform only for reals, lo > 0 for loguniform)")


def sample_spec(spec: ModelSpec, space: SearchSpace, rng) -> ModelSpec:
    """spec with the hyperparameters in space drawn from their distributions."""
    hyper = {}
    for key, rule in hyperparameter_rules(spec.algorithm, space).items():
        dist = space[key]
        if _is_distribution(dist, rule):
            kind, lo, hi = dist
            if kind == "uniform":
                hyper[key] = float(rng.uniform(lo, hi))
            elif kind == "loguniform":
                hyper[key] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            else:
                hyper[key] = int(rng.integers(lo, hi))
        elif isinstance(dist, (list, tuple)) and dist:
            hyper[key] = dist[int(rng.integers(0, len(dist)))]
        else:
            hyper[key] = dist
    return spec.replace(**hyper)


def tune_random_search(spec: ModelSpec | str, space: SearchSpace, train: EncodedMatrix,
                       n_iter: int = 10, folds: int = 10, seed: int = 0,
                       resampler=None) -> tuple[ModelSpec, list[CandidateScore]]:
    """Sample n_iter specs from spec (a name means ModelSpec(name, seed=seed)),
    score each by mean stratified k-fold accuracy (resampling only inside
    fold-training partitions; all candidates share the folds and are scored in
    one cross_validate_many call), return the argmax; ties go to the earliest.
    The first failing candidate's exception is raised."""
    if not space:
        raise LearnerError("empty search space")
    if isinstance(spec, str):
        spec = ModelSpec(spec, seed=seed)
    check_space(spec.algorithm, space)
    rng = child_rng(seed, 20)
    candidates = [sample_spec(spec, space, rng) for _ in range(n_iter)]
    runs = cross_validate_many(candidates, train, folds=folds, resampler=resampler,
                               seed=int(child_rng(seed, 21).integers(0, 2**31)))
    scores: list[CandidateScore] = []
    for candidate, run in zip(candidates, runs):
        if isinstance(run, Exception):
            raise run
        scores.append(CandidateScore(candidate, float(run.accuracies.mean()),
                                     tuple(float(a) for a in run.accuracies)))
    return max(scores, key=lambda score: score.mean_accuracy).spec, scores
