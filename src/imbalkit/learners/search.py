"""Randomized hyperparameter search scored by stratified k-fold accuracy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..data import EncodedMatrix
from .base import LearnerError, ModelSpec, child_rng

__all__ = ["SearchSpace", "CandidateScore", "check_space", "sample_spec", "tune_random_search"]

# a search space maps hyperparameter name -> one of
#   list of values                    (uniform choice)
#   ("uniform", lo, hi)               (float)
#   ("loguniform", lo, hi)            (float, log scale)
#   ("randint", lo, hi)               (integer, hi exclusive)
SearchSpace = dict
_DISTRIBUTIONS = ("uniform", "loguniform", "randint")


def _is_distribution(dist) -> bool:
    return isinstance(dist, (list, tuple)) and bool(dist) and dist[0] in _DISTRIBUTIONS


@dataclass(frozen=True)
class CandidateScore:
    spec: ModelSpec
    mean_accuracy: float
    fold_accuracies: tuple[float, ...]


def check_space(space: SearchSpace) -> None:
    """Every distribution needs finite bounds lo < hi: integers for randint,
    lo > 0 for loguniform."""
    for key, dist in space.items():
        if not _is_distribution(dist):
            continue
        kind, *bounds = dist
        number = int if kind == "randint" else (int, float)
        if not (len(bounds) == 2
                and all(isinstance(b, number) and not isinstance(b, bool) and math.isfinite(b)
                        for b in bounds)
                and bounds[0] < bounds[1] and (kind != "loguniform" or bounds[0] > 0)):
            raise LearnerError(f"{key!r}: {list(dist)!r} is not [kind, lo, hi] with finite "
                               "lo < hi (integers for randint, lo > 0 for loguniform)")


def sample_spec(spec: ModelSpec, space: SearchSpace, rng) -> ModelSpec:
    """spec with the hyperparameters in space drawn from their distributions."""
    hyper = {}
    for key, dist in space.items():
        if _is_distribution(dist):
            kind, lo, hi = dist
            if kind == "uniform":
                hyper[key] = float(rng.uniform(lo, hi))
            elif kind == "loguniform":
                hyper[key] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            else:
                hyper[key] = int(rng.integers(lo, hi))
        elif isinstance(dist, (list, tuple)):
            hyper[key] = dist[int(rng.integers(0, len(dist)))]
        else:
            hyper[key] = dist
    return spec.replace(**hyper)


def tune_random_search(spec: ModelSpec | str, space: SearchSpace, train: EncodedMatrix,
                       n_iter: int = 10, folds: int = 10, seed: int = 0,
                       resampler=None) -> tuple[ModelSpec, list[CandidateScore]]:
    """Sample n_iter specs from spec (a name means ModelSpec(name, seed=seed)),
    score each by mean stratified k-fold accuracy (resampling only inside
    fold-training partitions), return the argmax; ties go to the earliest."""
    from ..validation import cross_validate

    if not space:
        raise LearnerError("empty search space")
    check_space(space)
    if isinstance(spec, str):
        spec = ModelSpec(spec, seed=seed)
    rng = child_rng(seed, 20)
    scores: list[CandidateScore] = []
    best = None
    for i in range(n_iter):
        candidate = sample_spec(spec, space, rng)
        acc = cross_validate(candidate, train, folds=folds, resampler=resampler,
                             seed=int(child_rng(seed, 21).integers(0, 2**31))).accuracies
        score = CandidateScore(candidate, float(acc.mean()), tuple(float(a) for a in acc))
        scores.append(score)
        if best is None or score.mean_accuracy > best.mean_accuracy:
            best = score
    return best.spec, scores
