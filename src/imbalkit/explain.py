"""Model-agnostic attributions (Shapley, LIME) and model-specific importances."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .learners.base import TrainedModel, child_rng, predict_proba
from .metrics import roc_auc

__all__ = [
    "Attribution",
    "LimeConfig",
    "SurrogateFit",
    "ImportanceReport",
    "ExplainError",
    "shapley_exact",
    "shapley_sampled",
    "lime_explain",
    "impurity_importance",
    "gbt_importances",
    "permutation_importance",
]

MAX_EXACT_FEATURES = 15


class ExplainError(ValueError):
    pass


@dataclass(frozen=True)
class Attribution:
    values: np.ndarray        # per-feature phi
    base_value: float         # expected prediction over the background
    prediction: float
    method: str


@dataclass(frozen=True)
class SurrogateFit:
    coefficients: np.ndarray
    intercept: float
    weighted_r2: float
    kernel_weights: np.ndarray


@dataclass(frozen=True)
class ImportanceReport:
    scores: np.ndarray        # nonnegative per-feature scores
    method: str
    raw_scores: np.ndarray | None = None

    def normalized(self) -> np.ndarray:
        total = self.scores.sum()
        return self.scores / total if total > 0 else self.scores


# Rows per predict call when coalitions are scored; memory stays at a few such batches.
_COALITION_ROWS = 600


def _coalition_values(predict, x, background, masks):
    """v(S) for each coalition: mean prediction with features outside S
    replaced by background-row values (interventional replacement).

    masks is a (k, d) boolean array, True for the features in S. The hybrids
    of as many coalitions as fit in _COALITION_ROWS rows go to one predict
    call (one coalition per call if the background alone is larger), so
    predict must score each row on its own.
    """
    x = np.asarray(x, dtype=float)
    bg = np.asarray(background, dtype=float)
    n_bg, d = bg.shape
    masks = np.asarray(masks, dtype=bool)
    step = max(1, _COALITION_ROWS // n_bg)
    out = np.empty(len(masks))
    for start in range(0, len(masks), step):
        keep = masks[start:start + step]
        hybrid = np.where(keep[:, None, :], x, bg[None])
        preds = np.asarray(predict(hybrid.reshape(-1, d)), dtype=float)
        out[start:start + len(keep)] = preds.reshape(len(keep), n_bg).mean(axis=1)
    return out


def _instance(x, *widths: int) -> np.ndarray:
    """x as one row of d >= 1 floats, d equal to each width given."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0 or any(w != x.size for w in widths):
        want = f"{', '.join(map(str, widths))} features" if widths else "at least one feature"
        raise ExplainError(f"x must be one row of {want}, not shape {x.shape}")
    return x


def _shapley_inputs(x, background) -> tuple[np.ndarray, np.ndarray]:
    """x as one row of d >= 1 floats, background as n >= 1 rows of d floats."""
    x = _instance(x)
    bg = np.atleast_2d(np.asarray(background, dtype=float))
    if bg.ndim != 2 or bg.shape[0] == 0 or bg.shape[1] != x.size:
        raise ExplainError(f"background must be rows of {x.size} values, not shape {bg.shape}")
    return x, bg


def shapley_exact(predict, x, background, max_features: int = MAX_EXACT_FEATURES
                  ) -> Attribution:
    """Exact Shapley attribution by subset enumeration.

    phi_j averages v(S + j) - v(S) over all subsets S of the other features,
    weighted |S|!(d-|S|-1)!/d!.
    """
    x, bg = _shapley_inputs(x, background)
    d = x.size
    if d > max_features:
        raise ExplainError(
            f"{d} features exceed the exact limit {max_features}; use shapley_sampled"
        )
    masks = np.arange(1 << d)
    member = ((masks[:, None] >> np.arange(d)) & 1).astype(bool)  # bit j: feature j
    v = _coalition_values(predict, x, bg, member)
    fact = [math.factorial(k) for k in range(d + 1)]
    weight = np.array([fact[s] * fact[d - s - 1] / fact[d] for s in range(d)])
    size = member.sum(axis=1)
    phi = np.empty(d)
    for j in range(d):
        without = masks[~member[:, j]]
        terms = weight[size[without]] * (v[without | (1 << j)] - v[without])
        # a sequential sum from 0.0 over ascending masks, as a scalar loop adds
        phi[j] = np.concatenate(([0.0], terms)).cumsum()[-1]
    prediction = float(np.asarray(predict(x[None, :]))[0])
    return Attribution(values=phi, base_value=float(v[0]), prediction=prediction,
                       method="shapley-exact")


def shapley_sampled(predict, x, background, n_permutations: int, seed: int = 0
                    ) -> Attribution:
    """Permutation-sampling Shapley estimator.

    When n_permutations is a multiple of d! (d small), orderings are
    enumerated in full blocks, so complete coverage reproduces the exact
    values; otherwise the remainder is sampled uniformly. The distinct
    coalitions along all permutations are evaluated in one batched pass.
    """
    if n_permutations < 1:
        raise ExplainError("n_permutations must be >= 1")
    x, bg = _shapley_inputs(x, background)
    d = x.size
    rng = child_rng(seed, 40)
    perms = []
    if d <= 7:
        all_perms = list(itertools.permutations(range(d)))
        full, rem = divmod(n_permutations, len(all_perms))
        perms.extend(all_perms * full)
        perms.extend(tuple(rng.permutation(d)) for _ in range(rem))
    else:
        perms.extend(tuple(rng.permutation(d)) for _ in range(n_permutations))
    perms = np.array(perms, dtype=np.intp).reshape(len(perms), d)

    # each permutation's chain of d + 1 coalitions (its first k features, k = 0..d),
    # as rows of the table of distinct coalitions in the order they are first reached
    member = perms.argsort(axis=1)[:, None, :] < np.arange(d + 1)[:, None]
    table, first, row = np.unique(member.reshape(-1, d), axis=0, return_index=True,
                                  return_inverse=True)
    reached = first.argsort()
    chains = reached.argsort()[row].reshape(len(perms), d + 1)
    v = _coalition_values(predict, x, bg, table[reached])

    phi = np.zeros(d)
    np.add.at(phi, perms, np.diff(v[chains], axis=1))  # each feature's terms in permutation order
    phi /= len(perms)
    prediction = float(np.asarray(predict(x[None, :]))[0])
    return Attribution(values=phi, base_value=float(v[0]), prediction=prediction,
                       method="shapley-sampled")


@dataclass(frozen=True)
class LimeConfig:
    sigma: float
    n_samples: int
    ridge: float = 1e-3
    column_kinds: tuple[str, ...] = ()        # "continuous" or "categorical" per column
    column_stds: np.ndarray | None = None
    # per categorical column index: (codes, probabilities)
    categorical_marginals: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.sigma <= 0:
            raise ExplainError("sigma must be positive")
        if self.ridge < 0:
            raise ExplainError("ridge must be >= 0")
        stds = 0 if self.column_stds is None else len(self.column_stds)
        if stds and len(self.column_kinds) and stds != len(self.column_kinds):
            raise ExplainError(f"column_stds has {stds} columns and column_kinds "
                               f"{len(self.column_kinds)}; both must have one per column")

    @classmethod
    def from_training(cls, X, column_kinds=None, n_samples: int = 1000,
                      sigma: float | None = None, ridge: float = 1e-3) -> "LimeConfig":
        X = np.asarray(X, dtype=float)
        d = X.shape[1]
        kinds = tuple(column_kinds) if column_kinds else ("continuous",) * d
        if sigma is None:
            sigma = 0.75 * math.sqrt(d)
        stds = X.std(axis=0)
        marginals = {}
        for j, kind in enumerate(kinds):
            if kind == "categorical":
                codes, counts = np.unique(X[:, j], return_counts=True)
                marginals[j] = (codes, counts / counts.sum())
        if n_samples < d + 1:
            raise ExplainError("n_samples must be at least d + 1")
        return cls(sigma=sigma, n_samples=n_samples, ridge=ridge, column_kinds=kinds,
                   column_stds=stds, categorical_marginals=marginals)


def lime_explain(predict, x, config: LimeConfig, seed: int = 0) -> SurrogateFit:
    """Weighted-ridge local surrogate around one instance.

    Perturbations: Gaussian noise scaled by training std for continuous
    columns, marginal resampling for categorical ones. Kernel weights are
    exp(-||z - x||^2 / sigma^2) on standardized columns.
    """
    known = (config.column_stds, config.column_kinds)  # of one width, as LimeConfig checks
    x = _instance(x, *{len(k) for k in known if k is not None and len(k)})
    d = x.size
    rng = child_rng(seed, 41)
    stds = config.column_stds if config.column_stds is not None else np.ones(d)
    stds = np.where(stds > 0, stds, 1.0)
    kinds = config.column_kinds or ("continuous",) * d

    Z = np.tile(x, (config.n_samples, 1))
    for j, kind in enumerate(kinds):
        if kind == "categorical" and j in config.categorical_marginals:
            codes, probs = config.categorical_marginals[j]
            Z[:, j] = rng.choice(codes, size=config.n_samples, p=probs)
        else:
            Z[:, j] = x[j] + rng.standard_normal(config.n_samples) * stds[j]
    Z[0] = x  # anchor the instance itself

    dist2 = np.sum(((Z - x) / stds) ** 2, axis=1)
    w = np.exp(-dist2 / (config.sigma ** 2))
    y = np.asarray(predict(Z), dtype=float)

    try:
        coef, intercept = _weighted_ridge(Z, y, w, config.ridge)
    except np.linalg.LinAlgError as exc:  # only at ridge 0: row 0 makes a ridge > 0 definite
        raise ExplainError(f"singular LIME design at ridge {config.ridge}: {exc}") from exc

    y_hat = Z @ coef + intercept
    y_bar = np.sum(w * y) / np.sum(w)
    ss_res = np.sum(w * (y - y_hat) ** 2)
    ss_tot = np.sum(w * (y - y_bar) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
    return SurrogateFit(coefficients=coef, intercept=float(intercept),
                        weighted_r2=float(r2), kernel_weights=w)


def _weighted_ridge(Z, y, w, lam):
    n, d = Z.shape
    A = np.column_stack([Z, np.ones(n)])
    WA = A * w[:, None]
    gram = A.T @ WA
    reg = np.eye(d + 1) * lam
    reg[d, d] = 0.0  # intercept unpenalized
    beta = np.linalg.solve(gram + reg, A.T @ (w * y))
    return beta[:d], beta[d]


def impurity_importance(model: TrainedModel) -> ImportanceReport:
    """Total sample-weighted impurity decrease per feature, summed over trees:
    n * impurity of each split node less that of its two children, added in
    preorder, tree by tree."""
    if model.algorithm != "random-forest":
        raise ExplainError("impurity importance requires a random-forest model")
    (feature, _, children, _, n, impurity), _, _ = model._flat
    weighted = n * impurity
    split = (children[1::2] != np.arange(feature.size)).nonzero()[0]  # a leaf steps to itself
    decrease = weighted[split] - weighted[children[2 * split + 1]] - weighted[children[2 * split]]
    scores = np.zeros(len(model.feature_names))
    np.add.at(scores, feature[split], decrease)  # in index order, so in preorder
    return ImportanceReport(scores=np.maximum(scores, 0.0), method="impurity")


def gbt_importances(model: TrainedModel) -> tuple[ImportanceReport, ImportanceReport,
                                                  ImportanceReport]:
    """(split-count, total-gain, per-iteration mean loss reduction) reports."""
    if model.algorithm != "gbt":
        raise ExplainError("gbt importances require a gbt model")
    d = len(model.feature_names)
    _, feature, gain = np.array(model.split_records, dtype=float).reshape(-1, 3).T
    feature = feature.astype(np.intp)
    counts = np.bincount(feature, minlength=d).astype(float)
    gains = np.bincount(feature, weights=gain, minlength=d).astype(float)  # in record order
    n_iter = max(len(model.trees), 1)
    loss_reduction = gains / n_iter
    return (
        ImportanceReport(scores=counts, method="split-count"),
        ImportanceReport(scores=gains, method="gain"),
        ImportanceReport(scores=loss_reduction, method="loss-reduction"),
    )


def permutation_importance(model: TrainedModel, data, metric: str = "accuracy",
                           n_repeats: int = 5, seed: int = 0,
                           predict=None) -> ImportanceReport:
    """Baseline-metric drop after shuffling each column, averaged over repeats.

    Negative raw drops are clamped to 0 in `scores`; raw values are retained.
    """
    values = data.values
    y = data.target

    def score(vals):
        probs = predict(vals) if predict is not None else predict_proba(model, vals)
        if metric == "accuracy":
            return float(np.mean((probs >= 0.5).astype(int) == y))
        if metric == "auc":
            return roc_auc(probs, y)
        raise ExplainError(f"unknown metric {metric!r}")

    baseline = score(values)
    d = values.shape[1]
    raw = np.zeros(d)
    for j in range(d):
        drops = []
        for r in range(n_repeats):
            rng = child_rng(seed, 42, j, r)
            shuffled = values.copy()
            shuffled[:, j] = rng.permutation(shuffled[:, j])
            drops.append(baseline - score(shuffled))
        raw[j] = float(np.mean(drops))
    return ImportanceReport(scores=np.maximum(raw, 0.0), method="permutation",
                            raw_scores=raw)
