"""Categorical association tests and cross-validated model comparison statistics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .special import chi2_sf, t_two_tailed

__all__ = [
    "ContingencyTable",
    "AssociationResult",
    "PairedTestResult",
    "StatsError",
    "factorize",
    "cross_tabulate",
    "contingency_table",
    "chi_square",
    "chi_square_association",
    "cramers_v",
    "cramers_v_matrix",
    "paired_t_test",
    "bonferroni_adjust",
]


class StatsError(ValueError):
    pass


@dataclass(frozen=True)
class ContingencyTable:
    counts: np.ndarray  # (r, c) nonnegative
    row_labels: tuple
    col_labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.float64))
        if self.counts.sum() <= 0:
            raise StatsError("contingency table has zero total count")


@dataclass(frozen=True)
class AssociationResult:
    chi2: float
    df: int
    p_value: float
    alpha: float
    significant: bool
    cramers_v: float | None = None


@dataclass(frozen=True)
class PairedTestResult:
    t: float
    df: int
    p_value: float
    cohens_d: float
    mean_difference: float


def factorize(column) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct labels, each entry's index among them): the codes in
    the narrowest unsigned dtype that holds them, so a table's columns can be
    kept factorized at little memory."""
    labels, codes = np.unique(column, return_inverse=True)
    return labels, codes.astype(np.min_scalar_type(max(labels.size - 1, 0)))


def cross_tabulate(rows, cols) -> ContingencyTable:
    """The contingency table of two equal-length columns, each given factorized
    as a (sorted labels, codes) pair."""
    (row_labels, ri), (col_labels, ci) = rows, cols
    shape = (row_labels.size, col_labels.size)
    cells = np.bincount(np.ravel_multi_index((ri, ci), shape), minlength=shape[0] * shape[1])
    return ContingencyTable(cells.reshape(shape),
                            tuple(row_labels.tolist()), tuple(col_labels.tolist()))


def contingency_table(a, b) -> ContingencyTable:
    """Cross-tabulate two equal-length categorical columns.

    Rows and columns cover the observed values of each column, in sorted order.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or a.shape != b.shape:
        raise StatsError("columns must be nonempty and of equal length")
    if any(col.dtype.kind in "fc" and np.isnan(col).any() for col in (a, b)):
        raise StatsError("NaN is not a category label")
    return cross_tabulate(factorize(a.ravel()), factorize(b.ravel()))


def chi_square(table: ContingencyTable, yates: bool = False) -> tuple[float, int, float]:
    """Pearson chi-square statistic, df, and upper-tail p for a contingency table."""
    obs = table.counts
    n = obs.sum()
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / n
    if np.any(expected == 0):
        warnings.warn("expected count of zero in some cells; they are skipped", stacklevel=2)
    mask = expected > 0
    diff = np.abs(obs - expected)
    if yates:
        diff = np.maximum(diff - 0.5, 0.0)
    stat = float(np.sum(diff[mask] ** 2 / expected[mask]))
    df = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    p = chi2_sf(stat, df) if df > 0 else 1.0
    return stat, df, p


def chi_square_association(feature, target, alpha: float = 0.10,
                           yates: bool = False, with_cramers_v: bool = False
                           ) -> AssociationResult:
    """Chi-square independence test of a categorical feature against the binary target."""
    table = contingency_table(feature, target)
    stat, df, p = chi_square(table, yates=yates)
    v = _cramers_v(table) if with_cramers_v else None
    return AssociationResult(chi2=stat, df=df, p_value=p, alpha=alpha,
                             significant=p < alpha, cramers_v=v)


def cramers_v(a, b) -> float:
    """Cramer's V association strength in [0, 1] between two categorical columns."""
    return _cramers_v(contingency_table(a, b))


def cramers_v_matrix(columns) -> np.ndarray:
    """Cramer's V between every two of the factorized columns, (sorted labels,
    codes) pairs: a symmetric matrix with a unit diagonal."""
    k = len(columns)
    V = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            V[i, j] = V[j, i] = _cramers_v(cross_tabulate(columns[i], columns[j]))
    return V


def _cramers_v(table: ContingencyTable) -> float:
    r, c = table.counts.shape
    if min(r, c) < 2:
        warnings.warn("a column has a single category; Cramer's V defined as 0", stacklevel=3)
        return 0.0
    stat, _, _ = chi_square(table)
    n = table.counts.sum()
    v = math.sqrt(stat / (n * (min(r, c) - 1)))
    return min(max(v, 0.0), 1.0)


def paired_t_test(a, b) -> PairedTestResult:
    """Two-tailed paired t-test with Cohen's d for paired samples (d = t / sqrt(n))."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.size < 2:
        raise StatsError("need two equal-length vectors with n >= 2")
    diff = a - b
    n = diff.size
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    if sd == 0.0:
        raise StatsError("degenerate differences: zero variance, t undefined")
    t = mean / (sd / math.sqrt(n))
    d = mean / sd
    return PairedTestResult(t=t, df=n - 1, p_value=t_two_tailed(t, n - 1),
                            cohens_d=d, mean_difference=mean)


def bonferroni_adjust(alpha: float, m: int) -> float:
    """Bonferroni-corrected significance level alpha / m."""
    if not 0.0 < alpha < 1.0:
        raise StatsError("alpha must lie strictly between 0 and 1")
    if m < 1:
        raise StatsError("m must be >= 1")
    return alpha / m
