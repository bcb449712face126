"""Imbalanced-classification metrics: confusion counts, macro averages, ROC/AUC, G-Mean, IBA."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

__all__ = [
    "ConfusionMatrix",
    "RocCurve",
    "EvaluationReport",
    "MetricError",
    "confusion",
    "evaluate",
    "roc_curve",
    "roc_auc",
    "iba",
]


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray


@dataclass(frozen=True)
class EvaluationReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    auc: float
    specificity: float
    g_mean: float
    iba: float
    confusion: ConfusionMatrix
    threshold: float

    def to_dict(self) -> dict:
        return asdict(self)  # the confusion counts too, as a nested dict


def confusion(labels, predictions) -> ConfusionMatrix:
    """Exact confusion counts with class 1 as the positive class."""
    y = np.asarray(labels)
    p = np.asarray(predictions)
    if y.shape != p.shape:
        raise MetricError("labels and predictions must have equal length")
    if y.size == 0:
        raise MetricError("empty input")
    tp = int(np.sum((y == 1) & (p == 1)))
    fp = int(np.sum((y == 0) & (p == 1)))
    tn = int(np.sum((y == 0) & (p == 0)))
    fn = int(np.sum((y == 1) & (p == 0)))
    return ConfusionMatrix(tp, fp, tn, fn)


def _scores(probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if not np.isfinite(probs).all():
        raise MetricError("scores must be finite")
    return probs


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def iba(recall_pos: float, specificity: float, alpha: float = 0.1) -> float:
    """Index of Balanced Accuracy: dominance-weighted squared G-Mean."""
    return (1.0 + alpha * (recall_pos - specificity)) * (recall_pos * specificity)


def evaluate(probs, labels, threshold: float = 0.5, alpha: float = 0.1,
             macro_f1_mode: str = "harmonic-of-macros") -> EvaluationReport:
    """Full imbalance-aware report at a decision threshold.

    Macro precision/recall average the two per-class values. By default the
    macro F1 is the harmonic mean of those two macro averages;
    macro_f1_mode="mean-of-class-f1" averages per-class F1 scores instead.
    """
    probs = _scores(probs)
    y = np.asarray(labels)
    if probs.shape != y.shape:
        raise MetricError("probs and labels must have equal length")
    if np.any((probs < 0) | (probs > 1)):
        raise MetricError("probabilities must lie in [0, 1]")
    if len(np.unique(y)) < 2:
        raise MetricError("labels contain a single class; AUC undefined")
    preds = (probs >= threshold).astype(int)
    cm = confusion(y, preds)

    acc = (cm.tp + cm.tn) / cm.total
    prec_pos = _safe_div(cm.tp, cm.tp + cm.fp)
    prec_neg = _safe_div(cm.tn, cm.tn + cm.fn)
    rec_pos = _safe_div(cm.tp, cm.tp + cm.fn)
    rec_neg = _safe_div(cm.tn, cm.tn + cm.fp)
    map_ = 0.5 * (prec_pos + prec_neg)
    mar = 0.5 * (rec_pos + rec_neg)
    if macro_f1_mode == "harmonic-of-macros":
        maf1 = _safe_div(2.0 * map_ * mar, map_ + mar)
    elif macro_f1_mode == "mean-of-class-f1":
        f1_pos = _safe_div(2.0 * prec_pos * rec_pos, prec_pos + rec_pos)
        f1_neg = _safe_div(2.0 * prec_neg * rec_neg, prec_neg + rec_neg)
        maf1 = 0.5 * (f1_pos + f1_neg)
    else:
        raise MetricError(f"unknown macro_f1_mode {macro_f1_mode!r}")
    spec = rec_neg
    gm = float(np.sqrt(rec_pos * spec))
    auc = roc_auc(probs, y)
    return EvaluationReport(
        accuracy=acc, macro_precision=map_, macro_recall=mar, macro_f1=maf1,
        auc=auc, specificity=spec, g_mean=gm, iba=iba(rec_pos, spec, alpha),
        confusion=cm, threshold=threshold,
    )


def roc_curve(probs, labels) -> RocCurve:
    """ROC points from (0,0) to (1,1), one step per distinct score."""
    probs = _scores(probs)
    y = np.asarray(labels)
    if len(np.unique(y)) < 2:
        raise MetricError("labels contain a single class")
    order = np.argsort(-probs, kind="stable")
    y_sorted = y[order]
    p_sorted = probs[order]
    tps = np.cumsum(y_sorted == 1)
    fps = np.cumsum(y_sorted == 0)
    # collapse ties: keep the last index of each distinct score
    distinct = np.flatnonzero(np.diff(p_sorted))
    keep = np.r_[distinct, p_sorted.size - 1]
    tpr = np.r_[0.0, tps[keep] / tps[-1]]
    fpr = np.r_[0.0, fps[keep] / fps[-1]]
    thresholds = np.r_[np.inf, p_sorted[keep]]
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds)


def roc_auc(probs, labels) -> float:
    """Rank-based AUC with midrank tie handling (Mann-Whitney identity)."""
    probs = _scores(probs)
    y = np.asarray(labels)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricError("labels contain a single class; AUC undefined")
    ranks = _midranks(probs)
    rank_sum_pos = float(np.sum(ranks[y == 1]))
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; each run of equal values shares its mean rank."""
    order = np.argsort(x, kind="stable")
    sx = x[order]
    first = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1]])  # each run's first index
    last = np.r_[first[1:], x.size] - 1
    ranks = np.empty(x.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks
