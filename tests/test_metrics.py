import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbalkit.metrics import (
    ConfusionMatrix,
    MetricError,
    confusion,
    evaluate,
    iba,
    roc_auc,
    roc_curve,
)


def brute_force_report(cm: ConfusionMatrix, alpha=0.1):
    """Independent recomputation from first principles (no shared helpers)."""
    tp, fp, tn, fn = cm.tp, cm.fp, cm.tn, cm.fn
    total = tp + fp + tn + fn

    def div(a, b):
        return a / b if b else 0.0

    acc = (tp + tn) / total
    prec = 0.5 * (div(tp, tp + fp) + div(tn, tn + fn))
    rec = 0.5 * (div(tp, tp + fn) + div(tn, tn + fp))
    f1 = div(2 * prec * rec, prec + rec)
    sens = div(tp, tp + fn)
    spec = div(tn, tn + fp)
    gm = math.sqrt(sens * spec)
    bal = (1 + alpha * (sens - spec)) * sens * spec
    return acc, prec, rec, f1, spec, gm, bal


class TestConfusion:
    def test_counts(self):
        y = [1, 1, 0, 0, 1, 0]
        p = [1, 0, 0, 1, 1, 0]
        cm = confusion(y, p)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)
        assert cm.total == 6

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            confusion([1, 0], [1])

    def test_empty(self):
        with pytest.raises(MetricError):
            confusion([], [])


class TestEvaluate:
    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            tp, fp, tn, fn = rng.integers(0, 50, size=4)
            # need both classes present
            if tp + fn == 0 or tn + fp == 0:
                continue
            y = np.r_[np.ones(tp + fn, int), np.zeros(tn + fp, int)]
            probs = np.r_[
                np.full(tp, 0.9), np.full(fn, 0.1),  # positives
                np.full(fp, 0.9), np.full(tn, 0.1),  # negatives
            ]
            rep = evaluate(probs, y)
            acc, prec, rec, f1, spec, gm, bal = brute_force_report(rep.confusion)
            assert rep.accuracy == pytest.approx(acc, abs=1e-12)
            assert rep.macro_precision == pytest.approx(prec, abs=1e-12)
            assert rep.macro_recall == pytest.approx(rec, abs=1e-12)
            assert rep.macro_f1 == pytest.approx(f1, abs=1e-12)
            assert rep.specificity == pytest.approx(spec, abs=1e-12)
            assert rep.g_mean == pytest.approx(gm, abs=1e-12)
            assert rep.iba == pytest.approx(bal, abs=1e-12)

    def test_perfect_classifier(self):
        y = np.r_[np.ones(5, int), np.zeros(5, int)]
        probs = np.r_[np.full(5, 0.99), np.full(5, 0.01)]
        rep = evaluate(probs, y)
        assert rep.accuracy == 1.0
        assert rep.macro_f1 == 1.0
        assert rep.auc == 1.0
        assert rep.g_mean == 1.0
        assert rep.iba == pytest.approx(1.0)

    def test_mean_of_class_f1_mode(self):
        y = np.array([1, 1, 1, 0, 0, 0, 0, 0])
        probs = np.array([0.9, 0.8, 0.2, 0.7, 0.3, 0.2, 0.1, 0.4])
        a = evaluate(probs, y, macro_f1_mode="harmonic-of-macros")
        b = evaluate(probs, y, macro_f1_mode="mean-of-class-f1")
        cm = a.confusion
        f1_pos = 2 * cm.tp / (2 * cm.tp + cm.fp + cm.fn)
        f1_neg = 2 * cm.tn / (2 * cm.tn + cm.fn + cm.fp)
        assert b.macro_f1 == pytest.approx(0.5 * (f1_pos + f1_neg), abs=1e-12)
        assert a.macro_f1 != b.macro_f1

    def test_probability_range_enforced(self):
        with pytest.raises(MetricError):
            evaluate([1.2, 0.1], [1, 0])

    def test_single_class_labels_rejected(self):
        with pytest.raises(MetricError):
            evaluate([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("metric", [evaluate, roc_auc, roc_curve])
    def test_non_finite_scores_rejected(self, metric, score):
        # a NaN passes the range check and would sort to the top rank
        with pytest.raises(MetricError, match="finite"):
            metric([score, 0.2, 0.9, 0.7], [1, 0, 1, 0])

    def test_to_dict_confusion_keys(self):
        y = np.array([1, 0, 1, 0])
        d = evaluate(np.array([0.9, 0.1, 0.4, 0.6]), y).to_dict()
        assert set(d["confusion"]) == {"tp", "fp", "tn", "fn"}
        assert d["threshold"] == 0.5


class TestAuc:
    def test_pair_counting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(4, 200))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            # coarse grid forces plenty of ties
            probs = rng.integers(0, 8, size=n) / 7.0
            pos = probs[y == 1]
            neg = probs[y == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            oracle = (wins + 0.5 * ties) / (pos.size * neg.size)
            assert roc_auc(probs, y) == pytest.approx(oracle, abs=1e-12)

    def test_reversed_scores_complement(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, size=100)
        y[:2] = [0, 1]
        probs = rng.uniform(size=100)
        assert roc_auc(probs, y) + roc_auc(1 - probs, y) == pytest.approx(1.0, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            roc_auc([0.5, 0.6], [1, 1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_auc_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        probs = rng.uniform(size=30)
        assert 0.0 <= roc_auc(probs, y) <= 1.0


class TestRocCurve:
    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, size=60)
        y[:2] = [0, 1]
        probs = rng.uniform(size=60)
        curve = roc_curve(probs, y)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_trapezoid_matches_rank_auc(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, size=80)
        y[:2] = [0, 1]
        probs = rng.integers(0, 10, size=80) / 9.0
        curve = roc_curve(probs, y)
        area = float(np.trapezoid(curve.tpr, curve.fpr))
        assert area == pytest.approx(roc_auc(probs, y), abs=1e-12)


class TestIba:
    def test_alpha_zero_is_squared_gmean(self):
        assert iba(0.8, 0.6, alpha=0.0) == pytest.approx(0.48)

    def test_dominance_weighting(self):
        # recall above specificity raises the index; below lowers it
        assert iba(0.9, 0.5) > iba(0.5, 0.9)

    def test_spec_default_alpha(self):
        assert iba(1.0, 1.0) == pytest.approx(1.0)
        assert iba(0.9, 0.7, alpha=0.1) == pytest.approx((1 + 0.1 * 0.2) * 0.63)
