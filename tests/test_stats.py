import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbalkit.stats import (
    StatsError,
    bonferroni_adjust,
    chi_square,
    chi_square_association,
    contingency_table,
    cramers_v,
    paired_t_test,
)


class TestContingency:
    def test_counts_and_labels(self):
        a = ["x", "x", "y", "y", "y"]
        b = ["p", "q", "p", "p", "q"]
        t = contingency_table(a, b)
        assert t.row_labels == ("x", "y")
        assert t.col_labels == ("p", "q")
        assert t.counts.tolist() == [[1.0, 1.0], [2.0, 1.0]]

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            contingency_table([], [])

    @pytest.mark.parametrize("a, b", [([1.0, float("nan")], [0, 1]),
                                      (["x", "y"], np.array([0.5, np.nan]))])
    def test_nan_label_rejected(self, a, b):
        with pytest.raises(StatsError, match="NaN"):
            contingency_table(a, b)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_row_by_row_count(self, data):
        labels = st.sampled_from([
            st.text("abcXY_-", max_size=3),
            st.integers(-3, 3),
            st.booleans(),
            st.just("only"),  # a single category
        ])
        n = data.draw(st.integers(1, 60))
        a = data.draw(st.lists(data.draw(labels), min_size=n, max_size=n))
        b = data.draw(st.lists(data.draw(labels), min_size=n, max_size=n))
        t = contingency_table(a, b)
        rows, cols, counts = _reference_table(a, b)
        assert (t.row_labels, t.col_labels) == (rows, cols)
        assert np.array_equal(t.counts, counts) and t.counts.dtype == np.float64


def _reference_table(a, b):
    """Per-row cross-tabulation over the sorted observed values of each column."""
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    rows, cols = sorted(set(a)), sorted(set(b))
    counts = np.zeros((len(rows), len(cols)))
    for x, y in zip(a, b):
        counts[rows.index(x), cols.index(y)] += 1
    return tuple(rows), tuple(cols), counts


class TestChiSquare:
    def test_known_2x2(self):
        # [[10,20],[20,10]] -> chi2 = 20/3, df 1, p ~ 0.009823
        t = contingency_table(
            ["a"] * 30 + ["b"] * 30,
            ["u"] * 10 + ["v"] * 20 + ["u"] * 20 + ["v"] * 10,
        )
        stat, df, p = chi_square(t)
        assert stat == pytest.approx(20.0 / 3.0, abs=1e-12)
        assert df == 1
        assert p == pytest.approx(0.009823, abs=5e-7)

    def test_independent_table_is_zero(self):
        t = contingency_table(
            ["a"] * 20 + ["b"] * 20,
            (["u"] * 10 + ["v"] * 10) * 2,
        )
        stat, df, p = chi_square(t)
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_yates_shrinks_statistic(self):
        t = contingency_table(
            ["a"] * 30 + ["b"] * 30,
            ["u"] * 10 + ["v"] * 20 + ["u"] * 20 + ["v"] * 10,
        )
        plain, _, _ = chi_square(t)
        corrected, _, _ = chi_square(t, yates=True)
        assert corrected < plain

    def test_zero_expected_cell_warns(self):
        from imbalkit.stats import ContingencyTable

        t = ContingencyTable(np.array([[5.0, 0.0], [3.0, 0.0]]), ("a", "b"), ("u", "v"))
        with pytest.warns(UserWarning, match="expected count of zero"):
            chi_square(t)

    def test_association_significance_flag(self):
        rng = np.random.default_rng(0)
        dependent = rng.integers(0, 2, size=400)
        feature = np.where(dependent == 1, "hi", "lo")
        res = chi_square_association(feature, dependent, alpha=0.10)
        assert res.significant and res.p_value < 1e-6
        noise = rng.integers(0, 2, size=400)
        res2 = chi_square_association(np.where(noise == 1, "hi", "lo"), dependent)
        assert res2.alpha == 0.10

    @pytest.mark.parametrize("yates", [False, True])
    def test_association_v_equals_cramers_v(self, yates):
        rng = np.random.default_rng(1)
        a, b = rng.integers(0, 3, size=200), rng.integers(0, 2, size=200)
        res = chi_square_association(a, b, yates=yates, with_cramers_v=True)
        assert res.cramers_v == cramers_v(a, b)

    def test_association_with_cramers(self):
        a = ["x"] * 10 + ["y"] * 10
        b = [1] * 10 + [0] * 10
        res = chi_square_association(a, b, with_cramers_v=True)
        assert res.cramers_v == pytest.approx(1.0)


class TestCramersV:
    def test_perfect_association(self):
        a = ["x"] * 15 + ["y"] * 15
        b = ["p"] * 15 + ["q"] * 15
        assert cramers_v(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_independence_near_zero(self):
        a = (["x"] * 10 + ["y"] * 10) * 2
        b = ["p"] * 20 + ["q"] * 20
        assert cramers_v(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 3, size=200)
        b = rng.integers(0, 4, size=200)
        assert cramers_v(a, b) == pytest.approx(cramers_v(b, a), abs=1e-12)

    def test_single_category_warns_and_returns_zero(self):
        with pytest.warns(UserWarning, match="single category"):
            v = cramers_v(["x"] * 10, ["p"] * 5 + ["q"] * 5)
        assert v == 0.0

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.integers(0, 4, size=60)
            b = rng.integers(0, 3, size=60)
            assert 0.0 <= cramers_v(a, b) <= 1.0


class TestPairedT:
    def test_known_example(self):
        # differences of nine 0.01s and one 0.02 -> t = 11, d = t/sqrt(10)
        a = np.zeros(10)
        b = -np.array([0.01] * 9 + [0.02])
        res = paired_t_test(a, b)
        assert res.t == pytest.approx(11.0, abs=1e-9)
        assert res.df == 9
        assert res.cohens_d == pytest.approx(11.0 / math.sqrt(10), abs=1e-9)
        assert res.mean_difference == pytest.approx(0.011, abs=1e-12)

    def test_d_equals_t_over_sqrt_n(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            res = paired_t_test(a, b)
            assert res.cohens_d == pytest.approx(res.t / math.sqrt(n), abs=1e-12)

    def test_sign_antisymmetry(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        r1 = paired_t_test(a, b)
        r2 = paired_t_test(b, a)
        assert r1.t == pytest.approx(-r2.t, abs=1e-12)
        assert r1.p_value == pytest.approx(r2.p_value, rel=1e-12)

    def test_degenerate_differences_rejected(self):
        with pytest.raises(StatsError, match="degenerate"):
            paired_t_test([1.0, 2.0, 3.0], [0.5, 1.5, 2.5])

    def test_too_short(self):
        with pytest.raises(StatsError):
            paired_t_test([1.0], [2.0])


class TestBonferroni:
    def test_fourteen_comparisons(self):
        assert bonferroni_adjust(0.05, 14) == pytest.approx(0.05 / 14, abs=1e-15)
        assert round(bonferroni_adjust(0.05, 14), 4) == 0.0036

    def test_identity_for_one(self):
        assert bonferroni_adjust(0.05, 1) == 0.05

    def test_domain(self):
        with pytest.raises(StatsError):
            bonferroni_adjust(0.0, 3)
        with pytest.raises(StatsError):
            bonferroni_adjust(0.05, 0)
