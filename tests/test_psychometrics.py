import numpy as np
import pytest

from imbalkit.psychometrics import (
    PsychometricsError,
    bartlett_sphericity,
    correlation_matrix,
    cronbach_alpha,
    efa_varimax,
    factor_congruence,
    kmo,
    varimax,
)


def three_factor_sample(n=1000, seed=0, p_per=3, noise=0.35):
    """Latent 3-factor data with a known loading structure."""
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((n, 3))
    true = np.zeros((3 * p_per, 3))
    for k in range(3):
        true[k * p_per:(k + 1) * p_per, k] = rng.uniform(0.7, 0.95, size=p_per)
    X = F @ true.T + noise * rng.standard_normal((n, 3 * p_per))
    return X, true


class TestCronbach:
    def test_duplicated_items_give_one(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=(50, 1))
        X = np.hstack([col, col, col])
        assert cronbach_alpha(X).alpha == pytest.approx(1.0, abs=1e-12)

    def test_uncorrelated_equal_variance_items_give_zero(self):
        # alpha = k/(k-1) * (1 - sum(var)/var(total)); with zero covariance the
        # total variance equals the sum of item variances
        X = np.diag([1.0, 1.0, 1.0, 1.0]) * 2.0  # orthogonal columns
        X = np.vstack([X, -X])
        res = cronbach_alpha(X)
        assert res.alpha == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 5))
        res = cronbach_alpha(X)
        k = 5
        expected = k / (k - 1) * (1 - X.var(axis=0, ddof=1).sum()
                                  / X.sum(axis=1).var(ddof=1))
        assert res.alpha == pytest.approx(expected, abs=1e-12)
        assert res.n_items == 5

    def test_shape_errors(self):
        with pytest.raises(PsychometricsError):
            cronbach_alpha(np.ones((10, 1)))
        with pytest.raises(PsychometricsError):
            cronbach_alpha(np.ones((1, 3)))


class TestKmo:
    def test_two_variable_value_is_half(self):
        for r in (0.2, 0.5, 0.505, -0.7, 0.9):
            R = np.array([[1.0, r], [r, 1.0]])
            assert kmo(R) == pytest.approx(0.5, abs=1e-10)

    def test_identity_matrix(self):
        assert kmo(np.eye(4)) == 0.0

    def test_range_on_random_matrices(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            X = rng.normal(size=(60, 5))
            v = kmo(correlation_matrix(X))
            assert 0.0 <= v <= 1.0

    def test_rejects_asymmetric(self):
        with pytest.raises(PsychometricsError):
            kmo(np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestBartlett:
    def test_identity_gives_zero(self):
        chi2, df, p = bartlett_sphericity(np.eye(5), n=100)
        assert chi2 == 0.0
        assert df == 10
        assert p == pytest.approx(1.0)

    def test_closed_form(self):
        r = 0.5
        R = np.array([[1.0, r], [r, 1.0]])
        chi2, df, p = bartlett_sphericity(R, n=99)
        expected = -(99 - 1 - 9 / 6) * np.log(1 - r * r)
        assert chi2 == pytest.approx(expected, abs=1e-10)
        assert df == 1

    def test_needs_enough_rows(self):
        with pytest.raises(PsychometricsError):
            bartlett_sphericity(np.eye(5), n=5)


class TestVarimax:
    def test_rotation_is_orthogonal(self):
        X, _ = three_factor_sample(seed=3)
        L = efa_varimax(X, 3)
        R = L.rotation
        # columns may be reordered/sign-flipped, so check R R^T = I
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-10)

    def test_communalities_preserved(self):
        rng = np.random.default_rng(4)
        L = rng.normal(size=(8, 3))
        rotated, R = varimax(L)
        assert np.allclose(np.sum(rotated ** 2, axis=1),
                           np.sum(L ** 2, axis=1), atol=1e-8)

    def test_criterion_not_decreased(self):
        from imbalkit.psychometrics import _varimax_criterion

        rng = np.random.default_rng(5)
        L = rng.normal(size=(10, 4))
        rotated, _ = varimax(L, kaiser=False)
        assert _varimax_criterion(rotated) >= _varimax_criterion(L) - 1e-12

    def test_stopping_at_the_sweep_cap_raises(self):
        L = np.random.default_rng(6).normal(size=(20, 8))
        varimax(L)  # converges within the default cap
        with pytest.raises(PsychometricsError, match="did not converge in 1 sweeps"):
            varimax(L, max_sweeps=1)

    def test_single_factor_is_identity(self):
        L = np.array([[0.8], [0.7], [0.6]])
        rotated, R = varimax(L)
        assert np.array_equal(rotated, L)
        assert np.array_equal(R, np.eye(1))


class TestEfa:
    def test_recovers_three_factor_structure(self):
        X, true = three_factor_sample(n=1000, seed=6)
        model = efa_varimax(X, 3)
        C = np.abs(factor_congruence(model.loadings, true))
        # each true factor matched by some rotated factor
        assert np.all(C.max(axis=0) >= 0.95)

    def test_factors_ordered_by_explained_variance(self):
        X, _ = three_factor_sample(seed=7)
        model = efa_varimax(X, 3)
        ssq = np.sum(model.loadings ** 2, axis=0)
        assert np.all(np.diff(ssq) <= 1e-10)

    def test_eigenvalues_descending_and_sum_to_p(self):
        X, _ = three_factor_sample(seed=8)
        model = efa_varimax(X, 3)
        assert np.all(np.diff(model.eigenvalues) <= 1e-10)
        assert model.eigenvalues.sum() == pytest.approx(9.0, abs=1e-8)

    def test_communalities_bounded_by_one(self):
        X, _ = three_factor_sample(seed=9)
        model = efa_varimax(X, 3)
        assert np.all(model.communalities <= 1.0 + 1e-8)

    def test_deterministic(self):
        X, _ = three_factor_sample(seed=10)
        a = efa_varimax(X, 3)
        b = efa_varimax(X, 3)
        assert np.array_equal(a.loadings, b.loadings)

    def test_reports_adequacy_statistics(self):
        X, _ = three_factor_sample(seed=11)
        model = efa_varimax(X, 3)
        assert 0.0 <= model.kmo <= 1.0
        assert model.bartlett_chi2 > 0
        assert model.bartlett_p < 1e-6

    def test_bad_factor_count(self):
        X, _ = three_factor_sample(seed=12)
        with pytest.raises(PsychometricsError):
            efa_varimax(X, 0)
        with pytest.raises(PsychometricsError):
            efa_varimax(X, 99)

    def test_constant_column_rejected(self):
        X = np.ones((30, 3))
        with pytest.raises(PsychometricsError):
            efa_varimax(X, 1)


class TestCongruence:
    def test_self_congruence_is_one(self):
        rng = np.random.default_rng(13)
        L = rng.normal(size=(6, 2))
        C = factor_congruence(L, L)
        assert np.allclose(np.diag(C), 1.0, atol=1e-12)

    def test_sign_antisymmetry(self):
        rng = np.random.default_rng(14)
        L = rng.normal(size=(6, 2))
        C = factor_congruence(L, -L)
        assert np.allclose(np.diag(C), -1.0, atol=1e-12)
