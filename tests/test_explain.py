import itertools
import math
import operator

import numpy as np
import pytest

from imbalkit import explain
from imbalkit.data import EncodedMatrix
from imbalkit.explain import (
    ExplainError,
    LimeConfig,
    gbt_importances,
    impurity_importance,
    lime_explain,
    permutation_importance,
    shapley_exact,
    shapley_sampled,
)
from imbalkit.learners.base import ModelSpec, child_rng, fit_model, predict_proba

from conftest import two_class_matrix


def linear_predict(w, b=0.0):
    w = np.asarray(w, dtype=float)

    def predict(X):
        return np.asarray(X, dtype=float) @ w + b

    return predict



def _mask_rows(masks, d: int) -> np.ndarray:
    """Boolean rows of Python-int coalitions (bit j: feature j), so any d fits."""
    return np.array([[mask >> j & 1 for j in range(d)] for mask in masks], dtype=bool)


def _loop_shapley_exact(predict, x, background):
    """phi of the scalar loop over masks and features that shapley_exact's
    array form replaced, on the same coalition values."""
    d = x.size
    masks = range(1 << d)
    v = explain._coalition_values(predict, x, np.atleast_2d(background), _mask_rows(masks, d))
    fact = [math.factorial(k) for k in range(d + 1)]
    phi = np.zeros(d)
    for mask in masks:
        s = bin(mask).count("1")
        for j in range(d):
            if mask >> j & 1:
                continue
            w = fact[s] * fact[d - s - 1] / fact[d]
            phi[j] += w * (v[mask | (1 << j)] - v[mask])
    return phi


class TestShapleyExact:
    def test_additive_model_attributions_are_closed_form(self):
        # for f(x) = w.x + b with background B, phi_j = w_j (x_j - mean(B_j))
        rng = np.random.default_rng(0)
        w = rng.normal(size=5)
        x = rng.normal(size=5)
        bg = rng.normal(size=(40, 5))
        att = shapley_exact(linear_predict(w, 1.0), x, bg)
        np.testing.assert_allclose(att.values, w * (x - bg.mean(axis=0)), atol=1e-9)

    def test_efficiency(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = int(rng.integers(1, 7))
            W = rng.normal(size=(d, d))

            def predict(X):
                X = np.asarray(X, dtype=float)
                return np.sin(X @ W[:, 0]) + (X @ W[:, 1 % d]) ** 2

            x = rng.normal(size=d)
            bg = rng.normal(size=(12, d))
            att = shapley_exact(predict, x, bg)
            assert att.values.sum() == pytest.approx(att.prediction - att.base_value,
                                                     abs=1e-9)

    def test_two_feature_product(self):
        # f(x) = x1 * x2 at x = (1, 1) over a zero background splits evenly
        def predict(X):
            X = np.asarray(X, dtype=float)
            return X[:, 0] * X[:, 1]

        att = shapley_exact(predict, np.array([1.0, 1.0]), np.zeros((1, 2)))
        np.testing.assert_allclose(att.values, [0.5, 0.5], atol=1e-12)

    def test_null_player_gets_zero(self):
        def predict(X):
            return np.asarray(X, dtype=float)[:, 0]

        rng = np.random.default_rng(2)
        att = shapley_exact(predict, rng.normal(size=4), rng.normal(size=(10, 4)))
        np.testing.assert_allclose(att.values[1:], 0.0, atol=1e-12)

    def test_symmetric_players_get_equal_credit(self):
        def predict(X):
            X = np.asarray(X, dtype=float)
            return X[:, 0] + X[:, 1]

        att = shapley_exact(predict, np.array([2.0, 2.0]), np.zeros((1, 2)))
        assert att.values[0] == pytest.approx(att.values[1], abs=1e-12)

    def test_constant_model_all_zero(self):
        att = shapley_exact(lambda X: np.full(len(X), 3.0), np.ones(3), np.zeros((5, 3)))
        np.testing.assert_allclose(att.values, 0.0, atol=1e-12)
        assert att.base_value == pytest.approx(3.0)

    def test_feature_cap(self):
        with pytest.raises(ExplainError, match="exceed"):
            shapley_exact(lambda X: np.zeros(len(X)), np.zeros(16), np.zeros((2, 16)))

    def test_empty_background(self):
        with pytest.raises(ExplainError):
            shapley_exact(lambda X: np.zeros(len(X)), np.zeros(3),
                          np.zeros((0, 3)))

    @pytest.mark.parametrize("algorithm, hyper", [
        ("gbt", {"n_estimators": 20}),
        ("logistic", {}),
        ("knn", {}),
    ])
    def test_matches_the_scalar_loop(self, algorithm, hyper):
        for d in (1, 2, 5, 10):
            m = two_class_matrix(60, 40, d=d, seed=d)
            model = fit_model(ModelSpec(algorithm, hyper), m)
            predict = lambda X, model=model: predict_proba(model, X)
            x, bg = m.values[3], m.values[50:60]
            att = shapley_exact(predict, x, bg)
            assert np.array_equal(att.values, _loop_shapley_exact(predict, x, bg))

    def test_signed_zeros_match_the_scalar_loop(self):
        # every term of feature 0, w * -5e-324 with w < 1, underflows to -0.0;
        # the loop adds them to +0.0
        x, bg = np.array([1.0, 2.0, 3.0]), np.zeros((1, 3))

        def predict(X):
            return np.where(np.asarray(X)[:, 0] == 1.0, -5e-324, 0.0)

        att = shapley_exact(predict, x, bg)
        assert att.values.tobytes() == _loop_shapley_exact(predict, x, bg).tobytes()
        assert not np.signbit(att.values).any()


def _chain_shapley_sampled(predict, x, background, n_permutations, seed=0):
    """shapley_sampled with each permutation's chain of integer coalitions
    numbered through a dict, and phi accumulated one permutation at a time."""
    x = np.asarray(x, dtype=float)
    bg = np.atleast_2d(np.asarray(background, dtype=float))
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
    index = {0: 0}
    chains = [[0] + [index.setdefault(mask, len(index))
                     for mask in itertools.accumulate((1 << j for j in perm), operator.or_)]
              for perm in perms.tolist()]
    v = explain._coalition_values(predict, x, bg, _mask_rows(index, d))
    phi = np.zeros(d)
    for chain, perm in zip(chains, perms):
        phi[perm] += np.diff(v[chain])
    phi /= len(perms)
    prediction = float(np.asarray(predict(x[None, :]))[0])
    return phi, float(v[0]), prediction


class TestShapleySampled:
    @pytest.mark.parametrize("d, n_permutations", [
        (1, 3), (2, 5), (5, 121), (6, 2000), (7, 5041), (9, 40), (22, 30), (40, 12)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_chain_loop(self, d, n_permutations, seed):
        rng = np.random.default_rng(d + 100 * seed)
        w = rng.normal(size=d)

        def predict(X):
            X = np.asarray(X, dtype=float)
            return np.tanh(X @ w) + X[:, 0] * X[:, -1]

        x, bg = rng.normal(size=d), rng.normal(size=(25, d))
        spy, sizes = _call_sizes(predict)
        att = shapley_sampled(spy, x, bg, n_permutations, seed)
        spy, expected_sizes = _call_sizes(predict)
        phi, base, prediction = _chain_shapley_sampled(spy, x, bg, n_permutations, seed)
        assert att.values.tobytes() == phi.tobytes()
        assert (att.base_value, att.prediction) == (base, prediction)
        assert sizes == expected_sizes

    def test_full_permutation_blocks_reproduce_exact(self):
        rng = np.random.default_rng(3)
        d = 4

        def predict(X):
            X = np.asarray(X, dtype=float)
            return np.tanh(X[:, 0] * X[:, 1]) + X[:, 2] ** 2 - 0.3 * X[:, 3]

        x = rng.normal(size=d)
        bg = rng.normal(size=(8, d))
        exact = shapley_exact(predict, x, bg)
        sampled = shapley_sampled(predict, x, bg, n_permutations=24)  # 4! exactly
        np.testing.assert_allclose(sampled.values, exact.values, atol=1e-12)

    def test_sampled_close_to_exact_on_six_features(self):
        rng = np.random.default_rng(4)
        d = 6
        W = rng.normal(size=d)

        def predict(X):
            X = np.asarray(X, dtype=float)
            return np.sin(X @ W) + 0.5 * X[:, 0] * X[:, 1]

        x = rng.normal(size=d)
        bg = rng.normal(size=(10, d))
        exact = shapley_exact(predict, x, bg)
        sampled = shapley_sampled(predict, x, bg, n_permutations=2000, seed=1)
        np.testing.assert_allclose(sampled.values, exact.values, atol=0.02)

    def test_efficiency_holds_for_sampled(self):
        rng = np.random.default_rng(5)
        d = 5

        def predict(X):
            return np.asarray(X, dtype=float).prod(axis=1)

        x = rng.normal(size=d)
        bg = rng.normal(size=(6, d))
        att = shapley_sampled(predict, x, bg, n_permutations=50, seed=2)
        assert att.values.sum() == pytest.approx(att.prediction - att.base_value,
                                                 abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        d = 9  # forces pure sampling

        def predict(X):
            return np.asarray(X, dtype=float).sum(axis=1)

        x = rng.normal(size=d)
        bg = rng.normal(size=(4, d))
        a = shapley_sampled(predict, x, bg, n_permutations=30, seed=3)
        b = shapley_sampled(predict, x, bg, n_permutations=30, seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_needs_positive_permutations(self):
        with pytest.raises(ExplainError):
            shapley_sampled(lambda X: np.zeros(len(X)), np.zeros(3),
                            np.zeros((2, 3)), n_permutations=0)


def _per_mask_coalition_values(predict, x, background, masks):
    """The per-coalition loop the batched engine replaced: one predict call per
    integer mask (bit j set: feature j taken from x)."""
    x = np.asarray(x, dtype=float)
    bg = np.asarray(background, dtype=float)
    n_bg, d = bg.shape
    out = np.empty(len(masks))
    for i, mask in enumerate(masks):
        hybrid = bg.copy()
        idx = [j for j in range(d) if mask >> j & 1]
        if idx:
            hybrid[:, idx] = x[idx]
        out[i] = float(np.mean(predict(hybrid)))
    return out


def _reference_engine(predict, x, background, masks):
    ints = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in masks]
    return _per_mask_coalition_values(predict, x, background, ints)


def _both_engines(monkeypatch, explainer, *args, **kwargs):
    """(batched, per-mask) attributions of one explainer call."""
    batched = explainer(*args, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(explain, "_coalition_values", _reference_engine)
        reference = explainer(*args, **kwargs)
    return batched, reference


def _call_sizes(predict):
    sizes = []

    def spy(X):
        sizes.append(len(X))
        return predict(X)

    return spy, sizes


_EXPLAINERS = [pytest.param(shapley_exact, {}, id="exact"),
               pytest.param(shapley_sampled, {"n_permutations": 4}, id="sampled")]


class TestShapleyInputs:
    @pytest.mark.parametrize("explainer, kwargs", _EXPLAINERS)
    def test_empty_background(self, explainer, kwargs):
        with pytest.raises(ExplainError, match=r"background .* shape \(0, 3\)"):
            explainer(lambda X: np.zeros(len(X)), np.zeros(3), np.zeros((0, 3)), **kwargs)

    @pytest.mark.parametrize("explainer, kwargs", _EXPLAINERS)
    def test_background_of_the_wrong_width(self, explainer, kwargs):
        with pytest.raises(ExplainError, match=r"background .* 3 values, not shape \(3, 2\)"):
            explainer(lambda X: np.zeros(len(X)), np.zeros(3), np.zeros((3, 2)), **kwargs)

    @pytest.mark.parametrize("explainer, kwargs", _EXPLAINERS)
    def test_zero_features(self, explainer, kwargs):
        with pytest.raises(ExplainError, match=r"x must be .* shape \(0,\)"):
            explainer(lambda X: np.zeros(len(X)), np.zeros(0), np.zeros((2, 0)), **kwargs)

    @pytest.mark.parametrize("explainer, kwargs", _EXPLAINERS)
    def test_x_of_more_than_one_row(self, explainer, kwargs):
        with pytest.raises(ExplainError, match=r"x must be .* shape \(2, 3\)"):
            explainer(lambda X: np.zeros(len(X)), np.zeros((2, 3)), np.zeros((2, 3)), **kwargs)

    @pytest.mark.parametrize("explainer, kwargs", _EXPLAINERS)
    def test_one_background_row_may_be_one_dimensional(self, explainer, kwargs):
        predict = lambda X: np.asarray(X) @ np.array([1.0, 2.0])
        flat = explainer(predict, [1.0, 1.0], [0.0, 0.0], **kwargs)
        rows = explainer(predict, np.ones(2), np.zeros((1, 2)), **kwargs)
        np.testing.assert_array_equal(flat.values, rows.values)
        np.testing.assert_array_equal(flat.values, [1.0, 2.0])


class TestCoalitionEngine:
    @pytest.mark.parametrize("algorithm, hyper, tolerance", [
        ("gbt", {"n_estimators": 20}, 0.0),
        ("naive-bayes", {}, 0.0),
        ("knn", {}, 0.0),
        ("random-forest", {"n_estimators": 5}, 0.0),
        # a matrix product's rounding may depend on the number of rows in a
        # call: on 5- to 22-feature problems with OpenBLAS, logistic differed
        # by up to 1.4e-17, svm by 4.2e-17 and mlp by 1.6e-17
        ("mlp", {"hidden_layer_sizes": [16, 8], "max_iterations": 3}, 1e-12),
        ("logistic", {}, 1e-12),
        ("svm", {"max_passes": 1}, 1e-12),
    ])
    def test_batched_equals_per_mask_loop(self, monkeypatch, algorithm, hyper, tolerance):
        calls = []
        for d, explainer, kwargs in [(9, shapley_sampled, {"n_permutations": 12, "seed": 1}),
                                     (5, shapley_sampled, {"n_permutations": 130, "seed": 2}),
                                     (5, shapley_exact, {})]:
            m = two_class_matrix(60, 40, d=d, seed=20)
            model = fit_model(ModelSpec(algorithm, hyper), m)
            predict = lambda X, model=model: predict_proba(model, X)
            # 25 background rows: 24 coalitions per predict call
            calls.append((explainer, (predict, m.values[3], m.values[50:75]), kwargs))
        for explainer, args, kwargs in calls:
            batched, reference = _both_engines(monkeypatch, explainer, *args, **kwargs)
            if tolerance == 0.0:
                np.testing.assert_array_equal(batched.values, reference.values)
                assert batched.base_value == reference.base_value
            else:
                np.testing.assert_allclose(batched.values, reference.values,
                                           rtol=0, atol=tolerance)
                assert abs(batched.base_value - reference.base_value) <= tolerance
            assert batched.prediction == reference.prediction

    def test_no_call_exceeds_the_row_budget(self):
        rng = np.random.default_rng(21)
        d, n_bg = 12, 25
        spy, sizes = _call_sizes(lambda X: np.tanh(np.asarray(X) @ np.arange(d)))
        shapley_sampled(spy, rng.normal(size=d), rng.normal(size=(n_bg, d)),
                        n_permutations=10, seed=0)
        budget = explain._COALITION_ROWS
        assert max(sizes) <= budget
        coalitions = sum(sizes[:-1]) // n_bg  # the last call predicts x alone
        assert coalitions <= 10 * (d - 1) + 2
        assert len(sizes) - 1 == -(-coalitions // (budget // n_bg))

    def test_background_above_the_budget_goes_one_coalition_per_call(self, monkeypatch):
        monkeypatch.setattr(explain, "_COALITION_ROWS", 10)
        rng = np.random.default_rng(22)
        d, n_bg = 4, 13
        x, bg = rng.normal(size=d), rng.normal(size=(n_bg, d))
        predict = lambda X: np.sin(np.asarray(X)).sum(axis=1)
        spy, sizes = _call_sizes(predict)
        shapley_exact(spy, x, bg)
        assert sizes == [n_bg] * (1 << d) + [1]
        batched, reference = _both_engines(monkeypatch, shapley_exact, predict, x, bg)
        np.testing.assert_array_equal(batched.values, reference.values)

    def test_sampled_efficiency_at_seventy_features(self):
        rng = np.random.default_rng(23)
        d = 70  # coalitions past bit 63 must not overflow
        w = rng.normal(size=d)

        def predict(X):
            X = np.asarray(X, dtype=float)
            return np.tanh(X @ w) + X[:, 0] * X[:, 69]

        att = shapley_sampled(predict, rng.normal(size=d), rng.normal(size=(6, d)),
                              n_permutations=4, seed=5)
        assert att.values.sum() == pytest.approx(att.prediction - att.base_value, abs=1e-9)
        assert np.count_nonzero(att.values) == d


class TestLime:
    def test_recovers_linear_coefficients(self):
        rng = np.random.default_rng(7)
        w = np.array([2.0, -1.0, 0.5, 0.0])
        predict = linear_predict(w, 0.3)
        X = rng.normal(size=(300, 4))
        config = LimeConfig.from_training(X, n_samples=600)
        fit = lime_explain(predict, rng.normal(size=4), config, seed=0)
        cos = (fit.coefficients @ w) / (np.linalg.norm(fit.coefficients)
                                        * np.linalg.norm(w))
        assert cos >= 0.999
        assert fit.weighted_r2 >= 0.99

    def test_constant_model_gives_zero_coefficients(self):
        X = np.random.default_rng(8).normal(size=(100, 3))
        config = LimeConfig.from_training(X, n_samples=200)
        fit = lime_explain(lambda Z: np.full(len(Z), 0.7), np.zeros(3), config, seed=0)
        np.testing.assert_allclose(fit.coefficients, 0.0, atol=1e-6)
        assert fit.intercept == pytest.approx(0.7, abs=1e-6)

    def test_kernel_weights_decay_with_distance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 2))
        config = LimeConfig.from_training(X, n_samples=300, sigma=1.0)
        fit = lime_explain(linear_predict([1.0, 1.0]), np.zeros(2), config, seed=1)
        assert fit.kernel_weights[0] == pytest.approx(1.0)  # the anchored instance
        assert np.all(fit.kernel_weights <= 1.0 + 1e-12)
        assert np.all(fit.kernel_weights > 0)

    def test_categorical_perturbations_stay_on_codes(self):
        rng = np.random.default_rng(10)
        cats = rng.integers(0, 4, size=(200, 1)).astype(float)
        cont = rng.normal(size=(200, 1))
        X = np.hstack([cats, cont])
        config = LimeConfig.from_training(X, column_kinds=("categorical", "continuous"),
                                          n_samples=100)
        codes = config.categorical_marginals[0][0]
        assert set(codes.tolist()) <= {0.0, 1.0, 2.0, 3.0}
        probs = config.categorical_marginals[0][1]
        assert probs.sum() == pytest.approx(1.0)

    def test_categorical_columns_sample_only_training_codes(self):
        rng = np.random.default_rng(16)
        X = np.column_stack([rng.choice([1.0, 3.0, 5.0], size=150), rng.normal(size=150),
                             rng.choice([0.0, 2.0], size=150, p=[0.9, 0.1])])
        config = LimeConfig.from_training(
            X, column_kinds=("categorical", "continuous", "categorical"), n_samples=400)
        seen = []
        lime_explain(lambda Z: seen.append(Z.copy()) or Z[:, 1], X[0], config, seed=3)
        (Z,) = seen
        assert np.array_equal(Z[0], X[0])  # the instance itself
        assert set(Z[1:, 0].tolist()) == {1.0, 3.0, 5.0}
        assert set(Z[1:, 2].tolist()) == {0.0, 2.0}
        assert np.unique(Z[1:, 1]).size == 399  # the continuous column is perturbed

    def test_negative_ridge_rejected(self):
        with pytest.raises(ExplainError, match="ridge"):
            LimeConfig(sigma=1.0, n_samples=10, ridge=-1e-3)

    @pytest.mark.parametrize("x", [np.zeros(2), np.zeros(4), np.zeros(0), np.zeros((1, 3))],
                             ids=["short", "long", "empty", "2-d"])
    def test_malformed_instance_rejected(self, x):
        X = np.random.default_rng(18).normal(size=(40, 3))
        calls = []
        for config in (LimeConfig.from_training(X, n_samples=20),
                       LimeConfig(sigma=1.0, n_samples=20, column_kinds=("continuous",) * 3),
                       LimeConfig(sigma=1.0, n_samples=20, column_stds=np.ones(3))):
            with pytest.raises(ExplainError, match=r"x must be one row of 3 features, not shape"):
                lime_explain(lambda Z: calls.append(Z) or Z[:, 0], x, config)
        assert calls == []

    def test_column_information_of_two_widths_rejected(self):
        with pytest.raises(ExplainError, match="column_stds has 3 columns and column_kinds 4"):
            LimeConfig(sigma=1.0, n_samples=20, column_stds=np.ones(3),
                       column_kinds=("continuous",) * 4)

    def test_instance_of_any_width_without_column_information(self):
        config = LimeConfig(sigma=1.0, n_samples=20)
        for d in (1, 5):
            fit = lime_explain(lambda Z: Z[:, 0], np.zeros(d), config)
            assert fit.coefficients.shape == (d,)
        with pytest.raises(ExplainError, match=r"at least one feature, not shape \(0,\)"):
            lime_explain(lambda Z: Z[:, 0], np.zeros(0), config)

    def test_singular_design_at_ridge_zero_raises(self):
        # a categorical column of one code, 0, is a zero column of the design
        X = np.column_stack([np.zeros(50), np.random.default_rng(17).normal(size=50)])
        config = LimeConfig.from_training(X, column_kinds=("categorical", "continuous"),
                                          n_samples=60, ridge=0.0)
        with pytest.raises(ExplainError, match="singular LIME design at ridge 0"):
            lime_explain(linear_predict([0.0, 1.0]), X[0], config, seed=0)
        config = LimeConfig.from_training(X, column_kinds=("categorical", "continuous"),
                                          n_samples=60)
        fit = lime_explain(linear_predict([0.0, 1.0]), X[0], config, seed=0)
        assert fit.coefficients[0] == 0.0 and fit.coefficients[1] == pytest.approx(1.0, rel=1e-3)

    def test_default_sigma_scales_with_dimension(self):
        X = np.random.default_rng(11).normal(size=(50, 16))
        config = LimeConfig.from_training(X)
        assert config.sigma == pytest.approx(0.75 * 4.0)

    def test_sample_budget_validated(self):
        X = np.random.default_rng(12).normal(size=(50, 5))
        with pytest.raises(ExplainError):
            LimeConfig.from_training(X, n_samples=3)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(80, 3))
        config = LimeConfig.from_training(X, n_samples=150)
        predict = linear_predict([1.0, 2.0, 3.0])
        x = rng.normal(size=3)
        a = lime_explain(predict, x, config, seed=5)
        b = lime_explain(predict, x, config, seed=5)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)


class TestNativeImportances:
    def test_impurity_ignores_unused_features(self):
        rng = np.random.default_rng(14)
        signal = rng.integers(0, 2, size=200).astype(float)
        noise = np.zeros((200, 2))  # constant columns can never split
        values = np.column_stack([signal, noise])
        m = EncodedMatrix(values, signal.astype(int), ("s", "n1", "n2"),
                          np.arange(200))
        model = fit_model(ModelSpec("random-forest",
                                    {"n_estimators": 10, "max_features": "all"}), m)
        rep = impurity_importance(model)
        assert rep.scores[0] > 0
        assert rep.scores[1] == 0 and rep.scores[2] == 0
        np.testing.assert_allclose(rep.normalized().sum(), 1.0, atol=1e-12)

    def test_impurity_single_split_hand_value(self):
        # one balanced perfect split: decrease = n * 1 bit
        x = np.r_[np.zeros(10), np.ones(10)]
        m = EncodedMatrix(x[:, None], x.astype(int), ("x",), np.arange(20))
        model = fit_model(ModelSpec("random-forest",
                                    {"n_estimators": 1, "max_features": "all"}), m)
        rep = impurity_importance(model)
        root = model.trees[0]
        expected = (root.n_samples * root.impurity
                    - root.left.n_samples * root.left.impurity
                    - root.right.n_samples * root.right.impurity)
        assert rep.scores[0] == pytest.approx(expected, abs=1e-12)

    def test_impurity_matches_the_recursive_walk(self):
        m = two_class_matrix(120, 60, d=5, seed=18)
        model = fit_model(ModelSpec("random-forest", {"n_estimators": 30, "max_depth": 7},
                                    seed=2), m)
        expected = np.zeros(5)

        def walk(node):  # the per-node walk over TreeNode views it replaced
            if node.is_leaf:
                return
            expected[node.feature] += (node.n_samples * node.impurity
                                       - node.left.n_samples * node.left.impurity
                                       - node.right.n_samples * node.right.impurity)
            walk(node.left)
            walk(node.right)

        for root in model.trees:
            walk(root)
        assert np.array_equal(impurity_importance(model).scores, np.maximum(expected, 0.0))

    def test_impurity_requires_forest(self):
        m = two_class_matrix(20, 20)
        tree = fit_model(ModelSpec("decision-tree"), m)
        with pytest.raises(ExplainError):
            impurity_importance(tree)

    def test_gbt_reports_consistent(self):
        m = two_class_matrix(50, 30, seed=15)
        model = fit_model(ModelSpec("gbt", {"n_estimators": 25}), m)
        counts, gains, reduction = gbt_importances(model)
        assert counts.scores.sum() == len(model.split_records)
        np.testing.assert_allclose(reduction.scores,
                                   gains.scores / len(model.trees), atol=1e-12)
        assert counts.method == "split-count"
        assert gains.method == "gain"

    @pytest.mark.parametrize("n_estimators", [0, 1, 40])
    def test_gbt_scores_match_the_record_loop(self, n_estimators):
        m = two_class_matrix(50, 30, d=4, seed=15)
        model = fit_model(ModelSpec("gbt", {"n_estimators": n_estimators}), m)
        counts, gains = np.zeros(4), np.zeros(4)
        for rec in model.split_records:  # sums in record order
            counts[rec.feature] += 1
            gains[rec.feature] += rec.gain
        reports = gbt_importances(model)
        for report, expected in zip(reports, (counts, gains, gains / max(n_estimators, 1))):
            assert report.scores.dtype == np.float64
            assert report.scores.tobytes() == expected.tobytes()


class TestPermutationImportance:
    def test_informative_feature_scores_highest(self):
        rng = np.random.default_rng(16)
        signal = rng.normal(size=300)
        noise = rng.normal(size=(300, 2))
        y = (signal > 0).astype(int)
        values = np.column_stack([signal, noise])
        m = EncodedMatrix(values, y, ("s", "n1", "n2"), np.arange(300))
        model = fit_model(ModelSpec("naive-bayes"), m)
        rep = permutation_importance(model, m, metric="accuracy", n_repeats=3, seed=0)
        assert rep.scores[0] > rep.scores[1]
        assert rep.scores[0] > rep.scores[2]
        assert np.all(rep.scores >= 0)

    def test_raw_scores_keep_sign(self):
        m = two_class_matrix(40, 40, seed=17)
        model = fit_model(ModelSpec("naive-bayes"), m)
        rep = permutation_importance(model, m, metric="auc", n_repeats=2, seed=1)
        assert rep.raw_scores is not None
        np.testing.assert_array_equal(rep.scores, np.maximum(rep.raw_scores, 0.0))

    def test_deterministic(self):
        m = two_class_matrix(30, 30, seed=18)
        model = fit_model(ModelSpec("naive-bayes"), m)
        a = permutation_importance(model, m, n_repeats=2, seed=4)
        b = permutation_importance(model, m, n_repeats=2, seed=4)
        np.testing.assert_array_equal(a.raw_scores, b.raw_scores)

    def test_unknown_metric(self):
        m = two_class_matrix(20, 20)
        model = fit_model(ModelSpec("naive-bayes"), m)
        with pytest.raises(ExplainError):
            permutation_importance(model, m, metric="f1")

    def test_predict_override_hook(self):
        m = two_class_matrix(20, 20, seed=19)
        rep = permutation_importance(
            None, m, n_repeats=1, seed=0,
            predict=lambda vals: (vals[:, 0] > 0).astype(float),
        )
        assert rep.scores.shape == (3,)
