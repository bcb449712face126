import functools
import gc
import hashlib
import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbalkit import data as data_module
from imbalkit import label_encode, smote, stratified_split
from imbalkit.data import EncodedMatrix
from imbalkit.explain import impurity_importance
from imbalkit.learners import fit_model, predict_proba, tune_random_search
from imbalkit.learners.base import (
    ALGORITHMS,
    HYPERPARAMETERS,
    LearnerError,
    ModelSpec,
    _model_class,
    child_rng,
    deserialize_model,
    load_model,
    save_model,
    serialize_model,
)
from imbalkit.learners import gbt as gbt_module
from imbalkit.learners.gbt import GbtModel, _Grower, ordered_target_statistics
from imbalkit.learners.knn import KnnModel
from imbalkit.learners.linear import LogisticModel, newton_logistic, sigmoid
from imbalkit.learners.mlp import MlpModel, init_layers, mlp_loss_and_grads
from imbalkit.learners import svm as svm_module
from imbalkit.learners.svm import _kernel_matrix, _smo
from imbalkit.learners import tree as tree_module
from imbalkit.learners.tree import (
    TreeNode,
    _entropy_vec,
    best_entropy_split,
    build_tree,
    entropy_impurity,
    flatten_trees,
)
from imbalkit.stacking import StackingSpec
from imbalkit.synth import synthetic_dataset

from conftest import grouping_peak, pinned, tied_grid, two_class_matrix


FAST_HYPERS = {
    "random-forest": {"n_estimators": 20, "max_depth": 8},
    "gbt": {"n_estimators": 30},
    "mlp": {"hidden_layer_sizes": (16, 8), "max_iterations": 60},
    "svm": {"max_passes": 4},
}


def fast_spec(algorithm, seed=0, **extra):
    hyper = dict(FAST_HYPERS.get(algorithm, {}))
    hyper.update(extra)
    return ModelSpec(algorithm, hyper, seed)


_CHOICES = sorted({c for table in HYPERPARAMETERS.values() for _, rule in table.values()
                   for c in rule.choices if isinstance(c, str)})
# JSON values: every kind of scalar, the strings the table accepts, short lists
_JSON_VALUES = (st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.just(0.0)
                | st.sampled_from(_CHOICES) | st.text(max_size=3)
                | st.lists(st.integers(-3, 8) | st.floats() | st.text(max_size=2), max_size=3))


class TestModelSpec:
    @given(st.sampled_from([(a, k) for a in ALGORITHMS for k in HYPERPARAMETERS[a]]),
           _JSON_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_any_value_is_rejected_or_fits(self, algorithm_key, value):
        """A value the table accepts never makes a fit raise anything but
        LearnerError, nor return a probability outside [0, 1]."""
        algorithm, key = algorithm_key
        try:
            spec = fast_spec(algorithm, **{key: value})
        except LearnerError:
            return
        m = two_class_matrix(25, 15, seed=2)
        try:
            probs = predict_proba(fit_model(spec, m), m)
        except LearnerError:
            return
        assert np.all(np.isfinite(probs)) and np.all((probs >= 0) & (probs <= 1))

    def test_unknown_algorithm(self):
        with pytest.raises(LearnerError):
            ModelSpec("xgboost")

    def test_unknown_hyperparameter(self):
        with pytest.raises(LearnerError, match="unknown hyperparameters"):
            ModelSpec("knn", {"kernel": "rbf"})

    def test_defaults_merged(self):
        spec = ModelSpec("logistic", {"C": 0.1})
        assert spec.hyperparameters["C"] == 0.1
        assert spec.hyperparameters["penalty"] == "l2"

    def test_replace(self):
        spec = ModelSpec("knn").replace(n_neighbors=7)
        assert spec.hyperparameters["n_neighbors"] == 7


class TestFitDispatch:
    def test_non_finite_rejected(self):
        m = two_class_matrix(10, 10)
        bad = EncodedMatrix(np.where(np.arange(20)[:, None] == 0, np.nan, m.values),
                            m.target, m.column_names, m.row_ids)
        with pytest.raises(LearnerError, match="non-finite"):
            fit_model(ModelSpec("naive-bayes"), bad)

    def test_single_class_rejected(self):
        m = two_class_matrix(10, 10)
        one = EncodedMatrix(m.values, np.zeros(20, int), m.column_names, m.row_ids)
        with pytest.raises(LearnerError, match="both classes"):
            fit_model(ModelSpec("naive-bayes"), one)

    @pytest.mark.parametrize("algorithm", ["knn", "naive-bayes"])
    def test_fit_info_reports_the_training_rows(self, algorithm):
        model = fit_model(ModelSpec(algorithm), two_class_matrix(15, 12))
        assert model.fit_info == {"training_rows": 27}
        assert deserialize_model(serialize_model(model)).fit_info == {}

    @pytest.mark.parametrize("spec", [
        ModelSpec("gbt", {"n_estimators": 1, "max_depth": 100000, "learning_rate": 1.0}),
        ModelSpec("decision-tree", {"max_depth": 100000}),
    ], ids=lambda spec: spec.algorithm)
    def test_a_tree_too_deep_to_grow_raises_learner_error(self, spec):
        n = 3000  # alternating labels: a chain of splits far past the recursion limit
        m = EncodedMatrix(np.arange(n, dtype=float)[:, None], np.arange(n) % 2, ("x",),
                          np.arange(n))
        with pytest.raises(LearnerError, match=f"{spec.algorithm} max_depth 100000: a tree"):
            fit_model(spec, m)

    @staticmethod
    def _chain(n=3000):
        """x = 0..n-1 with alternating labels: every split peels off about one
        row, so a tree grows as deep as max_depth lets it."""
        return EncodedMatrix(np.arange(n, dtype=float)[:, None], np.arange(n) % 2, ("x",),
                             np.arange(n))

    @staticmethod
    def _deep_spec(algorithm, depth):
        if algorithm == "gbt":
            return ModelSpec("gbt", {"n_estimators": 1, "max_depth": depth, "learning_rate": 1.0})
        return ModelSpec("decision-tree", {"max_depth": depth, "min_samples_split": 2})

    @pytest.mark.parametrize("depth", [450, 600, 700])
    @pytest.mark.parametrize("algorithm", ["gbt", "decision-tree"])
    def test_a_deep_tree_round_trips(self, algorithm, depth):
        """plain, deserialize_model and the tree compiler walk a document with a
        stack, so a tree as deep as fitting allows keeps its document and scores
        through JSON."""
        m = self._chain()
        model = fit_model(self._deep_spec(algorithm, depth), m)
        assert model.fit_info["depth"] == depth
        text = json.dumps(serialize_model(model), sort_keys=True)
        restored = deserialize_model(json.loads(text))
        assert json.dumps(serialize_model(restored), sort_keys=True) == text
        np.testing.assert_array_equal(predict_proba(restored, m), predict_proba(model, m))

    @pytest.mark.parametrize("algorithm", ["gbt", "decision-tree"])
    def test_a_tree_deeper_than_a_document_holds_fails_its_fit(self, algorithm, monkeypatch):
        """Past tree.MAX_TREE_DEPTH, lowered here to 500 so the tree grows well
        within the recursion limit, the fit fails naming max_depth, and a
        document of such a tree is malformed."""
        m = self._chain()
        deep = serialize_model(fit_model(self._deep_spec(algorithm, 600), m))
        monkeypatch.setattr(tree_module, "MAX_TREE_DEPTH", 500)
        with pytest.raises(LearnerError, match=f"{algorithm} max_depth 600: a tree deeper than "
                                               "the 500 levels a model document holds"):
            fit_model(self._deep_spec(algorithm, 600), m)
        with pytest.raises(LearnerError, match="malformed model document: TreeDepthError"):
            deserialize_model(deep)
        assert fit_model(self._deep_spec(algorithm, 500), m).fit_info["depth"] == 500

    def test_dimension_mismatch_on_predict(self):
        m = two_class_matrix(15, 15)
        model = fit_model(ModelSpec("naive-bayes"), m)
        with pytest.raises(LearnerError, match="dimension"):
            predict_proba(model, np.zeros((4, 7)))

    def test_non_finite_scores_raise_on_predict(self):
        m = two_class_matrix(15, 15)
        model = fit_model(ModelSpec("naive-bayes"), m)
        values = m.values.copy()
        values[:, 0] *= 1e160  # squared deviations overflow: both classes score -inf
        with np.errstate(all="ignore"), pytest.raises(
                LearnerError, match="non-finite naive-bayes scores"):
            predict_proba(model, values)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_probabilities_in_unit_interval(self, algorithm):
        m = two_class_matrix(40, 20, seed=1)
        model = fit_model(fast_spec(algorithm), m)
        probs = predict_proba(model, m)
        assert probs.shape == (60,)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_seed_determinism(self, algorithm):
        m = two_class_matrix(30, 20, seed=2)
        p1 = predict_proba(fit_model(fast_spec(algorithm, seed=5), m), m)
        p2 = predict_proba(fit_model(fast_spec(algorithm, seed=5), m), m)
        assert np.array_equal(p1, p2)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fit_and_predict_leave_no_reference_cycle(self, algorithm):
        # a cycle pins the fit's buffers until the cyclic collector runs
        m = two_class_matrix(30, 20, seed=27)
        predict_proba(fit_model(fast_spec(algorithm), m), m)  # warm lazy imports
        gc.collect()
        gc.disable()
        try:
            predict_proba(fit_model(fast_spec(algorithm), m), m)
            assert gc.collect() == 0
        finally:
            gc.enable()


@st.composite
def _logistic_problems(draw):
    """Small problems [X, 1] with hard or soft targets, on a coarse grid so that
    duplicate and constant columns occur; a column of zeros makes H singular
    and gives H_jj = 0 in the L1 sweeps."""
    n, d = draw(st.integers(3, 30)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d))
    X = np.array(cells, dtype=float).reshape(n, d)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = 0.0
    if draw(st.booleans()):
        y = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    else:
        y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    y[0], y[1] = 0.0, 1.0  # both classes, so the unpenalized intercept stays finite
    return np.c_[X, np.ones(n)], y


class TestLogistic:
    def test_response_known_value(self):
        model = LogisticModel(0.0, [math.log(3.0)], "l2", 1.0, ("x",))
        assert predict_proba(model, [[1.0]])[0] == pytest.approx(0.75, abs=1e-12)

    def test_sigmoid_stable_at_extremes(self):
        assert sigmoid(np.array([800.0]))[0] == 1.0
        assert sigmoid(np.array([-800.0]))[0] == 0.0

    def test_separable_data_fits(self):
        m = two_class_matrix(40, 40, seed=3)
        model = fit_model(ModelSpec("logistic"), m)
        probs = predict_proba(model, m)
        acc = np.mean((probs >= 0.5).astype(int) == m.target)
        assert acc >= 0.85

    def test_l1_sparser_than_l2(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 10))
        y = (X[:, 0] + 0.5 * X[:, 1] + 0.2 * rng.normal(size=200) > 0).astype(int)
        names = tuple(f"x{j}" for j in range(10))
        l1 = LogisticModel.fit(X, y, ModelSpec("logistic", {"penalty": "l1", "C": 0.05}), names)
        l2 = LogisticModel.fit(X, y, ModelSpec("logistic", {"penalty": "l2", "C": 0.05}), names)
        assert np.sum(l1.weights == 0.0) > np.sum(l2.weights == 0.0)

    def test_unknown_penalty(self):
        with pytest.raises(LearnerError, match="penalty"):
            ModelSpec("logistic", {"penalty": "elastic"})

    def test_invalid_c(self):
        doc = _damaged("logistic", lambda d: d["params"].update(C=0))
        with pytest.raises(LearnerError, match="malformed model document: logistic C"):
            deserialize_model(doc)

    @given(_logistic_problems(), st.sampled_from(["l1", "l2", "none"]))
    @settings(max_examples=80, deadline=None)
    def test_newton_solver_converges_to_tol(self, problem, penalty):
        A, y = problem
        l1, l2 = {"l1": (0.05, 0.0), "l2": (0.0, 0.05), "none": (0.0, 0.0)}[penalty]
        theta, info = newton_logistic(A, y, l1, l2, max_iter=500, tol=1e-10)
        assert info["converged"] is True and info["kkt_gap"] <= 1e-10
        again, again_info = newton_logistic(A, y, l1, l2, max_iter=500, tol=1e-10)
        assert again.tobytes() == theta.tobytes() and again_info == info

        # the reported gap is the minimum-norm subgradient recomputed at theta
        z = A @ theta
        g = A.T @ (sigmoid(z) - y) / y.size
        g[:-1] += 2.0 * l2 * theta[:-1]
        w, gw = theta[:-1], g[:-1]
        sub = np.where(w != 0, np.abs(gw + l1 * np.sign(w)), np.maximum(np.abs(gw) - l1, 0.0))
        assert max(np.max(sub, initial=0.0), abs(g[-1])) == info["kkt_gap"]

    def test_newton_iteration_cap_reports_not_converged(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        A, y = np.c_[X, np.ones(50)], (X[:, 0] + rng.normal(size=50) > 0).astype(float)
        for l1, l2 in ((0.0, 0.05), (0.05, 0.0)):
            _, info = newton_logistic(A, y, l1, l2, max_iter=1, tol=0.0)
            assert (info["iterations"], info["converged"]) == (1, False) and info["kkt_gap"] > 0

    def test_fit_info_reports_the_solver(self):
        model = fit_model(ModelSpec("logistic"), two_class_matrix(40, 40, seed=3))
        assert set(model.fit_info) == {"iterations", "converged", "kkt_gap"}
        assert model.fit_info["converged"] is True
        assert model.fit_info["kkt_gap"] <= ModelSpec("logistic").hyperparameters["tol"]
        assert deserialize_model(serialize_model(model)).fit_info == {}


class TestEntropyTree:
    def test_entropy_known_values(self):
        assert entropy_impurity((5, 5)) == pytest.approx(1.0, abs=1e-12)
        assert entropy_impurity((10, 0)) == 0.0
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert entropy_impurity((1, 3)) == pytest.approx(expected, abs=1e-12)

    def test_entropy_empty_node(self):
        with pytest.raises(LearnerError):
            entropy_impurity((0, 0))

    def test_split_tie_breaks_to_lowest_feature(self):
        x = np.array([0.0, 0.0, 1.0, 1.0])
        X = np.column_stack([x, x])  # identical columns, identical gains
        y = np.array([0, 0, 1, 1])
        j, thr, gain = best_entropy_split(X, y)
        assert j == 0
        assert thr == pytest.approx(0.5)
        assert gain == pytest.approx(1.0, abs=1e-12)

    def test_no_split_on_pure_node(self):
        assert best_entropy_split(np.ones((4, 2)), np.ones(4, dtype=int)) is None

    def test_depth_two_oracle(self):
        # depth-2 tree recovers y = x0 AND x1 exactly: the root split on
        # either feature has positive gain, the second level finishes the job
        base = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        X = np.tile(base, (8, 1))
        y = np.tile(np.array([0, 0, 0, 1]), 8)
        root = build_tree(X, y, max_depth=2, min_samples_split=2)
        preds = _walk(root, base)
        assert preds.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_xor_root_stays_leaf(self):
        # a balanced XOR offers no positive-gain root split, so the greedy
        # tree must stay a single leaf rather than accept a zero-gain split
        base = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        X = np.tile(base, (8, 1))
        y = np.tile(np.array([0, 1, 1, 0]), 8)
        root = build_tree(X, y, max_depth=4, min_samples_split=2)
        assert _walk(root, base).tolist() == [0.5, 0.5, 0.5, 0.5]

    def test_every_internal_node_reduces_impurity(self):
        m = two_class_matrix(60, 40, d=5, seed=5)
        model = fit_model(ModelSpec("decision-tree"), m)

        def walk(node):
            if node.is_leaf:
                return
            weighted = (node.left.n_samples * node.left.impurity
                        + node.right.n_samples * node.right.impurity)
            assert node.n_samples * node.impurity - weighted > 1e-12
            assert node.left.n_samples + node.right.n_samples == node.n_samples
            walk(node.left)
            walk(node.right)

        walk(model.root)

    def test_max_depth_respected(self):
        m = two_class_matrix(80, 80, d=4, seed=6)
        model = fit_model(ModelSpec("decision-tree", {"max_depth": 2}), m)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(model.root) <= 2


class TestRandomForest:
    def test_probability_is_mean_of_trees(self):
        m = two_class_matrix(40, 25, seed=7)
        model = fit_model(fast_spec("random-forest"), m)
        manual = np.mean([_walk(t.to_dict(), m.values) for t in model.trees], axis=0)
        np.testing.assert_allclose(model.predict_proba_values(m.values), manual,
                                   atol=1e-12)

    def test_single_tree_forest(self):
        m = two_class_matrix(30, 20, seed=8)
        model = fit_model(ModelSpec("random-forest", {"n_estimators": 1}), m)
        np.testing.assert_array_equal(model.predict_proba_values(m.values),
                                      _walk(model.trees[0].to_dict(), m.values))

    def test_different_seeds_differ(self):
        m = two_class_matrix(40, 25, seed=9)
        p1 = predict_proba(fit_model(fast_spec("random-forest", seed=1), m), m)
        p2 = predict_proba(fit_model(fast_spec("random-forest", seed=2), m), m)
        assert not np.array_equal(p1, p2)


def _tie_heavy_matrix():
    """Small-integer columns (many ties) plus one two-decimal column."""
    rng = np.random.default_rng(2024)
    X = rng.integers(0, 6, size=(160, 6)).astype(float)
    X[:, 5] = np.round(rng.normal(size=160), 2)
    y = ((X[:, 0] + X[:, 2] + rng.normal(0.0, 1.5, size=160)) > 5.0).astype(np.int64)
    return EncodedMatrix(X, y, tuple(f"f{j}" for j in range(6)), np.arange(160))


# sha256 of the sorted-key JSON model documents, recorded when random-forest
# trees still had their own builder: decision trees and forest members now
# share build_tree, and every tree must keep its exact structure
TREE_DIGESTS = {
    "rf-sqrt": (ModelSpec("random-forest", {"n_estimators": 4, "max_depth": 6}, seed=3),
                "b02e40094f11004c6709dc9764d2f33caad69134c1abccc00a3ac68bc230ebdf"),
    "rf-all": (ModelSpec("random-forest", {"n_estimators": 3, "max_depth": 5,
                                           "max_features": "all"}, seed=4),
               "5302452bbbcf4eef4308c0bb02de437188a507932d1d33c60775db4ff6de52ee"),
    "rf-2": (ModelSpec("random-forest", {"n_estimators": 3, "max_depth": 5,
                                         "max_features": 2}, seed=5),
             "92d6bb522faf044763e87ea34c2b46a7022e252c01052d076bc2ec77744e9456"),
    "decision-tree": (ModelSpec("decision-tree", {"max_depth": 8, "min_samples_split": 4}),
                      "da44f35af4e9951042c6ba3a4696f490cc4b676451e1b00143fd2cd5f1bc88d1"),
}


@pytest.mark.parametrize("case", sorted(TREE_DIGESTS))
def test_entropy_trees_are_pinned(case):
    spec, digest = TREE_DIGESTS[case]
    doc = serialize_model(fit_model(spec, _tie_heavy_matrix()))
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


def _walk(tree, X):
    """Per-row walk of one nested-dict regression tree."""
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        node = tree
        while "feature" in node:
            node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
        out[i] = node["value"]
    return out



def _reference_best_split(X, y):
    """The per-column split search the one-pass search replaced."""
    n = y.size
    pos_total = int(y.sum())
    parent = entropy_impurity((n - pos_total, pos_total))
    if parent == 0.0:
        return None
    best = None
    for j in range(X.shape[1]):
        x = X[:, j]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[order]
        boundaries = np.flatnonzero(xs[1:] != xs[:-1])
        if boundaries.size == 0:
            continue
        pos_prefix = np.cumsum(ys)
        n_left = boundaries + 1
        pos_left = pos_prefix[boundaries]
        n_right = n - n_left
        pos_right = pos_total - pos_left
        h_left = _entropy_vec(pos_left.astype(float), n_left.astype(float))
        h_right = _entropy_vec(pos_right.astype(float), n_right.astype(float))
        gains = parent - (n_left / n) * h_left - (n_right / n) * h_right
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if gain <= 1e-12:
            continue
        threshold = 0.5 * (xs[boundaries[k]] + xs[boundaries[k] + 1])
        if best is None or gain > best[2] + 1e-15:
            best = (j, float(threshold), gain)
    return best


@st.composite
def _split_problems(draw):
    """Tie-heavy small-integer, continuous or mixed columns, some constant."""
    n, d = draw(st.integers(2, 70)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ties", "continuous", "mixed"]))
    X = rng.integers(0, draw(st.integers(1, 5)), size=(n, d)).astype(float)
    if kind != "ties":
        cont = rng.normal(size=(n, d))
        X = cont if kind == "continuous" else np.where(rng.random(d) < 0.5, X, cont)
    for j in np.flatnonzero(rng.random(d) < 0.2):
        X[:, j] = X[0, j]
    y = (rng.random(n) < draw(st.floats(0.05, 0.95))).astype(np.int64)
    return X, y


class TestOnePassSplit:
    @given(_split_problems())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_column_search(self, problem):
        X, y = problem
        assert best_entropy_split(X, y) == _reference_best_split(X, y)

    def test_constant_and_zero_columns(self):
        y = np.array([0, 1, 1, 0, 1])
        for X in (np.full((5, 3), 2.0), np.empty((5, 0))):
            assert best_entropy_split(X, y) is None
            assert _reference_best_split(X, y) is None

    @pytest.mark.parametrize("spec", [
        ModelSpec("decision-tree", {"max_depth": 12, "min_samples_split": 2}),
        ModelSpec("random-forest", {"n_estimators": 3, "max_depth": 8}, seed=6),
        ModelSpec("random-forest", {"n_estimators": 2, "max_features": "all"}, seed=7),
    ])
    def test_every_node_of_a_fit_matches(self, monkeypatch, spec):
        calls = []

        def checked(X, y):
            calls.append(X.shape)
            split = best_entropy_split(X, y)
            assert split == _reference_best_split(X, y)
            return split

        monkeypatch.setattr(tree_module, "best_entropy_split", checked)
        fit_model(spec, _tie_heavy_matrix())
        assert len(calls) > 10

    def test_zero_drawn_columns_give_leaves(self):
        m = _tie_heavy_matrix()
        model = fit_model(ModelSpec("random-forest", {"n_estimators": 3, "max_features": 0}), m)
        assert all(t.is_leaf for t in model.trees)
        probs = model.predict_proba_values(m.values)
        assert np.all(probs == probs[0])


def _strided_copies(values):
    """Fortran-ordered, column-sliced and row-strided views of values."""
    d = values.shape[1]
    wide = np.hstack([values, -values])
    return (np.asfortranarray(values), wide[:, :d], np.repeat(values, 2, axis=0)[::2])


class TestFlatTreePredict:
    @pytest.mark.parametrize("spec", [
        ModelSpec("decision-tree", {"max_depth": 8, "min_samples_split": 4}),
        ModelSpec("decision-tree", {"max_depth": 1}),
        ModelSpec("random-forest", {"n_estimators": 7, "max_depth": 6}, seed=3),
        ModelSpec("random-forest", {"n_estimators": 1, "max_depth": 0}, seed=4),
    ])
    def test_matches_a_per_row_walk(self, spec):
        m = _tie_heavy_matrix()
        model = fit_model(spec, m)
        rng = np.random.default_rng(5)
        values = np.vstack([m.values, rng.normal(2.5, 2.0, size=(40, 6))])
        if spec.algorithm == "decision-tree":
            expected = _walk(model.root.to_dict(), values)
        else:
            expected = np.zeros(values.shape[0])
            for t in model.trees:
                expected += _walk(t.to_dict(), values)
            expected /= len(model.trees)
        restored = deserialize_model(json.loads(json.dumps(serialize_model(model))))
        for v in (values, *_strided_copies(values)):
            assert np.array_equal(model.predict_proba_values(v), expected)
            assert np.array_equal(restored.predict_proba_values(v), expected)


def _count_nodes(node):
    return 0 if node is None else 1 + _count_nodes(node.left) + _count_nodes(node.right)


def _count_leaves(node):
    return 1 if node.is_leaf else _count_leaves(node.left) + _count_leaves(node.right)


def _leaf_depth(node):
    return 0 if node.is_leaf else 1 + max(_leaf_depth(node.left), _leaf_depth(node.right))


class TestTreeDocuments:
    """Tree models hold the documents they serialize; TreeNode views read them."""

    @pytest.mark.parametrize("spec", [
        ModelSpec("decision-tree", {"max_depth": 8, "min_samples_split": 4}),
        ModelSpec("random-forest", {"n_estimators": 5, "max_depth": 6}, seed=3),
    ])
    def test_json_round_trip_keeps_the_documents(self, spec):
        model = fit_model(spec, _tie_heavy_matrix())
        restored = deserialize_model(json.loads(json.dumps(serialize_model(model))))
        assert restored.params_dict() == model.params_dict()
        roots = [restored.root] if spec.algorithm == "decision-tree" else restored.trees
        docs = [root.to_dict() for root in roots]
        (feature, _, _, _, _, _), _, _ = flatten_trees(docs, len(model.feature_names))
        assert sum(_count_nodes(root) for root in roots) == feature.size > len(roots)
        if spec.algorithm == "random-forest":
            assert np.array_equal(impurity_importance(restored).scores,
                                  impurity_importance(model).scores)

    @pytest.mark.parametrize("spec", [
        ModelSpec("decision-tree", {"max_depth": 8, "min_samples_split": 4}),
        ModelSpec("random-forest", {"n_estimators": 5, "max_depth": 6}, seed=3),
        ModelSpec("gbt", {"n_estimators": 6, "max_depth": 3}, seed=2),
    ])
    def test_fit_info_counts_the_fitted_nodes(self, spec):
        model = fit_model(spec, _tie_heavy_matrix())
        params = model.params_dict()
        roots = [TreeNode(doc) for doc in params.get("trees", [params.get("root")])]
        info = {"nodes": sum(map(_count_nodes, roots)), "depth": max(map(_leaf_depth, roots))}
        if spec.algorithm == "gbt":  # one split record per inner node
            info["splits"] = sum(map(_count_nodes, roots)) - sum(map(_count_leaves, roots))
            assert info["splits"] == len(model.split_records) > 0
            info["losses"] = model.fit_info["losses"]  # TestGbt checks them
        assert model.fit_info == info and info["depth"] > 1
        assert deserialize_model(serialize_model(model)).fit_info == {}

    def test_view_reads_the_document(self):
        doc = build_tree(np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0, 0, 1, 1]),
                         max_depth=3, min_samples_split=2)
        root = TreeNode(doc)
        assert root.to_dict() is doc
        assert (root.n_samples, root.impurity, root.value) == (4, 1.0, 0.5)
        assert (root.feature, root.threshold, root.is_leaf) == (0, 0.5, False)
        assert root.left.to_dict() is doc["left"] and root.right.value == 1.0
        leaf = root.left
        assert leaf.is_leaf
        assert (leaf.feature, leaf.threshold, leaf.left, leaf.right) == (None, None, None, None)


def _reference_tree(X, g, h, candidates, lam, max_depth, records, t, depth=0):
    """Brute-force split search: sort the node's rows per feature and scan
    every candidate midpoint, keeping each feature's first best."""
    G, H = g.sum(), h.sum()
    if depth >= max_depth or g.size < 2:
        return {"value": float(-G / (H + lam))}
    best_gain, best = 0.0, None
    for j, mids in enumerate(candidates):
        order = np.argsort(X[:, j], kind="stable")
        xs, gl, hl = X[order, j], np.cumsum(g[order]), np.cumsum(h[order])
        feature_best = None
        for c in mids:
            k = int(np.sum(xs <= c))
            if not 0 < k < g.size:
                continue
            GL, HL = gl[k - 1], hl[k - 1]
            GR, HR = G - GL, H - HL
            gain = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - G * G / (H + lam))
            if feature_best is None or gain > feature_best[0]:
                feature_best = (float(gain), float(c))
        if feature_best is not None and feature_best[0] > best_gain + 1e-15:
            best_gain, best = feature_best[0], (j, feature_best[1])
    if best is None or best_gain <= 1e-12:
        return {"value": float(-G / (H + lam))}
    j, thr = best
    records.append([t, j, best_gain])
    mask = X[:, j] <= thr
    return {"feature": j, "threshold": thr,
            "left": _reference_tree(X[mask], g[mask], h[mask], candidates, lam,
                                    max_depth, records, t, depth + 1),
            "right": _reference_tree(X[~mask], g[~mask], h[~mask], candidates, lam,
                                     max_depth, records, t, depth + 1)}


def _reference_candidates(X, bins):
    """Each column's split candidates: the midpoints of its distinct values,
    at most `bins` evenly spaced ones of them when bins > 0."""
    candidates = []
    for col in X.T:
        uniq = np.unique(col)
        mids = 0.5 * (uniq[:-1] + uniq[1:])
        if bins and mids.size > bins:
            mids = mids[np.unique(np.linspace(0, mids.size - 1, bins).round().astype(int))]
        candidates.append(mids)
    return candidates


def _reference_gbt(X, y, n_estimators, max_depth, bins, lr=0.01, lam=1.0):
    """(trees, split records, raw scores on X) of a brute-force boosted fit."""
    candidates = _reference_candidates(X, bins)
    prevalence = float(np.clip(y.mean(), 1e-12, 1 - 1e-12))
    raw = np.full(y.size, float(np.log(prevalence / (1.0 - prevalence))))
    trees, records = [], []
    for t in range(n_estimators):
        p = sigmoid(raw)
        tree = _reference_tree(X, p - y, p * (1.0 - p), candidates, lam, max_depth, records, t)
        trees.append(tree)
        raw = raw + lr * _walk(tree, X)
    return trees, records, raw


def _row_loop_target_statistics(col, y, perm, prior, smoothing):
    """ordered_target_statistics as one pass over the rows in permutation
    order, keeping each category's running target sum and count."""
    out = np.empty(col.size, dtype=float)
    sums: dict = {}
    counts: dict = {}
    for r in perm:
        s, k = sums.get(col[r], 0.0), counts.get(col[r], 0)
        out[r] = (s + smoothing * prior) / (k + smoothing)
        sums[col[r]], counts[col[r]] = s + y[r], k + 1
    return out


_CODES = [-1.0, -0.0, 0.0, 2.0, 7.5, 1e9]


@st.composite
def _category_problems(draw):
    """(codes with repeats, float targets, a permutation, prior, smoothing)."""
    n = draw(st.integers(0, 40))
    codes = draw(st.lists(st.sampled_from(_CODES), min_size=n, max_size=n))
    y = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    prior = draw(st.floats(0.0, 1.0))
    smoothing = draw(st.floats(1e-3, 1e3))
    return (np.array(codes), np.array(y, dtype=float), np.array(perm, dtype=np.intp), prior,
            smoothing)


def _scan_encoder(col, y, prior, smoothing):
    """An encoder's stats as two scans of the column per category."""
    return {float(c): float((y[col == c].sum() + smoothing * prior)
                            / ((col == c).sum() + smoothing)) for c in np.unique(col)}


def _scan_transform(cat_encoders, values):
    """GbtModel._transform as one scan of the column per category."""
    values = np.asarray(values, dtype=float).copy()
    for j, enc in cat_encoders.items():
        col = values[:, j]
        out = np.full(col.size, enc["prior"])
        for code, stat in enc["stats"].items():
            out[col == code] = stat
        values[:, j] = out
    return values


@st.composite
def _encoder_problems(draw):
    """(a 0/1 target, training codes of columns 0 and 1 beside a plain column 2,
    predict rows whose codes may be unseen, NaN or infinite, smoothing, seed)."""
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 20))
    train = draw(st.lists(st.sampled_from(_CODES), min_size=2 * n, max_size=2 * n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    unseen = [3.0, -5.0, 2e9, np.nan, np.inf, -np.inf]
    test = draw(st.lists(st.sampled_from(_CODES + unseen), min_size=2 * m, max_size=2 * m))
    X = np.c_[np.array(train).reshape(n, 2), np.arange(n, dtype=float)]
    V = np.c_[np.array(test).reshape(m, 2), np.linspace(-1.0, 1.0, m)]
    return (X, np.array(y, dtype=float), V, draw(st.floats(1e-3, 1e3)),
            draw(st.integers(0, 5)))


@st.composite
def _drawn_column(draw, n):
    """n cells of one kind: few tied integers; continuous values; runs of
    adjacent floats, whose midpoints round onto a neighbour; or signed zeros
    among a few integers."""
    kind = draw(st.sampled_from(["tied", "continuous", "adjacent", "zeros"]))
    if kind == "tied":
        return np.array(draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)), dtype=float)
    if kind == "continuous":
        return np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    if kind == "zeros":
        return np.array(draw(st.lists(st.sampled_from([-0.0, 0.0, -1.0, 1.0]),
                                      min_size=n, max_size=n)))
    steps = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    ladder = [draw(st.floats(-1e6, 1e6))]
    for _ in range(4):
        ladder.append(np.nextafter(ladder[-1], np.inf))
    return np.array(ladder).take(steps)


@st.composite
def _split_problems(draw):
    n, d = draw(st.integers(4, 40)), draw(st.integers(1, 4))
    X = np.column_stack([draw(_drawn_column(n)) for _ in range(d)])
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return X, np.array(labels, dtype=float)


class TestGbt:
    @given(_split_problems(), st.sampled_from([0, 2, 3, 64]), st.integers(1, 3),
           st.integers(1, 4), st.sampled_from([gbt_module._BLOCK_CELLS, 1, 9, 40]))
    @settings(max_examples=120, deadline=None)
    def test_split_search_matches_brute_force(self, problem, bins, max_depth, n_estimators,
                                              block_cells):
        X, y = problem
        spec = ModelSpec("gbt", {"n_estimators": n_estimators, "max_depth": max_depth,
                                 "bins": bins})
        with pytest.MonkeyPatch.context() as mp:  # small budgets: one column or a few per block
            mp.setattr(gbt_module, "_BLOCK_CELLS", block_cells)
            model = GbtModel.fit(X, y, spec, tuple(f"f{j}" for j in range(X.shape[1])))
        trees, records, raw = _reference_gbt(X, y, n_estimators, max_depth, bins)
        assert repr(model.trees) == repr(trees)  # repr tells -0.0 from 0.0
        assert repr([[r.tree, r.feature, r.gain] for r in model.split_records]) == repr(records)
        assert model.raw_score(X).tobytes() == raw.tobytes()

    @pytest.mark.parametrize("max_depth, most_per_tree", [(1, 0), (2, 2)])
    def test_children_that_cannot_split_get_no_sorted_orders(self, monkeypatch, max_depth,
                                                              most_per_tree):
        """A child at max_depth never splits, so the grower selects no column
        orders for it: none at depth 1, and only the root's two children's at 2."""
        calls = []
        real = gbt_module._select
        monkeypatch.setattr(gbt_module, "_select", lambda *a: calls.append(1) or real(*a))
        model = fit_model(ModelSpec("gbt", {"n_estimators": 4, "max_depth": max_depth}),
                          two_class_matrix(50, 30, seed=16))
        assert model.split_records and len(calls) <= most_per_tree * 4

    @given(_split_problems(), st.sampled_from([0, 1, 2, 3, 64]))
    @settings(max_examples=120, deadline=None)
    def test_ranks_match_unique_and_searchsorted(self, problem, bins):
        X, _ = problem
        grower = _Grower(X, bins, 1.0, 3, 2)
        for j, mids in enumerate(_reference_candidates(X, bins)):
            assert grower.mids[j].tobytes() == mids.tobytes()
            assert np.array_equal(grower.rank[j], np.searchsorted(mids, X[:, j]))
            assert np.array_equal(grower.order[j], np.argsort(X[:, j], kind="stable"))

    def test_fit_info_reports_the_training_loss_after_each_tree(self):
        m = two_class_matrix(50, 30, seed=16)
        model = fit_model(ModelSpec("gbt", {"n_estimators": 7, "learning_rate": 0.3}), m)
        raw = np.full(m.n_rows, model.base_log_odds)
        expected = []
        for tree in model.trees:  # the raw scores after each tree, staged
            raw = raw + model.learning_rate * _walk(tree, m.values)
            p = np.clip(sigmoid(raw), 1e-12, 1 - 1e-12)
            expected.append(float(-np.mean(m.target * np.log(p) + (1 - m.target) * np.log(1 - p))))
        assert model.fit_info["losses"] == expected
        assert len(expected) == 7 and expected[-1] < expected[0]
        assert fit_model(ModelSpec("gbt", {"n_estimators": 0}), m).fit_info["losses"] == []

    def test_categorical_index_outside_the_matrix_rejected(self):
        spec = fast_spec("gbt", categorical_handling="ordered-target-stats",
                         categorical_features=[0, 3])
        with pytest.raises(LearnerError, match="index 3 is outside the 3 columns"):
            fit_model(spec, two_class_matrix(10, 10))

    def test_zero_trees_predicts_prevalence(self):
        m = two_class_matrix(30, 10, seed=10)
        model = fit_model(ModelSpec("gbt", {"n_estimators": 0}), m)
        probs = model.predict_proba_values(m.values)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_boosting_additivity(self):
        m = two_class_matrix(50, 30, seed=11)
        model = fit_model(fast_spec("gbt"), m)
        manual = np.full(m.n_rows, model.base_log_odds)
        for tree in model.trees:
            manual = manual + model.learning_rate * _walk(tree, m.values)
        np.testing.assert_allclose(model.raw_score(m.values), manual, atol=1e-12)

    def test_flat_walk_reads_non_contiguous_input(self):
        m = two_class_matrix(60, 40, d=4, seed=13)
        model = fit_model(ModelSpec("gbt", {"n_estimators": 15, "max_depth": 3}), m)
        contiguous = model.raw_score(np.ascontiguousarray(m.values))
        wide = np.hstack([m.values, -m.values])
        for values in (np.asfortranarray(m.values), wide[:, :4], wide[:, ::-1][:, 7:3:-1]):
            assert not values.flags.c_contiguous
            assert np.array_equal(model.raw_score(values), contiguous)

    def test_flat_nodes_encode_the_nested_trees(self):
        m = two_class_matrix(60, 40, d=4, seed=14)
        model = fit_model(ModelSpec("gbt", {"n_estimators": 6, "max_depth": 3}), m)
        (feature, threshold, children, value, n, impurity), roots, depth = flatten_trees(
            model.trees, 4)

        def unflatten(i):
            left, right = children[2 * i + 1], children[2 * i]
            if left == right == i:
                return {"value": float(value[i])}
            return {"feature": int(feature[i]), "threshold": float(threshold[i]),
                    "left": unflatten(left), "right": unflatten(right)}

        assert [unflatten(r) for r in roots] == model.trees
        assert depth == 3
        assert not n.any() and not impurity.any()  # boosted trees carry no node counts
        restored = deserialize_model(json.loads(json.dumps(serialize_model(model))))
        assert restored.trees == model.trees
        assert np.array_equal(restored.raw_score(m.values), model.raw_score(m.values))

    def test_histogram_covering_all_values_matches_exact(self):
        # every feature has < 64 distinct values, so bins=64 reproduces the
        # exact candidate set and the trained model bit for bit
        rng = np.random.default_rng(12)
        values = rng.integers(0, 12, size=(120, 5)).astype(float)
        y = (values[:, 0] + values[:, 1] > 11).astype(int)
        m = EncodedMatrix(values, y, tuple("abcde"), np.arange(120))
        exact = fit_model(fast_spec("gbt", bins=0), m)
        binned = fit_model(fast_spec("gbt", bins=64), m)
        assert np.array_equal(exact.predict_proba_values(values),
                              binned.predict_proba_values(values))

    def test_training_loss_decreases(self):
        m = two_class_matrix(60, 30, seed=13)
        few = fit_model(ModelSpec("gbt", {"n_estimators": 5, "learning_rate": 0.1}), m)
        many = fit_model(ModelSpec("gbt", {"n_estimators": 80, "learning_rate": 0.1}), m)

        def loss(model):
            p = np.clip(model.predict_proba_values(m.values), 1e-12, 1 - 1e-12)
            return -np.mean(m.target * np.log(p) + (1 - m.target) * np.log(1 - p))

        assert loss(many) < loss(few)

    def test_split_records_reference_real_trees(self):
        m = two_class_matrix(50, 30, seed=14)
        model = fit_model(fast_spec("gbt"), m)
        assert model.split_records
        for rec in model.split_records:
            assert 0 <= rec.tree < len(model.trees)
            assert 0 <= rec.feature < m.n_features
            assert rec.gain > 0

    def test_ordered_target_statistics_hand_example(self):
        col = np.array([0.0, 0.0, 1.0, 0.0])
        y = np.array([1, 0, 1, 1])
        perm = np.array([0, 1, 2, 3])
        out = ordered_target_statistics(col, y, perm, prior=0.5, smoothing=1.0)
        np.testing.assert_allclose(out, [0.5, 0.75, 0.5, 0.5], atol=1e-12)

    def test_ordered_target_statistics_no_self_leakage(self):
        # a category seen once encodes to the pure prior regardless of its label
        col = np.array([0.0, 1.0, 2.0])
        y = np.array([1, 1, 0])
        perm = np.array([0, 1, 2])
        out = ordered_target_statistics(col, y, perm, prior=0.3)
        np.testing.assert_allclose(out, [0.3, 0.3, 0.3], atol=1e-12)

    def test_bad_permutation_rejected(self):
        with pytest.raises(LearnerError):
            ordered_target_statistics(np.zeros(3), np.zeros(3), np.array([0, 0, 2]), 0.5)

    @given(_category_problems())
    @settings(max_examples=150, deadline=None)
    def test_ordered_target_statistics_match_the_row_loop(self, problem):
        col, y, perm, prior, smoothing = problem
        out = ordered_target_statistics(col, y, perm, prior, smoothing)
        expected = _row_loop_target_statistics(col, y, perm, prior, smoothing)
        assert out.dtype == np.float64 and out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ordered_target_statistics_reject_a_non_finite_code(self, bad):
        with pytest.raises(LearnerError, match="finite category codes"):
            ordered_target_statistics(np.array([0.0, bad, 1.0]), np.ones(3),
                                      np.arange(3), 0.5)

    @given(_encoder_problems())
    @settings(max_examples=150, deadline=None)
    def test_encoder_matches_the_category_scans(self, problem):
        X, y, V, smoothing, seed = problem
        spec = ModelSpec("gbt", {"n_estimators": 1, "categorical_handling": "ordered-target-stats",
                                 "categorical_features": (0, 1),
                                 "target_stat_smoothing": smoothing}, seed)
        model = GbtModel.fit(X, y, spec, ("c0", "c1", "x"))
        prior = float(y.mean())
        for j in (0, 1):  # repr tells -0.0 from 0.0
            assert repr(model.cat_encoders[j]) == repr(
                {"prior": prior, "stats": _scan_encoder(X[:, j], y, prior, smoothing)})
        assert model._transform(V).tobytes() == _scan_transform(model.cat_encoders, V).tobytes()

    def test_encoder_without_stats_maps_every_row_to_the_prior(self):
        doc = _damaged("gbt-ordered-target-stats",
                       lambda d: d["params"]["cat_encoders"]["0"].update(stats={}))
        model = deserialize_model(doc)
        V = np.r_[_categorical_matrix().values, np.full((1, 12), np.nan)]
        out = model._transform(V)
        assert (out[:, 0] == model.cat_encoders[0]["prior"]).all()
        assert out.tobytes() == _scan_transform(model.cat_encoders, V).tobytes()

    def test_categorical_mode_fits(self):
        rng = np.random.default_rng(15)
        cats = rng.integers(0, 5, size=(100, 2)).astype(float)
        y = (cats[:, 0] >= 3).astype(int)
        m = EncodedMatrix(cats, y, ("c0", "c1"), np.arange(100))
        spec = fast_spec("gbt", categorical_handling="ordered-target-stats",
                         categorical_features=(0, 1))
        model = fit_model(spec, m)
        probs = predict_proba(model, m)
        assert np.mean((probs >= 0.5) == y) > 0.9
        assert set(model.cat_encoders) == {0, 1}


def _matrix(values, target):
    return EncodedMatrix(values, target, tuple(f"f{j}" for j in range(values.shape[1])),
                         np.arange(target.size))


@st.composite
def _svm_problems(draw):
    """Small two-class problems on a coarse grid, so duplicate rows (some with
    opposite labels) and zero-curvature steps occur."""
    n, d = draw(st.integers(4, 40)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[0], labels[1] = 0, 1
    return np.array(cells, dtype=float).reshape(n, d), np.array(labels)


class TestSvm:
    def test_dual_objective_monotone(self):
        m = two_class_matrix(30, 30, seed=16)
        model = fit_model(fast_spec("svm"), m)
        hist = model.objective_history
        assert len(hist) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_separable_accuracy(self):
        m = two_class_matrix(40, 40, seed=17)
        model = fit_model(fast_spec("svm"), m)
        probs = predict_proba(model, m)
        assert np.mean((probs >= 0.5).astype(int) == m.target) >= 0.85

    def test_gamma_scale(self):
        m = two_class_matrix(30, 30, seed=18)
        model = fit_model(fast_spec("svm"), m)
        expected = 1.0 / (m.n_features * m.values.var())
        assert model.gamma == pytest.approx(expected, rel=1e-12)

    def test_non_rbf_rejected(self):
        m = two_class_matrix(10, 10)
        with pytest.raises(LearnerError):
            fit_model(ModelSpec("svm", {"kernel": "linear"}), m)

    @given(_svm_problems(), st.sampled_from([0.5, 10.0]))
    @settings(max_examples=60, deadline=None)
    def test_solver_converges_inside_the_box(self, problem, C):
        values, target = problem
        spec = ModelSpec("svm", {"C": C}, seed=0)
        model = fit_model(spec, _matrix(values, target))
        info = model.fit_info
        tol = spec.hyperparameters["tol"]
        assert info["converged"] is True and info["kkt_gap"] <= tol
        hist = model.objective_history
        assert hist[-1] == info["dual_objective"]
        assert all(b >= a - 1e-9 * max(1.0, abs(b)) for a, b in zip(hist, hist[1:]))
        again = fit_model(spec, _matrix(values, target))
        assert json.dumps(again.params_dict()) == json.dumps(model.params_dict())

        # alpha at return, and the KKT gap of a gradient recomputed from it
        t = np.where(target == 1, 1.0, -1.0)
        K = _kernel_matrix(values, values, model.gamma)
        alpha, _, _, _ = _smo(K, t, C, tol, 100 * spec.hyperparameters["max_passes"] * t.size)
        assert np.all((alpha >= 0) & (alpha <= C))
        assert abs(alpha @ t) <= 1e-9
        v = -t * (t * (K @ (alpha * t)) - 1.0)
        up = np.where(t > 0, alpha < C, alpha > 0)
        low = np.where(t > 0, alpha > 0, alpha < C)
        assert v[up].max() - v[low].min() <= tol + 1e-9

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_overflowing_features_raise_before_the_solver(self, scale, monkeypatch):
        m = two_class_matrix(30, 30, seed=1)
        values = m.values.copy()
        values[:, 0] *= scale
        monkeypatch.setattr(svm_module, "_smo", lambda *a: pytest.fail("SMO ran on NaN"))
        with np.errstate(all="ignore"), pytest.raises(
                data_module.DataError, match="squared distances overflow; rescale the features"):
            fit_model(ModelSpec("svm", {"max_passes": 1}), _matrix(values, m.target))

    def test_no_support_vectors_give_the_intercept(self):
        model = svm_module.SvmModel(np.empty((0, 3)), [], 0.37, 0.5, 1.0, 0.0, ("a", "b", "c"))
        values = np.random.default_rng(0).normal(size=(5, 3))
        assert np.array_equal(model.decision_values(values), np.full(5, 0.37))

    def test_step_cap_reports_not_converged(self):
        m = two_class_matrix(30, 30, seed=23)
        model = fit_model(ModelSpec("svm", {"tol": 0.0, "max_passes": 1}), m)
        assert model.fit_info["converged"] is False
        assert model.fit_info["iterations"] == 100 * 60

    def test_fit_info_stays_out_of_the_model_document(self):
        m = two_class_matrix(20, 20, seed=24)
        model = fit_model(ModelSpec("svm"), m)
        assert set(model.fit_info) == {"iterations", "converged", "kkt_gap", "dual_objective",
                                       "objective_history", "platt"}
        assert model.objective_history is model.fit_info["objective_history"]
        doc = serialize_model(model)
        restored = deserialize_model(doc)
        assert restored.fit_info == {}
        assert serialize_model(restored) == doc

    @pytest.mark.parametrize("C", [0.0, -1.0])
    def test_non_positive_C_rejected(self, C):
        with pytest.raises(LearnerError, match="C must be positive"):
            fit_model(ModelSpec("svm", {"C": C}), two_class_matrix(10, 10))

    def test_kernel_over_budget_rejected(self, monkeypatch):
        # the kernel and one block of min(n, 256) rows: 2 n^2 float64 cells at n = 39
        monkeypatch.setattr(svm_module, "_KERNEL_BUDGET_BYTES", 2 * 39 * 39 * 8)
        fit_model(ModelSpec("svm"), two_class_matrix(20, 19, seed=25))
        with pytest.raises(LearnerError, match="budget"):
            fit_model(ModelSpec("svm"), two_class_matrix(20, 20, seed=25))

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_kernel_built_in_blocks_keeps_the_bits(self, block, monkeypatch):
        monkeypatch.setattr(svm_module, "_KERNEL_BLOCK", block)
        rng = np.random.default_rng(26)
        A, B = rng.normal(size=(40, 5)), rng.normal(size=(23, 5))
        for P, Q in ((A, B), (A, A), (B, A)):
            sq = np.sum(P * P, axis=1)[:, None] + np.sum(Q * Q, axis=1)[None, :]
            whole = np.exp(-0.3 * np.maximum(sq - 2.0 * (P @ Q.T), 0.0))
            assert np.array_equal(_kernel_matrix(P, Q, 0.3), whole)

    def test_fit_holds_one_kernel(self, monkeypatch):
        monkeypatch.setattr(svm_module, "_KERNEL_BLOCK", 16)
        m = two_class_matrix(300, 300, seed=27)
        fit_model(ModelSpec("svm", {"max_passes": 1}), two_class_matrix(5, 5))  # warm-up
        tracemalloc.start()
        try:
            fit_model(ModelSpec("svm", {"max_passes": 1}), m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = m.n_rows
        assert peak < 1.1 * (n + 16) * n * 8  # the kernel and one 16-row block


class TestNaiveBayes:
    def test_matches_manual_gaussian_computation(self):
        m = two_class_matrix(25, 15, seed=20)
        model = fit_model(ModelSpec("naive-bayes"), m)
        x = m.values[:3]
        manual = []
        for row in x:
            joint = []
            for c in (0, 1):
                mu, var = model.means[c], model.variances[c]
                ll = -0.5 * np.sum(np.log(2 * np.pi * var) + (row - mu) ** 2 / var)
                joint.append(ll + np.log(model.priors[c]))
            j0, j1 = joint
            manual.append(1.0 / (1.0 + np.exp(j0 - j1)))
        np.testing.assert_allclose(model.predict_proba_values(x), manual, atol=1e-12)

    def test_symmetric_point_returns_prior(self):
        # symmetric classes: at the midpoint the likelihoods cancel and the
        # posterior equals the class prior
        rng = np.random.default_rng(21)
        X1 = rng.normal(1.0, 1.0, size=(200, 1))
        X0 = 2.0 - X1  # mirror image around 1.0 -> identical moments
        m = EncodedMatrix(np.vstack([X0, X1]),
                          np.r_[np.zeros(200, int), np.ones(200, int)],
                          ("x",), np.arange(400))
        model = fit_model(ModelSpec("naive-bayes"), m)
        p = model.predict_proba_values(np.array([[1.0]]))[0]
        assert p == pytest.approx(0.5, abs=1e-10)

    def test_variance_floor_on_constant_column(self):
        values = np.column_stack([np.ones(20), np.r_[np.zeros(10), np.ones(10)]])
        m = EncodedMatrix(values, np.r_[np.zeros(10, int), np.ones(10, int)],
                          ("c", "x"), np.arange(20))
        model = fit_model(ModelSpec("naive-bayes"), m)
        assert np.all(model.variances > 0)
        assert np.all(np.isfinite(model.predict_proba_values(values)))



def _reference_knn(model, values):
    """The per-row neighbour vote the blocked scoring replaced."""
    sq_t = np.sum(model.X * model.X, axis=1)
    out = np.empty(values.shape[0])
    for i in range(values.shape[0]):
        x = values[i]
        d2 = np.maximum(sq_t - 2.0 * (model.X @ x) + x @ x, 0.0)
        order = np.argsort(d2, kind="stable")
        kth = d2[order[model.n_neighbors - 1]]
        idx = np.flatnonzero(d2 <= kth)
        dd = d2[idx]
        yy = model.y[idx]
        if model.weights == "uniform":
            out[i] = yy.mean()
        else:
            zero = dd == 0.0
            if np.any(zero):
                out[i] = yy[zero].mean()
            else:
                w = 1.0 / np.sqrt(dd)
                out[i] = float(np.sum(w * yy) / np.sum(w))
    return out


@st.composite
def _tied_knn_cases(draw):
    """k-NN models on small-integer grids (duplicate rows, many equal
    distances) with labels in [0, 1], as a loaded document may hold them, k
    from 1 to n, and queries on the training rows, on a half-step grid and
    off the grid."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, draw(st.integers(1, 4)), size=(n, d)).astype(float)
    y = rng.uniform(size=n)
    weights = draw(st.sampled_from(["uniform", "distance"]))
    model = KnnModel(X, y, draw(st.integers(1, n)), weights, tuple(f"f{j}" for j in range(d)))
    queries = np.vstack([X[:6], rng.integers(0, 8, size=(6, d)) / 2, rng.normal(size=(6, d))])
    return model, queries


class TestKnn:
    @given(_tied_knn_cases())
    @settings(max_examples=60, deadline=None)
    def test_drawn_ties_match_the_row_loop(self, case):
        model, queries = case
        expected = _reference_knn(model, queries)
        for block in (data_module._NN_BLOCK, 1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(data_module, "_NN_BLOCK", block)
                assert model.predict_proba_values(queries).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("weights", ["uniform", "distance"])
    def test_tied_groups_copy_no_rows_of_the_distances(self, monkeypatch, weights):
        monkeypatch.setattr(data_module, "_NN_BLOCK", 16)
        X = tied_grid()
        model = KnnModel(X, np.random.default_rng(0).uniform(size=len(X)), 5, weights, ("a", "b"))
        # every ball: the 100 copies of a grid point, at distance 0 or tied off it
        queries = np.vstack([X[:200], X[:200] + 0.25])
        # a group's masks, indices and gathered distances; a copy of the block's
        # distance rows would take 16 * n * 8 bytes on its own
        peak = grouping_peak(monkeypatch, model.predict_proba_values, queries)
        assert peak < 16 * len(X) * 8 / 2

    def test_zero_distance_training_point_dominates(self):
        m = two_class_matrix(20, 20, seed=22)
        model = fit_model(ModelSpec("knn", {"n_neighbors": 5}), m)
        probs = model.predict_proba_values(m.values)
        assert np.array_equal((probs >= 0.5).astype(int), m.target)

    def test_exact_ties_at_k_included(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        y = np.array([1, 0, 0])
        m = EncodedMatrix(X, y, ("a", "b"), np.arange(3))
        model = fit_model(ModelSpec("knn", {"n_neighbors": 2, "weights": "uniform"}), m)
        # all three points are exactly 1 away from the origin
        p = model.predict_proba_values(np.array([[0.0, 0.0]]))[0]
        assert p == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_inverse_distance_weighting_known_value(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
        y = np.array([1, 0, 0])
        m = EncodedMatrix(X, y, ("a", "b"), np.arange(3))
        uni = fit_model(ModelSpec("knn", {"n_neighbors": 2, "weights": "uniform"}), m)
        dist = fit_model(ModelSpec("knn", {"n_neighbors": 2, "weights": "distance"}), m)
        q = np.array([[0.0, 0.0]])
        assert uni.predict_proba_values(q)[0] == pytest.approx(0.5, abs=1e-12)
        # weights 1/1 and 1/2 -> (1*1 + 0.5*0) / 1.5
        assert dist.predict_proba_values(q)[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_k_clamped_to_train_size(self):
        m = two_class_matrix(3, 3, seed=23)
        model = fit_model(ModelSpec("knn", {"n_neighbors": 50}), m)
        assert model.n_neighbors == 6

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_distance_overflow_rejected(self):
        X = np.array([[1e200, 0.5], [0.0, 0.5], [1.0, 0.0]])
        m = EncodedMatrix(X, np.array([1, 0, 0]), ("a", "b"), np.arange(3))
        model = fit_model(ModelSpec("knn", {"n_neighbors": 2}), m)
        # the first query's distance to the first row is inf - inf
        with pytest.raises(data_module.DataError, match="overflow"):
            model.predict_proba_values(np.array([[1e200, 0.5], [0.0, 0.5]]))

    @pytest.mark.parametrize("block", [None, 3])
    @pytest.mark.parametrize("weights", ["uniform", "distance"])
    @pytest.mark.parametrize("k", [1, 3, 9, 40])
    def test_blocked_scoring_matches_the_row_loop(self, monkeypatch, block, weights, k):
        if block is not None:
            monkeypatch.setattr(data_module, "_NN_BLOCK", block)
        rng = np.random.default_rng(k)
        grid = rng.integers(0, 3, size=(30, 2)).astype(float)  # exact distance ties
        for X in (grid, rng.normal(size=(30, 2))):
            y = rng.integers(0, 2, size=30)
            m = EncodedMatrix(X, y, ("a", "b"), np.arange(30))
            model = fit_model(ModelSpec("knn", {"n_neighbors": k, "weights": weights}), m)
            # training rows (zero distances), grid points and off-grid points
            queries = np.vstack([X[:7], rng.integers(0, 3, size=(10, 2)),
                                 rng.normal(size=(10, 2))])
            expected = _reference_knn(model, queries)
            for v in (queries, *_strided_copies(queries)):
                assert np.array_equal(model.predict_proba_values(v), expected)


def _per_layer_adam_fit(X, y, spec, feature_names):
    """MlpModel.fit with Adam written out per layer for W and b, m and v
    rebuilt as new arrays at every step."""
    h = spec.hyperparameters
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    mu, sd = X.mean(axis=0), X.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    Z = (X - mu) / sd
    rng = child_rng(spec.seed, 4)
    layers = init_layers((X.shape[1], *h["hidden_layer_sizes"], 1), rng)
    lr, batch = float(h["learning_rate"]), int(h["batch_size"])
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = [(np.zeros_like(W), np.zeros_like(b)) for W, b in layers]
    v = [(np.zeros_like(W), np.zeros_like(b)) for W, b in layers]
    step = 0
    n = Z.shape[0]
    for _ in range(int(h["max_iterations"])):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            _, grads = mlp_loss_and_grads(layers, h["activation"], Z[idx], y[idx])
            step += 1
            for i, ((gW, gb), (W, b)) in enumerate(zip(grads, layers)):
                mW, mb = m[i]
                vW, vb = v[i]
                mW = beta1 * mW + (1 - beta1) * gW
                mb = beta1 * mb + (1 - beta1) * gb
                vW = beta2 * vW + (1 - beta2) * gW * gW
                vb = beta2 * vb + (1 - beta2) * gb * gb
                m[i] = (mW, mb)
                v[i] = (vW, vb)
                corr1 = 1 - beta1 ** step
                corr2 = 1 - beta2 ** step
                W -= lr * (mW / corr1) / (np.sqrt(vW / corr2) + eps)
                b -= lr * (mb / corr1) / (np.sqrt(vb / corr2) + eps)
    W0, b0 = layers[0]
    layers[0] = (W0 / sd[:, None], b0 - (mu / sd) @ W0)
    return MlpModel(layers, h["activation"], feature_names)


class TestMlp:
    @pytest.mark.parametrize("d, hidden, batch", [
        (3, (2,), 32),            # 40 rows: a short last batch of 8
        (5, (7,), 1000),          # one batch per epoch
        (3, (512, 256, 128), 7),  # the default sizes; a last batch of 5
    ])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_in_place_adam_matches_the_per_layer_loop(self, d, hidden, batch, activation):
        m = two_class_matrix(22, 18, d=d, seed=29)
        spec = ModelSpec("mlp", {"hidden_layer_sizes": hidden, "activation": activation,
                                 "batch_size": batch, "max_iterations": 3,
                                 "learning_rate": 0.01}, seed=4)
        expected = _per_layer_adam_fit(m.values, m.target, spec, m.column_names)
        assert (json.dumps(serialize_model(fit_model(spec, m)), sort_keys=True)
                == json.dumps(serialize_model(expected), sort_keys=True))

    def test_analytic_gradients_match_finite_differences(self):
        rng = child_rng(0, 99)
        layers = init_layers((3, 2, 1), rng)
        X = rng.normal(size=(12, 3))
        y = rng.integers(0, 2, size=12).astype(float)

        _, grads = mlp_loss_and_grads(layers, "tanh", X, y)
        eps = 1e-6
        for li, (W, b) in enumerate(layers):
            for arr, g in ((W, grads[li][0]), (b, grads[li][1])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + eps
                    up, _ = mlp_loss_and_grads(layers, "tanh", X, y)
                    arr[idx] = orig - eps
                    dn, _ = mlp_loss_and_grads(layers, "tanh", X, y)
                    arr[idx] = orig
                    numeric = (up - dn) / (2 * eps)
                    denom = max(abs(numeric), abs(g[idx]), 1e-8)
                    assert abs(numeric - g[idx]) / denom < 1e-4

    def test_relu_gradients_too(self):
        rng = child_rng(1, 99)
        layers = init_layers((2, 3, 1), rng)
        X = rng.normal(size=(10, 2)) + 0.1  # avoid kinks at exactly 0
        y = rng.integers(0, 2, size=10).astype(float)
        _, grads = mlp_loss_and_grads(layers, "relu", X, y)
        eps = 1e-6
        W = layers[0][0]
        g = grads[0][0]
        orig = W[0, 0]
        W[0, 0] = orig + eps
        up, _ = mlp_loss_and_grads(layers, "relu", X, y)
        W[0, 0] = orig - eps
        dn, _ = mlp_loss_and_grads(layers, "relu", X, y)
        W[0, 0] = orig
        assert (up - dn) / (2 * eps) == pytest.approx(g[0, 0], rel=1e-3, abs=1e-8)

    def test_learns_separable_data(self):
        m = two_class_matrix(50, 50, seed=24)
        model = fit_model(fast_spec("mlp"), m)
        probs = predict_proba(model, m)
        assert np.mean((probs >= 0.5).astype(int) == m.target) >= 0.85

    def test_invalid_activation(self):
        m = two_class_matrix(10, 10)
        with pytest.raises(LearnerError):
            fit_model(ModelSpec("mlp", {"activation": "swish"}), m)

    def test_fit_info_reports_the_epoch_cap_and_losses(self):
        m = two_class_matrix(20, 20, seed=26)
        spec = ModelSpec("mlp", {"hidden_layer_sizes": (4,), "max_iterations": 30,
                                 "batch_size": 40, "learning_rate": 0.05}, seed=3)
        model = fit_model(spec, m)
        info = model.fit_info
        assert (info["iterations"], info["converged"]) == (30, False)
        assert len(info["epoch_losses"]) == 30 and info["loss"] == info["epoch_losses"][-1]
        assert info["loss"] < info["epoch_losses"][0]
        # one batch per epoch: the first epoch's loss is that of the initial weights
        X = m.values
        sd = X.std(axis=0)
        layers = init_layers((3, 4, 1), child_rng(3, 4))
        first, _ = mlp_loss_and_grads(layers, "tanh", (X - X.mean(axis=0)) / sd,
                                      m.target.astype(float))
        assert info["epoch_losses"][0] == pytest.approx(first, rel=1e-12)
        assert deserialize_model(serialize_model(model)).fit_info == {}


class TestSerialization:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_round_trip_is_bit_exact(self, algorithm, tmp_path):
        m = two_class_matrix(30, 20, seed=25)
        model = fit_model(fast_spec(algorithm), m)
        path = tmp_path / f"{algorithm}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.algorithm == algorithm
        assert loaded.feature_names == model.feature_names
        np.testing.assert_array_equal(predict_proba(loaded, m), predict_proba(model, m))

    def test_unknown_version_rejected(self):
        m = two_class_matrix(10, 10)
        doc = serialize_model(fit_model(ModelSpec("naive-bayes"), m))
        doc["version"] = 999
        with pytest.raises(LearnerError, match="version"):
            deserialize_model(doc)

    def test_wrong_format_rejected(self):
        with pytest.raises(LearnerError, match="not a model"):
            deserialize_model({"format": "something-else", "version": 1})

    def test_document_is_json_serializable(self):
        m = two_class_matrix(15, 10, seed=26)
        spec = fast_spec("gbt", categorical_handling="ordered-target-stats",
                         categorical_features=(0,))
        doc = serialize_model(fit_model(spec, m))
        json.dumps(doc)  # must not raise


def _categorical_matrix():
    """Twelve integer-coded columns, so encoder keys "10" and "11" sort before "2"."""
    rng = np.random.default_rng(11)
    X = rng.integers(0, 4, size=(120, 12)).astype(float)
    y = ((X[:, 0] + X[:, 10] + rng.normal(0.0, 1.0, size=120)) > 3.0).astype(np.int64)
    return EncodedMatrix(X, y, tuple(f"c{j}" for j in range(12)), np.arange(120))


def _criterion_11_train():
    """The criterion-11 training rows: 2,000 synthetic rows (seed 7), split and
    SMOTEd at seed 0, 2,666 rows whose columns have 439 to 2,666 distinct values."""
    matrix, _ = label_encode(synthetic_dataset(2000, seed=7, imbalance=5.0))
    return smote(stratified_split(matrix, 0.2, seed=0)[0], seed=0)


# (spec, data, sha256 of the sorted-key JSON model document), recorded before
# every learner's document was written and read through TrainedModel.state
# (gbt-binned: before binned split search subsampled the candidates itself;
# mlp-default: before Adam updated each parameter array in place).
# numpy 2.4.6 recorded every digest. A document that numpy's exp, log or tanh reach
# has one digest per kernel level (conftest.kernel_level): X86_V4, the AVX-512
# kernels, and X86_V3, the AVX2 ones (recorded under NPY_DISABLE_CPU_FEATURES=
# "AVX512_SPR AVX512_ICL X86_V4"); the others are the same at both levels.
DOCUMENT_DIGESTS = {
    "logistic": (ModelSpec("logistic", {"C": 0.5}), _tie_heavy_matrix,
                 {"X86_V4": "c60de61292531b687c96586721d6ee6bb3e0b479d72f5115bebaa7fbb066ce5f",
                  "X86_V3": "f45ae81d699e5bc0a2bcd9854652dfdba32cfba83dcb75d44ba2a20eff87e596"}),
    "decision-tree": (ModelSpec("decision-tree", {"max_depth": 4}), _tie_heavy_matrix,
                      "f6c86514149ebd7bc675063ada010924e7b96acaadd466a8451c1f24251d7855"),
    "random-forest": (ModelSpec("random-forest", {"n_estimators": 3, "max_depth": 4}, seed=1),
                      _tie_heavy_matrix,
                      "4ca645b6459787a6bafe2aa018964935198906a6882e2759f042ccf9de7f69b1"),
    "gbt": (ModelSpec("gbt", {"n_estimators": 8, "learning_rate": 0.1}), _tie_heavy_matrix,
            {"X86_V4": "9c3dc48d5b844e5a646d1be697037123656c0f4d677b7b4823932582a70124bb",
             "X86_V3": "57da65eba1606083734afc880fda14bac53cb1512abaebcfadd62c2fa491fecf"}),
    "svm": (ModelSpec("svm", {"max_passes": 2}), _tie_heavy_matrix,
            {"X86_V4": "56ade11a26a5ca95df7cdde6db440a870824661bb4c931c54571290ea26a8123",
             "X86_V3": "70d8265789e98a1f976d90df9216d41532ec072f3efdb0d54984b66bf9f787de"}),
    "naive-bayes": (ModelSpec("naive-bayes"), _tie_heavy_matrix,
                    "1252f29b2d6801d412bbf56b2aa8e5cb154e5eff922564461f86bacaec9902ee"),
    "knn": (ModelSpec("knn", {"n_neighbors": 5}), _tie_heavy_matrix,
            "d43dacefb7fada1c125506bc49a133bdd977eb7efebbe4d09a9569e8dd466978"),
    "mlp": (ModelSpec("mlp", {"hidden_layer_sizes": (6, 4), "max_iterations": 3}, seed=2),
            _tie_heavy_matrix,
            "e15b19cbd6cb6568be60b7d02a55fbbd23c7d21644d23606eb7083214aa0de0a"),
    "mlp-default": (ModelSpec("mlp", {"max_iterations": 2}), _criterion_11_train,
                    {"X86_V4": "573668d960bd9cf3714d66fd09ef38ba87575d6c0b1d1f688237a0eea7ce5bf7",
                     "X86_V3": "3581154e8e550cd62a1741bc0fe1721a24cac17f2a60153d69d76679ee6e07f3"}),
    "gbt-ordered-target-stats": (
        ModelSpec("gbt", {"n_estimators": 4, "categorical_handling": "ordered-target-stats",
                          "categorical_features": tuple(range(12))}, seed=3),
        _categorical_matrix,
        {"X86_V4": "f363a8be5d802a3e02aadce0e77a3b9aa05ab92daa6fe43c1c978fa4e5c6f55c",
         "X86_V3": "cd79d53dbaf5f4225848915bd92a6626ec838e2454e08d5f53e342e68e273651"}),
    "gbt-binned": (ModelSpec("gbt", {"n_estimators": 20, "learning_rate": 0.1, "bins": 16}),
                   _criterion_11_train,
                   {"X86_V4": "ed8cfb69627650c4e7046f92af7736bce54b457b36f3e089ee729f42e13605d3",
                    "X86_V3": "5fd6bd33eed8c74b87cfa7257271164e5c7f8ab75c58ae3c696d2ff8efa4bc7c"}),
    "stacking": (StackingSpec((ModelSpec("naive-bayes"), ModelSpec("gbt", {"n_estimators": 4})),
                              oof_folds=3, seed=1), _tie_heavy_matrix,
                 {"X86_V4": "ae8941cd5a0f813bfadb353571d5e54a3b1e4743ae53f5cb89d3290f9350586a",
                  "X86_V3": "21cb9ac25fdd1a42919538ba6dac360cf6427b00f6d9f4d065ca9f55d6897d73"}),
}


@functools.cache
def _pinned_document(case: str) -> str:
    spec, data, _ = DOCUMENT_DIGESTS[case]
    return json.dumps(serialize_model(fit_model(spec, data())), sort_keys=True)


def _damaged(case: str, damage) -> dict:
    doc = json.loads(_pinned_document(case))
    damage(doc)
    return doc


def _resize(key, n):
    """Damage: params[key] cut, or repeated and cut, to n rows."""
    return lambda d: d["params"].update({key: (d["params"][key] * n)[:n]})


# (case, what the damage does, damage): values of the wrong type, shape or range
_WRONG_TYPES = [
    ("naive-bayes", "priors not numbers", lambda d: d["params"].update(priors="ab")),
    ("decision-tree", "root not a tree", lambda d: d["params"].update(root=3)),
    ("random-forest", "trees not a list", lambda d: d["params"].update(trees=4)),
    ("gbt", "split record not a list", lambda d: d["params"].update(split_records=[1])),
    ("gbt-ordered-target-stats", "encoders not a mapping",
     lambda d: d["params"].update(cat_encoders=[])),
    ("svm", "support vectors of the wrong width",
     lambda d: d["params"].update(support_vectors=[[1.0]])),
    ("mlp", "layer not a (W, b) pair", lambda d: d["params"].update(layers=[[1]])),
    ("knn", "feature names not a list", lambda d: d.update(feature_names=5)),
    ("logistic", "params not a mapping", lambda d: d.update(params=[])),
    ("stacking", "out-of-fold matrix not numbers",
     lambda d: d["params"].update(oof_matrix="ab")),
    ("stacking", "base damaged", lambda d: d["params"]["bases"][0]["params"].pop("means")),
    ("knn", "neighbour count not a number", lambda d: d["params"].update(n_neighbors="x")),
    ("gbt", "learning rate not a number", lambda d: d["params"].update(learning_rate="x")),
    ("svm", "intercept not a number", lambda d: d["params"].update(intercept="x")),
    ("svm", "gamma unresolved", lambda d: d["params"].update(gamma="scale")),
    ("svm", "platt slope a bool", lambda d: d["params"].update(platt_a=True)),
    ("knn", "unknown weighting", lambda d: d["params"].update(weights="cosine")),
    ("mlp", "unknown activation", lambda d: d["params"].update(activation="sigmoid")),
    ("naive-bayes", "variances of three classes", _resize("variances", 3)),
    ("naive-bayes", "means of one class", _resize("means", 1)),
    ("knn", "labels of the wrong length", _resize("y", 3)),
    ("svm", "coefficients of the wrong length", _resize("coef", 1)),
    ("logistic", "weights of the wrong length", _resize("weights", 2)),
    ("mlp", "layers that do not chain", lambda d: d["params"]["layers"].pop(1)),
    ("mlp", "no layers", lambda d: d["params"].update(layers=[])),
    ("stacking", "meta-learner over one input for two bases",
     lambda d: d["params"]["bases"].pop()),
    ("stacking", "meta not a document", lambda d: d["params"].update(meta=3)),
    ("decision-tree", "split on a feature past the columns",
     lambda d: d["params"]["root"].update(feature=6)),
    ("random-forest", "split on a negative feature",
     lambda d: d["params"]["trees"][0].update(feature=-1)),
    ("knn", "more neighbours than rows", lambda d: d["params"].update(n_neighbors=161)),
    ("gbt-ordered-target-stats", "encoder of a feature past the columns",
     lambda d: d["params"]["cat_encoders"].update({"12": d["params"]["cat_encoders"]["0"]})),
    ("naive-bayes", "a variance of zero", lambda d: d["params"]["variances"][0].__setitem__(0, 0)),
    ("naive-bayes", "a negative prior", lambda d: d["params"]["priors"].__setitem__(0, -0.5)),
    ("naive-bayes", "a null mean", lambda d: d["params"]["means"][1].__setitem__(0, None)),
    ("svm", "a NaN coefficient", lambda d: d["params"]["coef"].__setitem__(0, float("nan"))),
    ("gbt", "an infinite leaf", lambda d: d["params"]["trees"][0]["left"].update(value=math.inf)),
    ("decision-tree", "split on a fractional feature",
     lambda d: d["params"]["root"].update(feature=d["params"]["root"]["feature"] + 0.5)),
    ("random-forest", "split on a bool feature",
     lambda d: d["params"]["trees"][0].update(feature=True)),
    ("gbt", "split record of a feature past the columns",
     lambda d: d["params"]["split_records"][0].__setitem__(1, 99)),
    ("gbt", "split record of a negative feature",
     lambda d: d["params"]["split_records"][0].__setitem__(1, -1)),
    ("gbt", "split record of a tree past the trees",
     lambda d: d["params"]["split_records"][0].__setitem__(0, 99)),
    ("gbt", "split record gain not a number",
     lambda d: d["params"]["split_records"][0].__setitem__(2, "x")),
    ("decision-tree", "node count not a number", lambda d: d["params"]["root"].update(n="x")),
    ("random-forest", "a node without a count", lambda d: d["params"]["trees"][0].pop("n")),
    ("random-forest", "a negative impurity",
     lambda d: d["params"]["trees"][0]["left"].update(impurity=-1.0)),
    ("random-forest", "no trees", lambda d: d["params"].update(trees=[])),
    *(("gbt-ordered-target-stats", f"an encoder code of {code}",
       lambda d, code=code: d["params"]["cat_encoders"]["0"]["stats"].update({code: 0.5}))
      for code in ("nan", "inf", "-inf")),
]


class TestModelDocuments:
    """Every model's document keeps its bytes, survives a JSON round trip
    byte for byte (TestSerialization checks the predictions), and a damaged
    one raises LearnerError."""

    @pytest.mark.parametrize("case", sorted(DOCUMENT_DIGESTS))
    def test_document_is_pinned(self, case):
        text = _pinned_document(case)
        assert hashlib.sha256(text.encode()).hexdigest() == pinned(DOCUMENT_DIGESTS[case][2])

    @pytest.mark.parametrize("case", sorted(DOCUMENT_DIGESTS))
    def test_json_round_trip_keeps_the_bytes(self, case):
        text = _pinned_document(case)
        restored = deserialize_model(json.loads(text))
        assert json.dumps(serialize_model(restored), sort_keys=True) == text

    def test_too_deep_a_tree_raises(self):
        root = leaf = {"n": 1, "impurity": 0.0, "value": 1.0}
        for _ in range(1100):  # a chain of right children
            root = {**leaf, "feature": 0, "threshold": 0.5, "left": leaf, "right": root}
        with pytest.raises(LearnerError, match="malformed model document"):
            deserialize_model(_damaged("decision-tree", lambda d: d["params"].update(root=root)))

    def test_too_deep_a_file_raises(self, tmp_path):
        leaf = '{"impurity": 0.0, "n": 1, "value": 1.0}'
        split = '{"feature": 0, "impurity": 0.0, "left": %s, "n": 1, "right": ' % leaf
        root = split * 1100 + leaf + ', "threshold": 0.5, "value": 1.0}' * 1100
        doc = _damaged("decision-tree", lambda d: d["params"].update(root="ROOT"))
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc).replace('"ROOT"', root), encoding="utf-8")
        with pytest.raises(LearnerError, match="model document"):
            load_model(path)

    def test_unknown_algorithm_raises(self):
        doc = _damaged("naive-bayes", lambda d: d.update(algorithm="perceptron"))
        with pytest.raises(LearnerError, match="malformed model document"):
            deserialize_model(doc)

    @pytest.mark.parametrize("case, key", [
        (case, key) for case in sorted(DOCUMENT_DIGESTS)
        for key in sorted(json.loads(_pinned_document(case))["params"])
    ])
    def test_missing_state_key_raises(self, case, key):
        doc = _damaged(case, lambda d: d["params"].pop(key))
        with pytest.raises(LearnerError, match="malformed model document"):
            deserialize_model(doc)

    @pytest.mark.parametrize("case, what, damage", _WRONG_TYPES,
                             ids=[f"{c}-{w}" for c, w, _ in _WRONG_TYPES])
    def test_wrong_type_raises(self, case, what, damage):
        with pytest.raises(LearnerError, match="malformed model document"):
            deserialize_model(_damaged(case, damage))

    @pytest.mark.parametrize("algorithm", [*ALGORITHMS, "stacking"])
    def test_state_names_the_constructor_arguments(self, algorithm):
        cls = _model_class(algorithm)
        assert "params_dict" not in vars(cls) and "from_params_dict" not in vars(cls)
        args = list(inspect.signature(cls).parameters)
        assert args[:len(cls.state) + 1] == [*cls.state, "feature_names"]

    @pytest.mark.parametrize("content", [b"\xff\xfe not text", b"{not json"],
                             ids=["not-utf8", "not-json"])
    def test_load_model_of_a_file_that_is_not_json_raises(self, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(LearnerError, match="not a model document"):
            load_model(path)


class TestRandomSearch:
    def make_noisy_matrix(self, seed=27):
        rng = np.random.default_rng(seed)
        n = 240
        X = rng.integers(0, 2, size=(n, 3)).astype(float)
        noise = rng.normal(size=(n, 5))
        y = (X[:, 0].astype(int) & X[:, 1].astype(int))
        flip = rng.uniform(size=n) < 0.1
        y = np.where(flip, 1 - y, y)
        values = np.hstack([X, noise])
        return EncodedMatrix(values, y, tuple(f"f{j}" for j in range(8)), np.arange(n))

    def test_single_point_space(self):
        m = self.make_noisy_matrix()
        best, scores = tune_random_search("decision-tree", {"max_depth": [3]},
                                          m, n_iter=2, folds=3, seed=0)
        assert best.hyperparameters["max_depth"] == 3
        assert len(scores) == 2

    def test_selects_matching_depth(self):
        # conjunction signal plus continuous noise: depth 1 underfits and
        # depth 12 overfits the noise columns
        m = self.make_noisy_matrix()
        best, scores = tune_random_search(
            "decision-tree", {"max_depth": [1, 3, 12], "min_samples_split": [2]},
            m, n_iter=12, folds=5, seed=3,
        )
        sampled = {s.spec.hyperparameters["max_depth"] for s in scores}
        assert sampled == {1, 3, 12}
        assert best.hyperparameters["max_depth"] == 3
        by_depth = {}
        for s in scores:
            by_depth.setdefault(s.spec.hyperparameters["max_depth"], s.mean_accuracy)
        assert by_depth[3] > by_depth[1]
        assert by_depth[3] > by_depth[12]

    def test_deterministic(self):
        m = self.make_noisy_matrix()
        space = {"max_depth": ("randint", 2, 9)}
        b1, s1 = tune_random_search("decision-tree", space, m, n_iter=4, folds=3, seed=9)
        b2, s2 = tune_random_search("decision-tree", space, m, n_iter=4, folds=3, seed=9)
        assert b1 == b2
        assert [s.mean_accuracy for s in s1] == [s.mean_accuracy for s in s2]

    def test_distribution_sampling_respects_bounds(self):
        m = two_class_matrix(40, 30, seed=28)
        space = {"C": ("loguniform", 1e-3, 10.0), "max_iter": [50]}
        best, scores = tune_random_search("logistic", space, m, n_iter=5, folds=3, seed=1)
        for s in scores:
            assert 1e-3 <= s.spec.hyperparameters["C"] <= 10.0

    def test_empty_space_rejected(self):
        m = two_class_matrix(10, 10)
        with pytest.raises(LearnerError):
            tune_random_search("knn", {}, m, n_iter=1, folds=2, seed=0)

    @pytest.mark.parametrize("dist", [("uniform", "a", 3), ("randint", 5, 5), ("randint", 2, 5.5),
                                      ("loguniform", 0, 1), ("uniform", 0.0, math.inf),
                                      ("uniform", 1)])
    def test_malformed_distribution_rejected(self, dist):
        m = two_class_matrix(10, 10)
        with pytest.raises(LearnerError, match="is not"):
            tune_random_search("decision-tree", {"max_depth": dist}, m, n_iter=1, folds=2, seed=0)
