import numpy as np
import pytest

from imbalkit.data import EncodedMatrix
from imbalkit.learners.base import (
    LearnerError,
    ModelSpec,
    TrainedModel,
    deserialize_model,
    fit_model,
    load_model,
    predict_proba,
    save_model,
    serialize_model,
)
from imbalkit.learners.linear import LogisticModel
from imbalkit.metrics import evaluate
from imbalkit.stacking import StackedModel, StackingSpec, stack_fit, stack_predict_proba
from imbalkit.validation import SmoteSettings, cross_validate, stratified_folds

from conftest import two_class_matrix


def simple_spec(*algorithms, folds=3, seed=0, resampler=None):
    return StackingSpec(
        base_specs=tuple(ModelSpec(a, seed=seed) for a in algorithms),
        oof_folds=folds,
        seed=seed,
        resampler=resampler,
    )


class TestSpecValidation:
    def test_needs_a_base(self):
        with pytest.raises(LearnerError):
            StackingSpec(base_specs=())

    def test_meta_must_be_logistic(self):
        with pytest.raises(LearnerError, match="logistic"):
            StackingSpec(base_specs=(ModelSpec("knn"),),
                         meta_spec=ModelSpec("naive-bayes"))

    def test_minimum_folds(self):
        with pytest.raises(LearnerError):
            StackingSpec(base_specs=(ModelSpec("knn"),), oof_folds=1)


class TestStackFit:
    def test_oof_matrix_shape_and_range(self):
        m = two_class_matrix(30, 60, seed=0)
        model = stack_fit(simple_spec("naive-bayes", "decision-tree"), m)
        assert model.oof_matrix.shape == (90, 2)
        assert np.all((model.oof_matrix >= 0) & (model.oof_matrix <= 1))
        assert model.base_algorithms == ("naive-bayes", "decision-tree")

    def test_oof_purity_no_fold_model_saw_its_rows(self):
        """Each row's OOF value must come from a model trained without it.

        A memorizer base that returns the training label for any row it has
        seen (and 0.5 otherwise) makes leakage observable: with honest OOF
        construction every entry is exactly 0.5."""
        m = two_class_matrix(30, 60, seed=1)

        class Memorizer(TrainedModel):
            algorithm = "naive-bayes"

            def __init__(self, train):
                super().__init__(train.column_names)
                self.seen = {v.tobytes(): t for v, t in zip(train.values, train.target)}

            def predict_proba_values(self, values):
                return np.array([
                    float(self.seen.get(row.tobytes(), 0.5)) for row in values
                ])

        spec = simple_spec("naive-bayes")
        model = stack_fit(spec, m, base_fit=lambda s, tr: Memorizer(tr))
        np.testing.assert_array_equal(model.oof_matrix[:, 0], 0.5)

    def test_smote_applied_inside_folds_only(self):
        m = two_class_matrix(15, 60, seed=2)
        seen_sizes = []

        def spy(spec, tr):
            seen_sizes.append(tr.n_rows)
            # resampled training partitions are exactly balanced
            counts = np.bincount(tr.target, minlength=2)
            assert counts[0] == counts[1]
            return fit_model(spec, tr)

        stack_fit(simple_spec("naive-bayes", resampler=SmoteSettings()), m,
                  base_fit=spy)
        # 3 fold fits plus 1 full refit, each on balanced data
        assert len(seen_sizes) == 4

    def test_base_failure_names_the_base(self):
        m = two_class_matrix(20, 40, seed=3)

        def broken(spec, tr):
            raise RuntimeError("boom")

        with pytest.raises(LearnerError, match=r"base 0 \(naive-bayes\) failed"):
            stack_fit(simple_spec("naive-bayes"), m, base_fit=broken)

    def test_strong_base_dominates_predictions(self):
        m = two_class_matrix(50, 50, seed=4)
        spec = simple_spec("naive-bayes", folds=5)
        model = stack_fit(spec, m)
        base_probs = model.bases[0].predict_proba_values(m.values)
        stacked = stack_predict_proba(model, m)
        # a monotone meta map preserves the base's class decisions when the
        # base is informative
        agree = np.mean((stacked >= 0.5) == (base_probs >= 0.5))
        assert agree >= 0.95

    def test_constant_bases_degenerate_to_majority_vote(self):
        m = two_class_matrix(60, 20, seed=5)

        class Constant(TrainedModel):
            algorithm = "naive-bayes"

            def __init__(self, names):
                super().__init__(names)

            def predict_proba_values(self, values):
                return np.full(values.shape[0], 0.5)

        spec = simple_spec("naive-bayes", "knn")
        model = stack_fit(spec, m, base_fit=lambda s, tr: Constant(tr.column_names))
        stacked = stack_predict_proba(model, m)
        # meta reduces to its intercept; everything gets the majority class
        assert np.all((stacked >= 0.5).astype(int) == 0)
        assert np.allclose(stacked, stacked[0])

    def test_equal_weights_on_duplicate_bases_match_single_base(self):
        # sigma(b + w p + w p) == sigma(b + 2w p): feeding one base twice with
        # half the weight each reproduces the single-base stack exactly
        m = two_class_matrix(30, 30, seed=6)
        base = fit_model(ModelSpec("naive-bayes"), m)
        w, b = 1.7, -0.4
        dup = StackedModel(
            [base, base],
            LogisticModel(b, np.array([w / 2, w / 2]), "l2", 1.0, ("p0", "p1")),
            np.zeros((60, 2)), np.zeros(60, dtype=np.int64),
            m.column_names,
        )
        single = StackedModel(
            [base],
            LogisticModel(b, np.array([w]), "l2", 1.0, ("p0",)),
            np.zeros((60, 1)), np.zeros(60, dtype=np.int64),
            m.column_names,
        )
        np.testing.assert_allclose(stack_predict_proba(dup, m),
                                   stack_predict_proba(single, m), atol=1e-9)

    def test_bases_must_take_the_stack_features(self):
        m = two_class_matrix(30, 30, seed=6)
        base = fit_model(ModelSpec("naive-bayes"), m)
        meta = LogisticModel(0.0, np.array([1.0]), "l2", 1.0, ("p0",))
        StackedModel([base], meta, np.zeros((60, 1)), np.zeros(60), m.column_names)
        with pytest.raises(ValueError, match="bases"):
            StackedModel([base], meta, np.zeros((60, 1)), np.zeros(60), m.column_names[1:])

    def test_deterministic(self):
        m = two_class_matrix(30, 60, seed=7)
        spec = simple_spec("naive-bayes", "decision-tree", seed=12)
        p1 = stack_predict_proba(stack_fit(spec, m), m)
        p2 = stack_predict_proba(stack_fit(spec, m), m)
        assert np.array_equal(p1, p2)


class TestPoison:
    def test_memorizer_base_cannot_inflate_shuffled_label_accuracy(self):
        """Label-shuffled data carries no signal, so a base that memorizes its
        training rows must not let the stack score above chance under honest
        cross-validation."""
        rng = np.random.default_rng(0)
        m = two_class_matrix(75, 75, seed=8)
        shuffled = EncodedMatrix(m.values, rng.permutation(m.target),
                                 m.column_names, m.row_ids)

        class Memorizer(TrainedModel):
            algorithm = "knn"

            def __init__(self, train):
                super().__init__(train.column_names)
                self.seen = {v.tobytes(): t for v, t in zip(train.values, train.target)}

            def predict_proba_values(self, values):
                return np.array([
                    float(self.seen.get(row.tobytes(), 0.5)) for row in values
                ])

        def base_fit(spec, tr):
            if spec.algorithm == "knn":
                return Memorizer(tr)
            return fit_model(spec, tr)

        spec = StackingSpec(
            base_specs=(ModelSpec("knn"), ModelSpec("naive-bayes")),
            oof_folds=3, seed=0,
        )
        outer = stratified_folds(shuffled.target, 5, seed=1)
        accs = []
        for f in range(5):
            tr = shuffled.take(np.flatnonzero(outer != f))
            va = shuffled.take(np.flatnonzero(outer == f))
            model = stack_fit(spec, tr, base_fit=base_fit)
            probs = stack_predict_proba(model, va)
            accs.append(float(np.mean((probs >= 0.5).astype(int) == va.target)))
        assert float(np.mean(accs)) <= 0.57


class TestEstimatorContract:
    def test_fit_model_matches_stack_fit(self):
        m = two_class_matrix(30, 60, seed=11)
        spec = simple_spec("naive-bayes", "decision-tree", seed=4, resampler=SmoteSettings())
        via_contract = fit_model(spec, m)
        direct = stack_fit(spec, m)
        assert isinstance(via_contract, TrainedModel)
        assert via_contract.algorithm == "stacking"
        assert via_contract.feature_names == m.column_names
        np.testing.assert_array_equal(via_contract.oof_matrix, direct.oof_matrix)
        np.testing.assert_array_equal(predict_proba(via_contract, m),
                                      stack_predict_proba(direct, m))
        # raw value matrices are accepted too
        np.testing.assert_array_equal(predict_proba(via_contract, m.values),
                                      stack_predict_proba(direct, m))

    def test_feature_dimension_checked(self):
        m = two_class_matrix(20, 30, seed=12)
        model = fit_model(simple_spec("naive-bayes"), m)
        with pytest.raises(LearnerError, match="dimension"):
            predict_proba(model, m.values[:, :2])

    def test_cross_validate_equals_per_fold_stack_fit(self):
        """A stack SMOTEs inside its own out-of-fold partitions, so each outer
        fold fits it on the raw partition, not the SMOTEd one plain specs get."""
        m = two_class_matrix(24, 60, seed=13)
        spec = simple_spec("naive-bayes", "decision-tree", seed=2, resampler=SmoteSettings())
        run = cross_validate(spec, m, folds=4, resampler=SmoteSettings(), seed=9)

        assignment = stratified_folds(m.target, 4, 9)
        for f in range(4):
            fold_train = m.take(np.flatnonzero(assignment != f))
            fold_val = m.take(np.flatnonzero(assignment == f))
            probs = stack_predict_proba(stack_fit(spec, fold_train), fold_val)
            assert run.reports[f] == evaluate(probs, fold_val.target)


class TestStackedSerialization:
    def test_round_trip(self, tmp_path):
        m = two_class_matrix(30, 45, seed=9)
        model = stack_fit(simple_spec("naive-bayes", "decision-tree"), m)
        save_model(model, tmp_path / "stack.json")
        for loaded in (deserialize_model(serialize_model(model)),
                       load_model(tmp_path / "stack.json")):
            assert isinstance(loaded, StackedModel)
            np.testing.assert_array_equal(predict_proba(loaded, m),
                                          predict_proba(model, m))
            assert loaded.base_algorithms == model.base_algorithms
            np.testing.assert_array_equal(loaded.oof_matrix, model.oof_matrix)
            np.testing.assert_array_equal(loaded.oof_fold_assignment,
                                          model.oof_fold_assignment)

    def test_version_rejected(self):
        m = two_class_matrix(20, 30, seed=10)
        doc = serialize_model(stack_fit(simple_spec("naive-bayes"), m))
        doc["version"] = 2
        with pytest.raises(LearnerError, match="version"):
            deserialize_model(doc)
        doc["version"] = 1
        doc["params"]["bases"][0]["version"] = 2
        with pytest.raises(LearnerError, match="version"):
            deserialize_model(doc)

    def test_format_rejected(self):
        with pytest.raises(LearnerError):
            deserialize_model({"format": "nope", "version": 1})
