import hashlib
import json

import numpy as np
import pytest

from imbalkit.data import DataError, EncodedMatrix
from imbalkit.learners.base import ModelSpec
from imbalkit.learners.search import tune_random_search
from imbalkit.stacking import StackingSpec, stack_fit
from imbalkit.validation import SmoteSettings, cross_validate, stratified_folds

from conftest import two_class_matrix


class TestStratifiedFolds:
    def test_every_fold_has_both_classes(self):
        rng = np.random.default_rng(0)
        y = np.r_[np.ones(30, int), np.zeros(120, int)]
        assignment = stratified_folds(y, 10, seed=0)
        for f in range(10):
            classes = set(y[assignment == f].tolist())
            assert classes == {0, 1}

    def test_class_fractions_balanced(self):
        y = np.r_[np.ones(40, int), np.zeros(160, int)]
        assignment = stratified_folds(y, 5, seed=1)
        for f in range(5):
            in_fold = y[assignment == f]
            assert abs(in_fold.mean() - 0.2) < 1.0 / in_fold.size + 1e-9

    def test_assignment_partitions_all_rows(self):
        y = np.r_[np.ones(15, int), np.zeros(45, int)]
        assignment = stratified_folds(y, 3, seed=2)
        counts = np.bincount(assignment, minlength=3)
        assert counts.sum() == 60
        assert counts.max() - counts.min() <= 2

    def test_deterministic(self):
        y = np.r_[np.ones(20, int), np.zeros(40, int)]
        a = stratified_folds(y, 4, seed=7)
        b = stratified_folds(y, 4, seed=7)
        assert np.array_equal(a, b)

    def test_too_many_folds(self):
        y = np.r_[np.ones(3, int), np.zeros(50, int)]
        with pytest.raises(DataError, match="minority"):
            stratified_folds(y, 5, seed=0)

    def test_too_few_folds(self):
        with pytest.raises(DataError):
            stratified_folds(np.array([0, 1, 0, 1]), 1, seed=0)


class TestCrossValidate:
    def test_validation_rows_are_all_original_under_smote(self):
        m = two_class_matrix(25, 100, seed=1)
        run = cross_validate(ModelSpec("naive-bayes"), m, folds=10,
                             resampler=SmoteSettings(), seed=3)
        assert run.resampled
        for ids in run.validation_row_ids:
            assert np.all(ids >= 0), "synthetic rows leaked into a validation fold"
        all_ids = np.concatenate(run.validation_row_ids)
        assert sorted(all_ids.tolist()) == sorted(m.row_ids.tolist())

    def test_report_count_matches_folds(self):
        m = two_class_matrix(30, 60, seed=2)
        run = cross_validate(ModelSpec("naive-bayes"), m, folds=6, seed=0)
        assert len(run.reports) == 6
        assert run.accuracies.shape == (6,)
        assert np.array_equal(run.metric("accuracy"), run.accuracies)

    def test_deterministic(self):
        m = two_class_matrix(20, 60, seed=3)
        r1 = cross_validate(ModelSpec("decision-tree"), m, folds=4,
                            resampler=SmoteSettings(), seed=11)
        r2 = cross_validate(ModelSpec("decision-tree"), m, folds=4,
                            resampler=SmoteSettings(), seed=11)
        assert np.array_equal(r1.accuracies, r2.accuracies)
        assert np.array_equal(r1.fold_assignment, r2.fold_assignment)

    def test_signal_beats_shuffled_labels(self):
        m = two_class_matrix(40, 120, seed=4)
        rng = np.random.default_rng(0)
        shuffled = EncodedMatrix(m.values, rng.permutation(m.target),
                                 m.column_names, m.row_ids)
        real = cross_validate(ModelSpec("naive-bayes"), m, folds=5, seed=0)
        null = cross_validate(ModelSpec("naive-bayes"), shuffled, folds=5, seed=0)
        assert real.accuracies.mean() > null.accuracies.mean()

    def test_unsupported_spec_type(self):
        m = two_class_matrix(10, 20)
        with pytest.raises(TypeError):
            cross_validate(object(), m, folds=2)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _cv_run_doc():
    run = cross_validate(ModelSpec("decision-tree", {"max_depth": 4}, seed=2),
                         two_class_matrix(24, 70, seed=21), folds=4,
                         resampler=SmoteSettings(), seed=5)
    return {"reports": [r.to_dict() for r in run.reports],
            "validation_row_ids": [ids.tolist() for ids in run.validation_row_ids]}


def _stack_doc():
    spec = StackingSpec(base_specs=(ModelSpec("naive-bayes"),
                                    ModelSpec("decision-tree", {"max_depth": 3}, seed=1)),
                        oof_folds=3, seed=6, resampler=SmoteSettings(k_neighbors=3))
    model = stack_fit(spec, two_class_matrix(20, 64, seed=22))
    return {"oof_matrix": model.oof_matrix.tolist(),
            "oof_fold_assignment": model.oof_fold_assignment.tolist()}


def _search_doc():
    _, scores = tune_random_search("decision-tree",
                                   {"max_depth": [2, 3, 5], "min_samples_split": ["randint", 2, 9]},
                                   two_class_matrix(22, 66, seed=23), n_iter=3, folds=3,
                                   seed=7, resampler=SmoteSettings())
    return [[sorted(c.spec.hyperparameters.items()), c.mean_accuracy, list(c.fold_accuracies)]
            for c in scores]


# sha256 of the sorted-key JSON results, recorded when cross-validation and the
# stack's out-of-fold loop each ran their own partition-and-SMOTE loop: the
# fold engine they now share must keep every fold seed and every number
FOLD_ENGINE_DIGESTS = {
    "cross-validate": (_cv_run_doc,
                      "24e3ef9848285bd1c206cb0ef6cfc65cceddf4a134e28e4f4944d0cdc8b48895"),
    "stack-oof": (_stack_doc,
                 "364a47c742bacbc0d70054dcc2d5611b0c7dfdb6156ff814db0f4092e4eb7ee7"),
    "random-search": (_search_doc,
                     "2e74c7c378b763eac89e3d9ec0b92193e77254c122a7d52ba1fe3f3674a957a6"),
}


@pytest.mark.parametrize("case", sorted(FOLD_ENGINE_DIGESTS))
def test_fold_engine_is_pinned(case):
    build, digest = FOLD_ENGINE_DIGESTS[case]
    assert _digest(build()) == digest
