import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from imbalkit.data import DataError, EncodedMatrix
from imbalkit.learners import base
from imbalkit.learners.base import LearnerError, ModelSpec, fit_cost, map_ordered
from imbalkit.learners.search import tune_random_search
from imbalkit.stacking import StackingSpec, stack_fit
from imbalkit.validation import (CvRun, SmoteSettings, cross_validate, cross_validate_many,
                                 stratified_folds)

from conftest import pinned, two_class_matrix


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
# fold engine they now share must keep every fold seed and every number.
# numpy 2.4.6 recorded every digest; the stack's, which numpy's exp reaches
# through its logistic meta-learner, once per kernel level (conftest.kernel_level):
# X86_V4, the AVX-512 kernels, and X86_V3, the AVX2 ones (recorded under
# NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4").
FOLD_ENGINE_DIGESTS = {
    "cross-validate": (_cv_run_doc,
                      "24e3ef9848285bd1c206cb0ef6cfc65cceddf4a134e28e4f4944d0cdc8b48895"),
    "stack-oof": (_stack_doc,
                 {"X86_V4": "364a47c742bacbc0d70054dcc2d5611b0c7dfdb6156ff814db0f4092e4eb7ee7",
                  "X86_V3": "dc1cc404a409934220a20ad3a89f4d4dba0c7e682d9b27944ddb703b47ff590c"}),
    "random-search": (_search_doc,
                     "2e74c7c378b763eac89e3d9ec0b92193e77254c122a7d52ba1fe3f3674a957a6"),
}


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}-workers")
def workers(request, monkeypatch):
    """map_ordered sees this many CPUs; never more than 3, so no test starts a
    large pool."""
    monkeypatch.setattr(base, "_available_cpus", lambda: request.param)
    return request.param


@pytest.mark.parametrize("case", sorted(FOLD_ENGINE_DIGESTS))
def test_fold_engine_is_pinned(case):
    build, digest = FOLD_ENGINE_DIGESTS[case]
    assert _digest(build()) == pinned(digest)


@pytest.mark.parametrize("case", sorted(FOLD_ENGINE_DIGESTS))
def test_fold_engine_pins_hold_at_every_worker_count(case, workers):
    build, digest = FOLD_ENGINE_DIGESTS[case]
    assert _digest(build()) == pinned(digest)


def _many_doc():
    specs = (ModelSpec("naive-bayes"), ModelSpec("decision-tree", {"max_depth": 3}, seed=4),
             StackingSpec(base_specs=(ModelSpec("naive-bayes"), ModelSpec("logistic")),
                          oof_folds=3, seed=1, resampler=SmoteSettings(k_neighbors=3)))
    runs = cross_validate_many(specs, two_class_matrix(21, 63, seed=24), folds=3,
                               resampler=SmoteSettings(), seed=8)
    return [{"reports": [r.to_dict() for r in run.reports],
             "fold_assignment": run.fold_assignment.tolist(),
             "validation_row_ids": [ids.tolist() for ids in run.validation_row_ids]}
            for run in runs]


class TestCrossValidateMany:
    def test_bit_identical_at_every_worker_count(self, workers, monkeypatch):
        doc = _many_doc()
        monkeypatch.setattr(base, "_available_cpus", lambda: 1)
        assert doc == _many_doc()
        assert multiprocessing.active_children() == []

    def test_each_spec_matches_its_own_cross_validate(self):
        m = two_class_matrix(18, 54, seed=25)
        specs = (ModelSpec("naive-bayes"), ModelSpec("decision-tree", {"max_depth": 2}))
        for spec, run in zip(specs, cross_validate_many(specs, m, folds=3,
                                                        resampler=SmoteSettings(), seed=2)):
            alone = cross_validate(spec, m, folds=3, resampler=SmoteSettings(), seed=2)
            assert [r.to_dict() for r in run.reports] == [r.to_dict() for r in alone.reports]
            assert np.array_equal(run.fold_assignment, alone.fold_assignment)

    def test_units_reach_the_pool_costliest_first_and_return_in_spec_order(self, monkeypatch):
        import imbalkit.validation

        pooled = []

        def serial(fn, items, costs):
            # the order map_ordered dispatches in: by cost, highest first, stable
            pooled.extend(items[i][0] for i in sorted(range(len(items)), key=lambda i: -costs[i]))
            return [fn(item) for item in items]
        monkeypatch.setattr(imbalkit.validation, "map_ordered", serial)
        nb, other = ModelSpec("naive-bayes"), object()
        small = StackingSpec(base_specs=(nb,), oof_folds=2)
        large = StackingSpec(base_specs=(nb, ModelSpec("logistic")), oof_folds=3, seed=1)
        cost = base.FIT_SECONDS
        assert (fit_cost(small), fit_cost(large)) == (
            3 * cost["naive-bayes"], 4 * (cost["naive-bayes"] + cost["logistic"]))
        specs = (nb, small, other, large)
        m = two_class_matrix(12, 36, seed=28)
        runs = cross_validate_many(specs, m, folds=3, seed=5)
        assert pooled == [large] * 3 + [small] * 3 + [nb] * 3 + [other] * 3
        assert isinstance(runs[2], TypeError)
        for spec, run in zip(specs[:2] + specs[3:], runs[:2] + runs[3:]):
            alone = cross_validate(spec, m, folds=3, seed=5)
            assert [r.to_dict() for r in run.reports] == [r.to_dict() for r in alone.reports]

    def test_a_failing_spec_leaves_the_others_running(self, workers):
        m = two_class_matrix(12, 36, seed=26)
        bad = ModelSpec("gbt", {"categorical_handling": "ordered-target-stats",
                                "categorical_features": [99]})
        ok, failed, none = cross_validate_many((ModelSpec("naive-bayes"), bad, object()), m,
                                               folds=3)
        assert isinstance(ok, CvRun) and len(ok.reports) == 3
        assert isinstance(failed, LearnerError) and "99" in str(failed)
        assert isinstance(none, TypeError)

    def test_a_spec_fails_with_its_first_failing_fold(self, workers, monkeypatch):
        import imbalkit.validation

        m = two_class_matrix(12, 36, seed=27)
        assignment = stratified_folds(m.target, 3, seed=0)
        first_held_out = [m.row_ids[assignment == f][0] for f in range(3)]
        real_fit = imbalkit.validation.fit_model

        def fit(spec, train):
            fold = next(f for f, i in enumerate(first_held_out) if i not in train.row_ids)
            if fold == 0:
                return real_fit(spec, train)
            raise ValueError(f"fold {fold}")
        monkeypatch.setattr(imbalkit.validation, "fit_model", fit)
        with pytest.raises(ValueError, match="^fold 1$"):
            cross_validate(ModelSpec("naive-bayes"), m, folds=3)

    def test_a_partition_fault_stops_every_spec(self):
        m = two_class_matrix(2, 30)
        runs = cross_validate_many((ModelSpec("naive-bayes"), ModelSpec("knn")), m, folds=3)
        assert [type(r) for r in runs] == [DataError, DataError]
        with pytest.raises(DataError, match="minority"):
            cross_validate(ModelSpec("naive-bayes"), m, folds=3)

    @pytest.mark.parametrize("spec", [
        object(),
        ModelSpec("gbt", {"categorical_handling": "ordered-target-stats",
                          "categorical_features": [99]}),
    ], ids=["TypeError", "LearnerError"])
    def test_worker_errors_surface_as_in_the_serial_loop(self, spec, monkeypatch):
        m = two_class_matrix(10, 20)
        raised = []
        for n in (1, 2):
            monkeypatch.setattr(base, "_available_cpus", lambda: n)
            with pytest.raises(Exception) as info:
                cross_validate(spec, m, folds=2)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] in (TypeError, LearnerError)
        assert multiprocessing.active_children() == []


class TestMapOrdered:
    def test_results_in_item_order_from_worker_processes(self, workers):
        items = list(range(7))

        def fn(i):
            time.sleep(0.01 * (7 - i))  # later items finish first
            return i * i, os.getpid()
        results = map_ordered(fn, items)
        assert [r for r, _ in results] == [i * i for i in items]
        pids = {pid for _, pid in results}
        if workers == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids and 1 <= len(pids) <= workers
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n", [2, 3])
    def test_costs_dispatch_the_costliest_first_and_results_return_in_item_order(
            self, monkeypatch, tmp_path, n):
        """The pool's queue is first in, first out, so each worker starts its
        items in dispatch order: costliest first, whichever worker takes them."""
        monkeypatch.setattr(base, "_available_cpus", lambda: n)
        costs = [1.0, 5.0, 3.0, 6.0, 2.0, 4.0]
        log = tmp_path / "started"

        def fn(i):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {i}\n")
            time.sleep(0.01)
            return i * i, os.getpid()
        results = map_ordered(fn, range(6), costs)
        assert [r for r, _ in results] == [i * i for i in range(6)]
        started = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            pid, i = map(int, line.split())
            started.setdefault(pid, []).append(i)
        assert os.getpid() not in started and 1 <= len(started) <= n
        assert sorted(i for items in started.values() for i in items) == list(range(6))
        for items in started.values():
            assert [costs[i] for i in items] == sorted((costs[i] for i in items), reverse=True)
        assert {pid for _, pid in results} == set(started)
        assert multiprocessing.active_children() == []

    def test_items_cheaper_than_a_pool_run_in_this_process(self, monkeypatch):
        """The serial loop runs when the items other than the costliest cost
        less than starting a pool: the costliest alone cannot be shortened."""
        monkeypatch.setattr(base, "_available_cpus", lambda: 3)
        start = base.POOL_START_S
        assert map_ordered(lambda _: os.getpid(), "xyz", [100.0, start / 3, start / 3]) == [
            os.getpid()] * 3
        pids = map_ordered(lambda _: os.getpid(), "xyz", [start, start, start])
        assert os.getpid() not in pids
        with pytest.raises(ValueError, match="2 costs for 3 items"):
            map_ordered(lambda _: os.getpid(), "xyz", [1.0, 1.0])
        assert multiprocessing.active_children() == []

    def test_one_item_runs_in_this_process(self, monkeypatch):
        monkeypatch.setattr(base, "_available_cpus", lambda: 3)
        assert map_ordered(lambda _: os.getpid(), ["x"]) == [os.getpid()]

    def test_a_nested_map_runs_serially_in_its_worker(self, monkeypatch):
        monkeypatch.setattr(base, "_available_cpus", lambda: 2)
        outer = map_ordered(lambda _: (os.getpid(), map_ordered(lambda _: os.getpid(), "abc")),
                            "xy")
        for pid, inner in outer:
            assert pid != os.getpid() and inner == [pid] * 3
        assert multiprocessing.active_children() == []

    def test_the_first_failing_item_is_raised(self, monkeypatch):
        monkeypatch.setattr(base, "_available_cpus", lambda: 2)

        def fn(i):
            if i >= 2:
                raise ValueError(f"item {i}")
            return i
        with pytest.raises(ValueError, match="^item 2$"):
            map_ordered(fn, range(5))
        assert multiprocessing.active_children() == []

    def test_a_dying_worker_raises_and_does_not_hang(self):
        script = ("import os\n"
                  "from imbalkit.learners import base\n"
                  "base._available_cpus = lambda: 2\n"
                  "base.map_ordered(lambda i: os._exit(3) if i == 1 else i, range(3))\n")
        src = str(Path(base.__file__).resolve().parents[2])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 1
        assert "BrokenProcessPool" in proc.stderr
