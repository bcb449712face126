import csv
import hashlib
import json
import gc
import math
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import imbalkit
from imbalkit.cli import main
from imbalkit.data import DataError, Dataset
from imbalkit.learners.base import ALGORITHMS, HYPERPARAMETERS
from imbalkit.report import ConfigError, load_config
from imbalkit.special import chi2_sf
from imbalkit.synth import write_schema_json
from test_data import _tables


def base_config(out_dir, n=240, seed=5, **overrides):
    cfg = {
        "dataset": "synthetic",
        "seed": seed,
        "test_fraction": 0.25,
        "synthetic": {"n": n, "imbalance": 5.0},
        "smote": {"enabled": True, "k_neighbors": 5},
        "models": [
            {"name": "nb", "algorithm": "naive-bayes"},
            {"name": "tree", "algorithm": "decision-tree",
             "hyperparameters": {"max_depth": 6}},
            {"name": "stack", "algorithm": "stacking", "bases": ["nb", "tree"],
             "oof_folds": 3},
        ],
        "reference_model": "stack",
        "cv_folds": 4,
        "output_dir": str(out_dir),
        "explain": {"n_permutations": 8, "background_rows": 8,
                    "global_rows": 3, "lime_samples": 60},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="config.json", **overrides):
    out_dir = tmp_path / "out"
    cfg = base_config(out_dir, **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, out_dir


# gbt hyperparameters that the unfittable_gbt fixture makes every fit reject; no
# valid hyperparameters are rejected by every fit on their own, since
# check_fold_counts finds a categorical index past the columns before any fit
UNFITTABLE_GBT = {"min_samples_split": 999_983}


@pytest.fixture
def unfittable_gbt(monkeypatch):
    """A gbt fit with UNFITTABLE_GBT raises LearnerError, in this process and
    in the pool workers it forks, which inherit the patch."""
    from imbalkit.learners.base import LearnerError
    from imbalkit.learners.gbt import GbtModel

    real = GbtModel.fit.__func__

    def fit(cls, X, y, spec, feature_names):
        if spec.hyperparameters["min_samples_split"] == UNFITTABLE_GBT["min_samples_split"]:
            raise LearnerError("unfittable gbt")
        return real(cls, X, y, spec, feature_names)
    monkeypatch.setattr(GbtModel, "fit", classmethod(fit))


class LockHolding(Exception):
    """A failure that cannot cross a process boundary: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def read_manifest(out_dir):
    return json.loads((out_dir / "run-manifest.json").read_text(encoding="utf-8"))


class TestEda:
    def test_produces_expected_artifacts(self, tmp_path):
        cfg, out = write_config(tmp_path)
        result = run_cli("eda", "--config", cfg)
        assert result.exit_code == 0, result.output
        for rel in ("associations.csv", "cramers_v.csv", "heatmap.svg",
                    "class_balance.json", "run-manifest.json"):
            assert (out / rel).exists()
        assert any((out / "frequencies").glob("*.csv"))

    def test_cramers_matrix_symmetric_with_unit_diagonal(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert run_cli("eda", "--config", cfg).exit_code == 0
        with open(out / "cramers_v.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        labels = rows[0][1:]
        V = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
        assert V.shape == (len(labels), len(labels))
        assert np.allclose(V, V.T)
        assert np.allclose(np.diag(V), 1.0)
        assert np.all((V >= 0) & (V <= 1))

    def test_class_balance_matches_imbalance(self, tmp_path):
        cfg, out = write_config(tmp_path)
        run_cli("eda", "--config", cfg)
        bal = json.loads((out / "class_balance.json").read_text())
        assert bal["class0"] + bal["class1"] == 240
        assert bal["class0"] > bal["class1"]

    def test_target_comes_from_the_dataset(self, tmp_path):
        """The synthetic dataset names its own target, as in every command."""
        cfg, out = write_config(tmp_path)
        odd_out = tmp_path / "odd-out"
        odd, _ = write_config(tmp_path, name="odd.json", target="nope", output_dir=str(odd_out))
        assert run_cli("eda", "--config", cfg).exit_code == 0
        result = run_cli("eda", "--config", odd)
        assert result.exit_code == 0, result.output
        assert read_manifest(odd_out)["artifacts"] == read_manifest(out)["artifacts"]

    def test_byte_identical_across_reruns(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert run_cli("eda", "--config", cfg).exit_code == 0
        first = {rel: (out / rel).read_bytes() for rel in read_manifest(out)["artifacts"]}
        assert run_cli("eda", "--config", cfg).exit_code == 0
        assert set(read_manifest(out)["artifacts"]) == set(first)
        for rel, data in first.items():
            assert (out / rel).read_bytes() == data, f"{rel} differs between runs"


SURVEY_SCHEMA = [
    {"name": "color", "kind": "categorical", "categories": ["red", "green", "blue", "violet"]},
    {"name": "region", "kind": "categorical", "categories": ["north", "south", "east"]},
    {"name": "employed", "kind": "binary", "categories": ["no", "yes"]},
    {"name": "age", "kind": "continuous"},
    {"name": "abuse", "kind": "binary", "categories": ["not abused", "abused"]},
]


def write_survey(tmp_path, n=60, seed=0, age=None):
    """A small survey CSV: 'violet' is declared but never observed, and the
    integer ages 20..69 sit away from the equal-width bin edges."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        target = "abused" if i % 4 == 0 else "not abused"
        color = "red" if target == "abused" else ["red", "green", "blue"][rng.integers(0, 3)]
        rows.append([color, ["north", "south", "east"][rng.integers(0, 3)],
                     ["no", "yes"][rng.integers(0, 2)],
                     str(20 + i % 50) if age is None or i != 7 else age, target])
    data = tmp_path / "survey.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([[c["name"] for c in SURVEY_SCHEMA]] + rows)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(SURVEY_SCHEMA), encoding="utf-8")
    cfg, out = write_config(tmp_path, dataset=str(data), schema=str(schema),
                            target="abuse", reference_model="nb",
                            models=[{"name": "nb", "algorithm": "naive-bayes"}])
    return cfg, out, rows


def brute_chi2(a, b):
    """Pearson chi-square, df and Cramer's V from per-row counts over observed values."""
    ra, rb = sorted(set(a)), sorted(set(b))
    obs = [[sum(1 for x, y in zip(a, b) if x == u and y == v) for v in rb] for u in ra]
    n = len(a)
    stat = 0.0
    for i in range(len(ra)):
        for j in range(len(rb)):
            e = sum(obs[i]) * sum(row[j] for row in obs) / n
            stat += (obs[i][j] - e) ** 2 / e
    m = min(len(ra), len(rb))
    v = 0.0 if m < 2 else min(math.sqrt(stat / (n * (m - 1))), 1.0)
    return stat, (len(ra) - 1) * (len(rb) - 1), v


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestEdaGolden:
    def test_tables_match_brute_force(self, tmp_path):
        cfg, out, rows = write_survey(tmp_path)
        assert run_cli("eda", "--config", cfg).exit_code == 0
        names = [c["name"] for c in SURVEY_SCHEMA][:-1]
        cols = {name: [r[j] for r in rows] for j, name in enumerate(names)}
        target = [r[-1] for r in rows]
        ages = [float(a) for a in cols["age"]]
        lo, hi = min(ages), max(ages)
        cols["age"] = [f"bin_{sum(x >= lo + (hi - lo) * i / 5 for i in range(1, 5))}"
                       for x in ages]
        assert sorted(set(cols["age"])) == [f"bin_{b}" for b in range(5)]

        for name in names:
            expected = [["feature", "value", "target", "count"]] + [
                [name, v, t, str(sum(1 for x, y in zip(cols[name], target)
                                     if x == v and y == t))]
                for v in sorted(set(cols[name])) for t in sorted(set(target))]
            assert read_csv(out / "frequencies" / f"{name}.csv") == expected
        assert "violet" not in {r[1] for r in read_csv(out / "frequencies" / "color.csv")}

        assoc = read_csv(out / "associations.csv")
        assert assoc[0] == ["feature", "chi2", "p_value", "decision"]
        assert [r[0] for r in assoc[1:]] == names
        for name, chi2, p, decision in assoc[1:]:
            stat, df, _ = brute_chi2(cols[name], target)
            assert float(chi2) == pytest.approx(stat, abs=1e-6)
            assert float(p) == pytest.approx(chi2_sf(stat, df), rel=1e-5)
            assert decision == ("significant" if chi2_sf(stat, df) < 0.10
                                else "not-significant")

        cat = ["color", "region", "employed"]
        V = read_csv(out / "cramers_v.csv")
        assert V[0] == ["feature"] + cat
        for i, row in enumerate(V[1:]):
            assert row[0] == cat[i]
            for j, cell in enumerate(row[1:]):
                want = 1.0 if i == j else brute_chi2(cols[cat[i]], cols[cat[j]])[2]
                assert float(cell) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("cell", ["nan", "inf", "Infinity"])
    @pytest.mark.parametrize("command", ["eda", "benchmark"])
    def test_non_finite_cell_is_data_error(self, tmp_path, command, cell):
        cfg, _, _ = write_survey(tmp_path, age=cell)
        result = run_cli(command, "--config", cfg)
        assert result.exit_code == 3
        assert "row 7: non-finite" in result.output and "'age'" in result.output


class TestBenchmark:
    def test_success_and_metrics_shape(self, tmp_path):
        cfg, out = write_config(tmp_path)
        result = run_cli("benchmark", "--config", cfg)
        assert result.exit_code == 0, result.output
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"nb", "tree", "stack"}
        for rep in metrics.values():
            for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1",
                        "auc", "specificity", "g_mean", "iba", "confusion"):
                assert key in rep
            assert 0.0 <= rep["auc"] <= 1.0
        manifest = read_manifest(out)
        assert all(v == "ok" for v in manifest["model_status"].values())

    def test_csv_is_crlf_rfc4180(self, tmp_path):
        cfg, out = write_config(tmp_path)
        run_cli("benchmark", "--config", cfg)
        raw = (out / "metrics.csv").read_bytes()
        assert b"\r\n" in raw
        assert raw.decode("utf-8").splitlines()[0].startswith("model,accuracy")

    def test_byte_identical_across_reruns(self, tmp_path):
        cfg, out = write_config(tmp_path)
        run_cli("benchmark", "--config", cfg)
        first = {rel: (out / rel).read_bytes()
                 for rel in ("metrics.json", "metrics.csv", "roc.svg")}
        run_cli("benchmark", "--config", cfg)
        for rel, data in first.items():
            assert (out / rel).read_bytes() == data, f"{rel} differs between runs"

    def test_seed_override_changes_results(self, tmp_path):
        cfg, out = write_config(tmp_path)
        run_cli("benchmark", "--config", cfg)
        a = (out / "metrics.json").read_bytes()
        run_cli("benchmark", "--config", cfg, "--seed", 99)
        b = (out / "metrics.json").read_bytes()
        assert a != b

    def test_manifest_hashes_match_artifacts(self, tmp_path):
        cfg, out = write_config(tmp_path)
        run_cli("benchmark", "--config", cfg)
        manifest = read_manifest(out)
        assert manifest["seed"] == 5
        assert len(manifest["config_hash"]) == 64
        assert "run-manifest.json" not in manifest["artifacts"]
        assert not list(out.rglob("*.tmp"))
        for rel, digest in manifest["artifacts"].items():
            actual = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            assert actual == digest, f"hash mismatch for {rel}"

    def test_manifest_reports_package_version(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert run_cli("eda", "--config", cfg).exit_code == 0
        assert read_manifest(out)["version"] == imbalkit.__version__

    def test_no_tmp_files_left_behind(self, tmp_path):
        cfg, out = write_config(tmp_path)
        run_cli("benchmark", "--config", cfg)
        assert not list(out.rglob("*.tmp"))

    def test_partial_failure_exit_code(self, tmp_path, unfittable_gbt):
        broken = {"name": "bad", "algorithm": "gbt", "hyperparameters": UNFITTABLE_GBT}
        cfg, out = write_config(tmp_path, reference_model="nb", models=[
            {"name": "nb", "algorithm": "naive-bayes"}, broken])
        result = run_cli("benchmark", "--config", cfg)
        assert result.exit_code == 4
        manifest = read_manifest(out)
        assert manifest["model_status"]["nb"] == "ok"
        assert manifest["model_status"]["bad"].startswith("failed")
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"nb"}

    def test_tuning_artifact(self, tmp_path):
        cfg, out = write_config(
            tmp_path,
            tuning={"spaces": {"tree": {"max_depth": [2, 6]}},
                    "n_iter": 3, "folds": 3},
        )
        result = run_cli("benchmark", "--config", cfg)
        assert result.exit_code == 0, result.output
        assert (out / "tuning" / "tree.csv").exists()

    def test_tuning_starts_from_the_configured_entry(self, tmp_path):
        cfg, out = write_config(
            tmp_path, reference_model="gbt",
            models=[{"name": "gbt", "algorithm": "gbt", "hyperparameters": {"n_estimators": 3}}],
            tuning={"spaces": {"gbt": {"max_depth": [1, 2, 3]}}, "n_iter": 3, "folds": 3})
        result = run_cli("benchmark", "--config", cfg)
        assert result.exit_code == 0, result.output
        candidates = read_csv(out / "tuning" / "gbt.csv")[1:]
        assert len(candidates) == 3
        for row in candidates:
            assert "('n_estimators', 3)" in row[2], row


    def test_artifacts_identical_at_every_worker_count(self, tmp_path, monkeypatch,
                                                       unfittable_gbt):
        """benchmark tunes in this process and fits its roster in worker
        processes (at most 3 here, so no test starts a large pool); a tuned
        model, a failing model and a stack write the serial loop's bytes and
        stderr lines."""
        from imbalkit.learners import base

        models = base_config("out")["models"] + [
            {"name": "bad", "algorithm": "gbt", "hyperparameters": UNFITTABLE_GBT},
            {"name": "gbt", "algorithm": "gbt", "hyperparameters": {"n_estimators": 3}}]
        runs = []
        for n in (1, 2, 3):
            monkeypatch.setattr(base, "_available_cpus", lambda: n)
            (tmp_path / str(n)).mkdir()
            cfg, out = write_config(tmp_path / str(n), models=models, reference_model="nb",
                                    tuning={"spaces": {"tree": {"max_depth": [2, 4, 6]}},
                                            "n_iter": 2, "folds": 3})
            result = run_cli("benchmark", "--config", cfg)
            assert result.exit_code == 4, result.output
            manifest = read_manifest(out)
            runs.append((manifest["artifacts"], manifest["model_status"], result.output))
        assert "tuning/tree.csv" in runs[0][0]
        assert sorted(runs[0][1]) == ["bad", "gbt", "nb", "stack", "tree"]
        assert runs[0][1]["bad"].startswith("failed: ") and runs[0][1]["stack"] == "ok"
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unpicklable_failures_reach_stderr_in_roster_order(self, tmp_path, monkeypatch,
                                                              workers):
        """A unit's exception that cannot be pickled comes back as a LearnerError
        with its message, so it is reported from a worker as in this process."""
        import imbalkit.validation
        from imbalkit.learners import base

        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("this exception cannot be pickled")

        def fit(spec, data):
            if spec.algorithm in ("gbt", "decision-tree"):
                raise Unpicklable(f"no {spec.algorithm} today")
            return real(spec, data)
        real = imbalkit.validation.fit_model
        monkeypatch.setattr(imbalkit.validation, "fit_model", fit)
        monkeypatch.setattr(base, "_available_cpus", lambda: workers)
        cfg, out = write_config(tmp_path, reference_model="nb", models=[
            {"name": "tree", "algorithm": "decision-tree"},
            {"name": "nb", "algorithm": "naive-bayes"},
            {"name": "gbt", "algorithm": "gbt", "hyperparameters": {"n_estimators": 3}}])
        result = run_cli("benchmark", "--config", cfg)
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.output.splitlines() == ["model tree failed: no decision-tree today",
                                              "model gbt failed: no gbt today"]
        assert read_manifest(out)["model_status"] == {
            "tree": "failed: no decision-tree today", "nb": "ok", "gbt": "failed: no gbt today"}

    def test_a_cheap_roster_fits_in_this_process(self, tmp_path, monkeypatch):
        """naive Bayes and logistic regression together cost less than starting
        a pool, so they fit in this process, where a spy sees every fit."""
        import imbalkit.validation
        from imbalkit.learners import base

        monkeypatch.setattr(base, "_available_cpus", lambda: 2)
        real = imbalkit.validation.fit_model
        fits = []

        def spy(spec, data):
            fits.append(spec.algorithm)
            return real(spec, data)
        monkeypatch.setattr(imbalkit.validation, "fit_model", spy)
        cfg, _ = write_config(tmp_path, reference_model="nb", models=[
            {"name": "nb", "algorithm": "naive-bayes"},
            {"name": "logistic", "algorithm": "logistic"}])
        result = run_cli("benchmark", "--config", cfg)
        assert result.exit_code == 0, result.output
        assert fits == ["naive-bayes", "logistic"]

    def test_the_stack_trains_on_the_raw_training_split(self, tmp_path, monkeypatch):
        """The stack's unit copies the rows outside the part's test mask: they
        are stratified_split's training split, the same ids in the same order.
        Fits run in-process, so a spy sees them."""
        import imbalkit.cli
        import imbalkit.stacking
        from imbalkit.learners import base

        monkeypatch.setattr(base, "_available_cpus", lambda: 1)
        real_split, real_fit = imbalkit.cli.stratified_split, imbalkit.stacking.stack_fit
        splits, stacks = [], []

        def split(*args):
            splits.append(real_split(*args))
            return splits[-1]

        def fit(spec, data, *args):
            stacks.append(data)
            return real_fit(spec, data, *args)
        monkeypatch.setattr(imbalkit.cli, "stratified_split", split)
        monkeypatch.setattr(imbalkit.stacking, "stack_fit", fit)
        cfg, _ = write_config(tmp_path)
        result = run_cli("benchmark", "--config", cfg)
        assert result.exit_code == 0, result.output
        (raw_train, _), = splits
        stack, = stacks
        assert np.array_equal(stack.row_ids, raw_train.row_ids)
        assert np.array_equal(stack.values, raw_train.values)
        assert np.array_equal(stack.target, raw_train.target)

    def test_knn_weights_space_is_a_list_of_choices(self, tmp_path):
        # a list that starts with a distribution's name is a distribution only
        # for a numeric hyperparameter
        cfg, out = write_config(
            tmp_path, reference_model="knn",
            models=[{"name": "knn", "algorithm": "knn"}],
            tuning={"spaces": {"knn": {"weights": ["uniform", "distance"]}},
                    "n_iter": 4, "folds": 3})
        result = run_cli("benchmark", "--config", cfg)
        assert result.exit_code == 0, result.output
        drawn = {row[2].split("('weights', ")[1][1:-3]
                 for row in read_csv(out / "tuning" / "knn.csv")[1:]}
        assert drawn <= {"uniform", "distance"} and drawn

class TestCompare:
    def test_outputs(self, tmp_path):
        cfg, out = write_config(tmp_path)
        result = run_cli("compare", "--config", cfg)
        assert result.exit_code == 0, result.output
        with open(out / "comparison.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "t", "p", "cohens_d", "decision"]
        assert {r[0] for r in rows[1:]} == {"nb", "tree"}
        for r in rows[1:]:
            assert r[4] in ("significant", "not-significant", "degenerate")
        meta = json.loads((out / "comparison_meta.json").read_text())
        assert meta["reference"] == "stack"
        assert meta["adjusted_alpha"] == pytest.approx(0.05 / 2)

    def test_cv_accuracies_table(self, tmp_path):
        cfg, out = write_config(tmp_path)
        run_cli("compare", "--config", cfg)
        with open(out / "cv_accuracies.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "fold_0", "fold_1", "fold_2", "fold_3"]
        for r in rows[1:]:
            for cell in r[1:]:
                assert 0.0 <= float(cell) <= 1.0

    def test_missing_reference_is_config_error(self, tmp_path):
        cfg, _ = write_config(tmp_path, reference_model=None)
        result = run_cli("compare", "--config", cfg)
        assert result.exit_code == 2

    def test_failed_model_exits_4_and_leaves_no_rows(self, tmp_path, unfittable_gbt):
        cfg, out = write_config(tmp_path, **with_entry("gbt", **UNFITTABLE_GBT))
        result = run_cli("compare", "--config", cfg)
        assert result.exit_code == 4, result.output
        assert "model extra failed:" in result.output
        assert "Traceback" not in result.output
        status = read_manifest(out)["model_status"]
        assert status["extra"].startswith("failed: ")
        assert {name: status[name] for name in ("nb", "tree", "stack")} == dict.fromkeys(
            ("nb", "tree", "stack"), "ok")
        assert [r[0] for r in read_csv(out / "cv_accuracies.csv")[1:]] == ["nb", "tree", "stack"]
        assert [r[0] for r in read_csv(out / "comparison.csv")[1:]] == ["nb", "tree"]
        meta = json.loads((out / "comparison_meta.json").read_text())
        assert meta["comparisons"] == 2

    def test_failed_reference_exits_4(self, tmp_path, unfittable_gbt):
        cfg, out = write_config(tmp_path, reference_model="bad", models=[
            {"name": "nb", "algorithm": "naive-bayes"},
            {"name": "bad", "algorithm": "gbt", "hyperparameters": UNFITTABLE_GBT}])
        result = run_cli("compare", "--config", cfg)
        assert result.exit_code == 4, result.output
        assert "reference model 'bad' failed" in result.output
        assert "Traceback" not in result.output
        status = read_manifest(out)["model_status"]
        assert status["nb"] == "ok" and status["bad"].startswith("failed: ")

    @pytest.mark.parametrize("workers", [2, 3])
    def test_artifacts_identical_at_every_worker_count(self, tmp_path, monkeypatch, workers):
        """compare fits its (model, fold) units in worker processes: at most 3
        here, so no test starts a large pool."""
        from imbalkit.learners import base

        hashes = []
        for n in (1, workers):
            monkeypatch.setattr(base, "_available_cpus", lambda: n)
            (tmp_path / str(n)).mkdir()
            cfg, out = write_config(tmp_path / str(n))
            assert run_cli("compare", "--config", cfg).exit_code == 0
            hashes.append(read_manifest(out)["artifacts"])
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("command", ["compare", "benchmark"])
    def test_unpicklable_fold_failure_reads_alike_at_one_and_two_workers(
            self, tmp_path, monkeypatch, command):
        """A fold unit that raises an exception pickling cannot carry sends back
        its message: compare's folds and a tuned benchmark's search report it
        as the serial loop does, with the same exit code, stderr and artifacts."""
        import imbalkit.validation
        from imbalkit.learners import base

        def fit(spec, data):
            if spec.algorithm == "gbt":
                raise LockHolding("gbt blew up")
            return real(spec, data)
        real = imbalkit.validation.fit_model
        monkeypatch.setattr(imbalkit.validation, "fit_model", fit)
        runs = []
        for n in (1, 2):
            monkeypatch.setattr(base, "_available_cpus", lambda: n)
            (tmp_path / str(n)).mkdir()
            cfg, out = write_config(
                tmp_path / str(n), reference_model="nb", models=[
                    {"name": "nb", "algorithm": "naive-bayes"},
                    {"name": "gbt", "algorithm": "gbt", "hyperparameters": {"n_estimators": 3}}],
                tuning={"spaces": {"gbt": {"max_depth": [2, 3]}}, "n_iter": 2, "folds": 3})
            result = run_cli(command, "--config", cfg)
            manifest = read_manifest(out)
            runs.append((result.exit_code, result.output, manifest["artifacts"],
                         manifest["model_status"]))
        assert runs[0][:2] == (4, "model gbt failed: gbt blew up\n"), runs[0]
        assert runs[1] == runs[0]


class TestExplain:
    def test_attribution_artifacts(self, tmp_path):
        cfg, out = write_config(tmp_path)
        result = run_cli("explain", "--config", cfg, "--model", "nb",
                         "--instances", "0..1")
        assert result.exit_code == 0, result.output
        assert (out / "importances" / "nb_shapley.csv").exists()
        assert (out / "importances" / "nb_shapley.svg").exists()
        for i in (0, 1):
            assert (out / "attributions" / f"instance_{i}_shapley.csv").exists()
            assert (out / "attributions" / f"instance_{i}_lime.csv").exists()
            assert (out / "attributions" / f"instance_{i}_shapley.svg").exists()

    def test_lime_csv_contains_fit_summary(self, tmp_path):
        cfg, out = write_config(tmp_path)
        run_cli("explain", "--config", cfg, "--model", "nb", "--instances", "0")
        with open(out / "attributions" / "instance_0_lime.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        names = [r[0] for r in rows[1:]]
        assert "__intercept__" in names and "__weighted_r2__" in names

    def test_unknown_model_is_config_error(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        result = run_cli("explain", "--config", cfg, "--model", "nope")
        assert result.exit_code == 2

    def test_instance_out_of_range_is_data_error(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        result = run_cli("explain", "--config", cfg, "--model", "nb",
                         "--instances", "100000")
        assert result.exit_code == 3

    def test_failed_fit_exits_4_without_traceback(self, tmp_path, unfittable_gbt):
        cfg, out = write_config(tmp_path, reference_model="bad", models=[
            {"name": "bad", "algorithm": "gbt", "hyperparameters": UNFITTABLE_GBT}])
        result = run_cli("explain", "--config", cfg, "--model", "bad")
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert "model bad failed:" in result.output
        assert "Traceback" not in result.output
        assert read_manifest(out)["model_status"]["bad"].startswith("failed: ")

    def test_exact_shapley_up_to_fifteen_features(self, tmp_path):
        cfg, out, _ = write_survey(tmp_path, n=80)  # four features
        result = run_cli("explain", "--config", cfg, "--model", "nb", "--instances", "0,3")
        assert result.exit_code == 0, result.output
        for i in (0, 3):
            rows = read_csv(out / "attributions" / f"instance_{i}_shapley.csv")[1:]
            assert {r[2] for r in rows} == {"shapley-exact"}
            values = {r[0]: float(r[1]) for r in rows}
            phi = sum(values[c["name"]] for c in SURVEY_SCHEMA[:4])
            # efficiency: the values add up to prediction - base value, to the CSV's 6 decimals
            assert phi == pytest.approx(values["__prediction__"] - values["__base_value__"],
                                        abs=1e-5)

    def test_non_finite_scores_exit_4(self, tmp_path):
        cfg, out, rows = write_survey(tmp_path, n=200)
        with open(tmp_path / "survey.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([[c["name"] for c in SURVEY_SCHEMA]]  # ages near 1e160
                                     + [r[:3] + [r[3] + "e158"] + r[4:] for r in rows])
        config = json.loads(cfg.read_text(encoding="utf-8"))
        cfg.write_text(json.dumps({**config, "smote": {"enabled": False}}), encoding="utf-8")
        with np.errstate(all="ignore"):
            result = run_cli("explain", "--config", cfg, "--model", "nb")
        assert result.exit_code == 4, result.output
        assert "model nb failed: non-finite naive-bayes scores" in result.output
        assert read_manifest(out)["model_status"]["nb"].startswith("failed: ")
        assert not (out / "attributions").exists()

    def test_gbt_native_importances(self, tmp_path):
        cfg, out = write_config(tmp_path, reference_model="boost", models=[
            {"name": "boost", "algorithm": "gbt",
             "hyperparameters": {"n_estimators": 15}}])
        result = run_cli("explain", "--config", cfg, "--model", "boost",
                         "--instances", "0")
        assert result.exit_code == 0, result.output
        for tag in ("split_count", "gain", "loss_reduction"):
            assert (out / "importances" / f"boost_{tag}.csv").exists()

    def test_explains_the_tuned_model_benchmark_scores(self, tmp_path, monkeypatch):
        """A model with a tuning space is explained as benchmark scores it:
        explain fits the tuned spec on the same rows and writes the same
        tuning/<name>.csv. Fits run in-process, so a spy sees them: explain's
        own fit, and those of benchmark's roster and of both tuning CVs, which
        go through validation and come first."""
        import imbalkit.cli
        import imbalkit.validation
        from imbalkit.learners import base

        monkeypatch.setattr(base, "_available_cpus", lambda: 1)
        real = imbalkit.cli.fit_model
        fits, tables = {}, {}

        def spy(spec, data):
            fits.setdefault(command[0], []).append((spec, data.row_ids.copy()))
            return real(spec, data)
        monkeypatch.setattr(imbalkit.cli, "fit_model", spy)
        monkeypatch.setattr(imbalkit.validation, "fit_model", spy)
        tuning = {"spaces": {"tree": {"max_depth": [1, 2, 3]}}, "n_iter": 3, "folds": 3}
        for command in (["benchmark"], ["explain", "--model", "tree"]):
            (tmp_path / command[0]).mkdir()
            cfg, out = write_config(tmp_path / command[0], tuning=tuning)
            result = run_cli(*command, "--config", cfg)
            assert result.exit_code == 0, result.output
            tables[command[0]] = (out / "tuning" / "tree.csv").read_bytes()
        (spec, rows), = fits["explain"][9:]  # after the tuning CV: 3 candidates x 3 folds
        _, (scored, scored_rows), (_, raw_rows) = fits["benchmark"][9:]  # nb, tree, stack
        assert set(rows[rows >= 0]) == set(raw_rows)  # the stack's rows: the raw split
        for tuning_fits in (fits["benchmark"][:9], fits["explain"][:9]):
            for tuned, ids in tuning_fits:  # a fold of the raw split, never all of it
                assert tuned.algorithm == "decision-tree" and set(ids[ids >= 0]) < set(raw_rows)
        assert spec == scored and np.array_equal(rows, scored_rows)
        assert spec.hyperparameters["max_depth"] in (1, 2, 3)  # the entry's own is 6
        assert tables["explain"] == tables["benchmark"]


# a stack whose base is another stack: a config fault in either order
STACK_OF_STACK = [{"name": "nb", "algorithm": "naive-bayes"},
                  {"name": "s1", "algorithm": "stacking", "bases": ["nb"]},
                  {"name": "s2", "algorithm": "stacking", "bases": ["s1", "nb"]}]


def with_stack(**entry):
    """The base_config roster with extra keys on its stacking entry."""
    models = base_config("out")["models"]
    models[-1] = dict(models[-1], **entry)
    return {"models": models}


def with_entry(algorithm, **hyperparameters):
    """The base_config roster plus an entry "extra" of algorithm with hyperparameters."""
    return {"models": base_config("out")["models"] + [
        {"name": "extra", "algorithm": algorithm, "hyperparameters": hyperparameters}]}


class TestResamplingLeakage:
    @pytest.mark.parametrize("command, spied, stack_fits", [
        (("benchmark",), {"stack_fit", "cross_validate_many"}, 1),
        (("explain", "--model", "stack"), {"stack_fit"}, 1),
        (("compare",), {"stack_fit"}, 4),
        (("explain", "--model", "tree"), {"cross_validate_many"}, 0),
    ], ids=["benchmark", "explain", "compare", "explain-tuned"])
    def test_no_synthetic_row_reaches_in_fold_resamplers(self, tmp_path, monkeypatch,
                                                         command, spied, stack_fits):
        """A stack and the tuning CV SMOTE inside their own folds; a SMOTE row
        made before them would sit in a held-out fold as a near-copy of rows
        the fold models trained on. SMOTE rows carry negative row ids. compare
        fits one stack per outer fold (180 raw rows each), here in-process:
        a spy cannot see fits in pool workers."""
        import imbalkit.learners.search
        import imbalkit.stacking
        from imbalkit.learners import base

        monkeypatch.setattr(base, "_available_cpus", lambda: 1)

        seen = {}

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(spec, data, *args, **kwargs):
                seen.setdefault(name, []).append(data.row_ids.copy())
                return real(spec, data, *args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        spy(imbalkit.stacking, "stack_fit")
        spy(imbalkit.learners.search, "cross_validate_many")  # the tuning CV's binding
        cfg, out = write_config(tmp_path, tuning={"spaces": {"tree": {"max_depth": [2, 6]}},
                                                  "n_iter": 2, "folds": 3})
        result = run_cli(*command, "--config", cfg)
        assert result.exit_code == 0, result.output
        assert set(seen) == spied
        assert len(seen.get("stack_fit", [])) == stack_fits
        for name, calls in seen.items():
            for ids in calls:
                assert ids.size == 180 and np.all(ids >= 0), f"SMOTE rows reached {name}"


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


_SMALL_ROSTER = [{"name": "nb", "algorithm": "naive-bayes"},
                 {"name": "tree", "algorithm": "decision-tree",
                  "hyperparameters": {"max_depth": 4}},
                 {"name": "forest", "algorithm": "random-forest",
                  "hyperparameters": {"n_estimators": 3, "max_depth": 4}},
                 {"name": "gbt", "algorithm": "gbt", "hyperparameters": {"n_estimators": 4}},
                 {"name": "knn", "algorithm": "knn", "hyperparameters": {"n_neighbors": 5}},
                 {"name": "stack", "algorithm": "stacking", "bases": ["nb", "tree"],
                  "oof_folds": 3}]

# (command, config overrides, or None for the survey CSV, exit code, sha256 of
# the sorted-key JSON of the run manifest's artifacts map) for CLI paths that
# the benchmark workloads do not reach; recorded before RunConfig kept its run
# settings in one table, except explain-tuned, recorded when explain began to
# tune (the same at kernel levels X86_V4 and X86_V3). No mlp or svm fit: their
# digests could differ by interpreter
PINNED_RUNS = {
    "benchmark-tuned-resample-test": (
        ["benchmark"], {"models": _SMALL_ROSTER, "resample_test": True,
                        "tuning": {"spaces": {"tree": {"max_depth": [2, 4, 6]},
                                              "knn": {"n_neighbors": ["randint", 3, 9]}},
                                   "n_iter": 2, "folds": 3}},
        0, "a3d915765aeae9709bdf0565b970fc80499501ab650fc9de2aad4eea8f4d2cf6"),
    "benchmark-smote-off": (
        ["benchmark"], {"models": _SMALL_ROSTER, "smote": {"enabled": False}},
        0, "8e7d9b8d829fbcfe5e0014eb3061214e4728653af1ebb081a2dd487b417331b3"),
    "explain-random-forest": (
        ["explain", "--model", "forest", "--instances", "0,2"], {"models": _SMALL_ROSTER},
        0, "b697297ff35a9bbef5700ed0174898142cdd8861addf353850128830a4190b30"),
    "explain-tuned": (
        ["explain", "--model", "tree", "--instances", "0,3"],
        {"models": _SMALL_ROSTER,
         "tuning": {"spaces": {"tree": {"max_depth": [2, 4, 6],
                                        "min_samples_split": ["randint", 2, 30]}},
                    "n_iter": 3, "folds": 3}},
        0, "c0cc1f8cba23410ced43d08a7c0e7b63660cf8e29791996ec554bece190d8409"),
    "explain-stack": (
        ["explain", "--model", "stack", "--instances", "1"], {},
        0, "908379360c61ab270fa8656996bf236488ce03c85b3c42c8f7f288e557bfbbf1"),
    "compare-one-failing": (
        ["compare"], with_entry("gbt", **UNFITTABLE_GBT),
        4, "f4ca25fdaecb9868bfc25794c6a8b8e8b145ccc8399690cedaaedf258410794a"),
    "eda-survey-csv": (
        ["eda"], None, 0, "f196dd57a7d006d3c289897f271b273174888e9bfffdbb3c1a5e83bda21b2730"),
}


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
@pytest.mark.usefixtures("unfittable_gbt")
def test_artifacts_are_pinned(tmp_path, case):
    command, overrides, code, digest = PINNED_RUNS[case]
    if overrides is None:
        cfg, out, _ = write_survey(tmp_path)
    else:
        cfg, out = write_config(tmp_path, **overrides)
    result = run_cli(*command, "--config", cfg)
    assert result.exit_code == code, result.output
    artifacts = read_manifest(out)["artifacts"]
    assert _digest(artifacts) == digest, artifacts


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(c for c in PINNED_RUNS if c.startswith("benchmark")))
def test_benchmark_pins_hold_at_one_and_two_workers(tmp_path, monkeypatch, case, workers):
    """_SMALL_ROSTER has a forest, a GBT and a stack, so at 2 workers the
    roster's pool starts."""
    import concurrent.futures

    from imbalkit.learners import base

    started = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args[0])
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    monkeypatch.setattr(base, "_available_cpus", lambda: workers)
    test_artifacts_are_pinned(tmp_path, case)
    assert bool(started) == (workers > 1)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=5)
_RUN_SETTINGS = ["seed", "test_fraction", "cv_folds", "resample_test", "smote.k_neighbors",
                 "smote.enabled", "tuning.n_iter", "tuning.folds", "synthetic.n",
                 "synthetic.imbalance", "explain.n_permutations", "explain.background_rows",
                 "explain.global_rows", "explain.lime_samples", "stack.oof_folds"]
# the run settings whose rules admit positive integers
_COUNT_SETTINGS = [key for key in _RUN_SETTINGS
                   if key not in ("test_fraction", "resample_test", "smote.enabled")]
_SPACE_VALUES = _JSON | st.tuples(st.sampled_from(["uniform", "loguniform", "randint"]),
                                  _JSON, _JSON).map(list)
_SPACES = st.dictionaries(
    st.sampled_from(["nb", "tree", "stack", "ghost"]),
    _JSON | st.dictionaries(st.sampled_from(["var_smoothing", "max_depth", "min_samples_split",
                                             "bogus"]), _SPACE_VALUES, max_size=2),
    max_size=2)


# hyperparameters that set how much work a fit does: drawn from small values
# only, and kept small on every entry, so that one example stays fast
_FIT_SIZES = ("n_estimators", "max_passes", "max_iterations", "max_iter", "hidden_layer_sizes")
_SMALL_FIT = {"logistic": {"max_iter": 2}, "random-forest": {"n_estimators": 2},
              "gbt": {"n_estimators": 2}, "svm": {"max_passes": 1},
              "mlp": {"hidden_layer_sizes": [2], "max_iterations": 2}}
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2), max_leaves=3)


@st.composite
def _drawn_entry(draw):
    """A roster entry "extra" of a drawn algorithm, and its tuning space. A
    drawn hyperparameter, or candidate in the space, is a value the key's rule
    accepts or arbitrary JSON; a distribution's bounds are drawn the same way."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    keys = sorted(HYPERPARAMETERS[algorithm])

    def values(key):
        if key in _FIT_SIZES:
            return st.integers(0, 2) | st.lists(st.integers(1, 2), max_size=2) | _SMALL_JSON
        default, rule = HYPERPARAMETERS[algorithm][key]
        return (st.sampled_from([default, *rule.choices]) | st.integers(0, 8)
                | st.floats(0.0, 10.0) | _JSON)

    hyper = {key: draw(values(key))
             for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=3))}
    space = {key: draw(st.lists(values(key), min_size=1, max_size=2)
                       | st.tuples(st.sampled_from(["uniform", "loguniform", "randint"]),
                                   values(key), values(key)).map(list))
             for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=2))}
    return ({"name": "extra", "algorithm": algorithm,
             "hyperparameters": {**_SMALL_FIT.get(algorithm, {}), **hyper}}, space)


def with_settings(cfg, run_settings):
    """Set each dotted run setting (section.key; stack.* on the stacking entry) in cfg."""
    for dotted, value in run_settings.items():
        *section, key = dotted.split(".")
        target = cfg
        if section == ["stack"]:
            target = cfg["models"][-1]
        elif section:
            target = cfg.setdefault(section[0], {})
        target[key] = value


class TestErrorPaths:
    @given(st.dictionaries(st.sampled_from(_RUN_SETTINGS), _JSON, max_size=4), _SPACES)
    @settings(max_examples=150, deadline=None)
    def test_load_config_raises_only_config_error(self, tmp_path_factory, run_settings,
                                                  spaces):
        """Arbitrary JSON run settings and tuning spaces load, or raise ConfigError."""
        cfg = base_config("out", tuning={"spaces": spaces})
        with_settings(cfg, run_settings)
        path = tmp_path_factory.getbasetemp() / "arbitrary.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        try:
            load_config(path)
        except ConfigError:
            pass

    @given(st.dictionaries(st.sampled_from(_COUNT_SETTINGS), st.integers(1, 50), max_size=3),
           st.dictionaries(st.sampled_from(_RUN_SETTINGS), _JSON, max_size=1))
    @settings(max_examples=200, deadline=None)
    def test_commands_exit_with_documented_codes(self, tmp_path_factory, counts, arbitrary):
        """benchmark, compare and explain on arbitrary JSON run settings exit
        0, 2, 3 or 4, never with a traceback. Counts drawn for the settings
        that take them (fold counts, rows, options) pass their rules and reach
        the data; an arbitrary JSON value may override one. The roster is
        tiny: nb, tuned, and a stack over nb."""
        cfg = base_config(tmp_path_factory.getbasetemp() / "property-out", n=120,
                          models=[{"name": "nb", "algorithm": "naive-bayes"},
                                  {"name": "stack", "algorithm": "stacking", "bases": ["nb"],
                                   "oof_folds": 3}],
                          tuning={"spaces": {"nb": {"var_smoothing": [1e-9, 1e-6]}},
                                  "n_iter": 2, "folds": 3})
        with_settings(cfg, {**counts, **arbitrary})
        path = tmp_path_factory.getbasetemp() / "property.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        for command in (["benchmark"], ["compare"], ["explain", "--model", "stack"]):
            result = run_cli(*command, "--config", path)
            assert result.exit_code in (0, 2, 3, 4), (command, cfg, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                command, cfg, result.exception)
            assert "Traceback" not in result.output

    @given(_drawn_entry())
    @settings(max_examples=100, deadline=None)
    def test_commands_exit_with_documented_codes_on_drawn_models(self, tmp_path_factory,
                                                                 drawn):
        """benchmark, compare and explain on a roster entry of drawn
        hyperparameters, tuned over a drawn space and stacked with nb, exit 0,
        2, 3 or 4, never with a traceback."""
        entry, space = drawn
        cfg = base_config(tmp_path_factory.getbasetemp() / "drawn-out", n=120,
                          models=[{"name": "nb", "algorithm": "naive-bayes"}, entry,
                                  {"name": "stack", "algorithm": "stacking",
                                   "bases": ["nb", "extra"], "oof_folds": 2}],
                          tuning={"spaces": {"extra": space} if space else {}, "n_iter": 2,
                                  "folds": 2})
        path = tmp_path_factory.getbasetemp() / "drawn.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        for command in (["benchmark"], ["compare"], ["explain", "--model", "extra"]):
            result = run_cli(*command, "--config", path)
            assert result.exit_code in (0, 2, 3, 4), (command, cfg, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                command, cfg, result.exception)
            assert "Traceback" not in result.output

    @pytest.mark.parametrize("overrides", [
        {"seed": "abc"},
        {"models": ["nb"]},
        {"test_fraction": 1.5},
        {"smote": {"rounding": "bogus"}},
        {"cv_folds": float("inf")},
        {"synthetic": [500]},
        with_stack(oof_folds=1),
        with_stack(bases=[]),
        with_stack(meta={"hyperparameters": {"bogus": 1}}),
        with_stack(bases=5),
        with_stack(bases=[["nb"]]),
        {"explain": {"n_permutations": "x"}},
        {"explain": {"background_rows": 0}},
        {"tuning": {"spaces": {"stack": {"oof_folds": [2, 3]}}}},
        {"tuning": {"spaces": {"nb": {"bogus": [1]}}}},
        {"tuning": {"spaces": {"nb": {}}}},
        {"tuning": {"spaces": {"nb": [1e-9]}}},
        {"tuning": {"n_iter": 0, "spaces": {"nb": {"var_smoothing": [1e-9]}}}},
        {"tuning": {"folds": 1, "spaces": {"nb": {"var_smoothing": [1e-9]}}}},
        {"cv_folds": 1},
        {"synthetic": {"n": 0}},
        {"synthetic": {"n": 240, "imbalance": 0}},
        {"synthetic": {"n": 240, "imbalance": float("inf")}},
        {"tuning": {"spaces": {"tree": {"max_depth": ["uniform", "a", 3]}}}},
        {"tuning": {"spaces": {"tree": {"max_depth": ["randint", 5, 5]}}}},
        {"tuning": {"spaces": {"nb": {"var_smoothing": ["loguniform", 0, 1]}}}},
        {"resample_test": "no"},
        {"smote": {"enabled": "false"}},
        {"smote": {"rounding": "nearest-code"}},
        with_entry("logistic", C=0),
        with_entry("decision-tree", max_depth="3"),
        with_entry("naive-bayes", var_smoothing="x"),
        {"tuning": {"spaces": {"nb": {"var_smoothing": "x"}}}},
        with_entry("random-forest", max_features="log2"),
        with_entry("knn", n_neighbors=2.5),
        with_entry("gbt", learning_rate="fast"),
        with_entry("mlp", hidden_layer_sizes=True),
        with_entry("mlp", hidden_layer_sizes=[0]),
        with_entry("svm", gamma=-1.0),
        with_entry("decision-tree", max_depth=True),
        {"seed": "7"},
        {"synthetic": {"n": True}},
        {"cv_folds": 4.5},
        {"explain": {"lime_samples": 60.9}},
        {"tuning": {"spaces": {"tree": {"max_depth": ["uniform", 2, 6]}}}},
        {"tuning": {"spaces": {"nb": {"var_smoothing": ["randint", 1, 5]}}}},
        {"dataset": "survey.csv"},
        {**with_entry("knn"), "tuning": {"spaces": {"extra": {"weights": ["uniform", 0, 1]}}}},
        {"reference_model": ["stack"]},
        {"models": base_config("out")["models"] + [{"name": ["extra"],
                                                     "algorithm": "naive-bayes"}]},
        {"models": base_config("out")["models"] + [{"name": "extra",
                                                     "algorithm": ["naive-bayes"]}]},
        {"output_dir": 5},
        # an integer path is a file descriptor to open(); this one is never open
        {"dataset": "survey.csv", "schema": 999999},
        {"dataset": 7, "schema": "schema.json"},
        {"target": 3},
        {"models": base_config("out")["models"] + [
            {"name": "extra", "algorithm": "gbt", "hyperparameter": {"n_estimators": 3}}]},
        {"tuning": {"space": {"nb": {"var_smoothing": [1e-9]}}}},
        {"cv_fold": 3},
        {"smote": {"enabled": True, "k_neighbour": 3}},
        {"explain": {"n_permutation": 5}},
        {"synthetic": {"n": 240, "imbalence": 5.0}},
        {"oof_folds": 3},
        with_stack(oof_fold=3),
        with_stack(meta={"hyperparameter": {"C": 0.5}}),
        with_entry("gbt", categorical_handling="ordered-target-stats", categorical_features=[2, 2]),
        {**with_entry("gbt", categorical_handling="ordered-target-stats"),
         "tuning": {"spaces": {"extra": {"categorical_features": [[1], [2, 2]]}}}},
        {"explain": {"global_rows": 201}},
        {"models": STACK_OF_STACK, "reference_model": "nb"},
        {"models": STACK_OF_STACK[::-1], "reference_model": "nb"},
    ], ids=["seed-not-a-number", "model-not-an-object", "test-fraction-above-1",
            "unknown-smote-rounding", "infinite-count", "section-not-an-object",
            "stack-one-oof-fold", "stack-without-bases", "stack-unknown-meta-hyperparameter",
            "stack-bases-not-a-list", "stack-base-not-a-name",
            "explain-option-not-a-number", "explain-option-below-1", "tuning-space-for-stack",
            "tuning-space-unknown-hyperparameter", "tuning-space-empty",
            "tuning-space-not-an-object", "tuning-zero-iterations", "tuning-one-fold",
            "cv-one-fold", "synthetic-no-rows", "synthetic-zero-imbalance",
            "synthetic-infinite-imbalance",
            "uniform-bound-not-a-number", "randint-empty-range", "loguniform-from-zero",
            "resample-test-string", "smote-enabled-string", "smote-rounding-nearest-code",
            "logistic-zero-C", "depth-numeric-string", "smoothing-string",
            "tuning-smoothing-string", "unknown-max-features", "fractional-neighbors",
            "learning-rate-string", "hidden-sizes-bool", "hidden-layer-of-zero", "negative-gamma",
            "depth-bool", "seed-numeric-string", "synthetic-rows-bool", "fractional-cv-folds",
            "fractional-lime-samples", "uniform-over-integer-key", "randint-over-real-key",
            "csv-without-schema", "uniform-over-choice-key", "reference-model-list",
            "model-name-list", "algorithm-list", "output-dir-number", "schema-number",
            "dataset-number", "target-number", "model-hyperparameter-singular",
            "tuning-space-singular", "cv-fold-singular", "smote-k-neighbour",
            "explain-n-permutation-singular", "synthetic-misspelt-key", "oof-folds-at-top-level",
            "stack-oof-fold-singular", "meta-hyperparameter-singular",
            "gbt-repeated-categorical-feature", "tuning-repeated-categorical-feature",
            "explain-global-rows-above-200", "stack-base-is-a-stack",
            "stack-base-is-a-later-stack"])
    def test_config_fault_exits_2_without_traceback(self, tmp_path, overrides):
        cfg, _ = write_config(tmp_path, **overrides)
        for command in (["benchmark"], ["compare"], ["explain", "--model", "nb"]):
            result = run_cli(*command, "--config", cfg)
            assert result.exit_code == 2, (command, result.output)
            assert isinstance(result.exception, SystemExit)
            assert "config error" in result.output
            assert "Traceback" not in result.output

    @pytest.mark.parametrize("command, test_fraction", [
        (["benchmark"], 0.05), (["benchmark"], 0.9), (["explain", "--model", "nb"], 0.9)])
    def test_split_leaving_a_class_empty_exits_3(self, tmp_path, command, test_fraction):
        """30 rows at imbalance 5 hold 5 minority rows: a fraction of 0.05
        puts none of them in the test split, 0.9 all of them."""
        cfg, _ = write_config(tmp_path, synthetic={"n": 30, "imbalance": 5.0},
                              smote={"enabled": False}, test_fraction=test_fraction)
        result = run_cli(*command, "--config", cfg)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "data error: test_fraction" in result.output
        assert "failed" not in result.output

    @pytest.mark.parametrize("command, overrides", [
        (["benchmark"], {"tuning": {"folds": 50, "spaces": {"nb": {"var_smoothing": [1e-9]}}}}),
        (["explain", "--model", "nb"],
         {"tuning": {"folds": 50, "spaces": {"nb": {"var_smoothing": [1e-9]}}}}),
        (["compare"], {"cv_folds": 50}),
        (["benchmark"], with_stack(oof_folds=50)),
        (["explain", "--model", "stack"], with_stack(oof_folds=50)),
        (["compare"], with_stack(oof_folds=50)),
    ], ids=["tuning-folds-above-minority", "explain-tuning-folds-above-minority",
            "cv-folds-above-minority",
            "oof-folds-above-minority", "explain-oof-folds-above-minority",
            "compare-oof-folds-above-minority"])
    def test_fold_count_above_minority_exits_3_without_traceback(self, tmp_path, command,
                                                                 overrides):
        cfg, _ = write_config(tmp_path, **overrides)
        result = run_cli(*command, "--config", cfg)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "data error: fold count 50 exceeds the minority class count" in result.output
        assert "failed" not in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("oof_folds, stderr", [
        (1, "config error: oof_folds must be an integer from 2 to 1000000, got 1\n"),
        (2.5, "config error: oof_folds must be an integer from 2 to 1000000, got 2.5\n"),
        ("x", "config error: oof_folds must be an integer from 2 to 1000000, got 'x'\n"),
        (None, "config error: oof_folds must be an integer from 2 to 1000000, got None\n"),
        (True, "config error: oof_folds must be an integer from 2 to 1000000, got True\n"),
        (0, "config error: oof_folds must be an integer from 2 to 1000000, got 0\n"),
        (1000001, "config error: oof_folds must be an integer from 2 to 1000000, "
                  "got 1000001\n"),
    ])
    def test_stack_oof_folds_fault_keeps_its_stderr_line(self, tmp_path, oof_folds, stderr):
        """StackingSpec checks oof_folds, not the run-settings table; a config
        names the fault in the same line as when the table checked it."""
        cfg, out = write_config(tmp_path, **with_stack(oof_folds=oof_folds))
        for command in (["benchmark"], ["compare"], ["explain", "--model", "stack"]):
            result = run_cli(*command, "--config", cfg)
            assert (result.exit_code, result.stderr) == (2, stderr), command
            assert not out.exists()

    @pytest.mark.parametrize("explained", ["gbt", "stack"], ids=["roster-gbt", "stack-base"])
    @pytest.mark.parametrize("handling", ["ordered-target-stats", "plain-codes"])
    def test_categorical_index_past_the_columns_exits_3_before_any_fit(
            self, tmp_path, monkeypatch, explained, handling):
        """A GBT, in the roster and as a stack's base, that encodes column 40 of
        the 22 by ordered target statistics is a data error found before any fit;
        plain-codes ignores the list, and the same config runs."""
        import imbalkit.cli
        import imbalkit.validation
        from imbalkit.learners import base

        monkeypatch.setattr(base, "_available_cpus", lambda: 1)
        fits = []
        for module in (imbalkit.cli, imbalkit.validation):
            real = module.fit_model
            monkeypatch.setattr(module, "fit_model",
                                lambda *args, real=real: fits.append(args) or real(*args))
        gbt = {"name": "gbt", "algorithm": "gbt",
               "hyperparameters": {"n_estimators": 3, "categorical_handling": handling,
                                   "categorical_features": [0, 40]}}
        stack = {"name": "stack", "algorithm": "stacking", "bases": ["nb", "gbt"],
                 "oof_folds": 3}
        cfg, out = write_config(tmp_path, n=300, models=[
            {"name": "nb", "algorithm": "naive-bayes"}, gbt, stack])
        for command in (["benchmark"], ["compare"], ["explain", "--model", explained]):
            fits.clear()
            result = run_cli(*command, "--config", cfg)
            if handling == "plain-codes":
                assert (result.exit_code, result.stderr) == (0, ""), (command, result.output)
                assert fits and (out / "run-manifest.json").exists()
                continue
            assert (result.exit_code, result.stderr) == (
                3, "data error: gbt categorical_features must be a list, each an integer "
                   "from 0 to 21, got [0, 40]\n"), command
            assert fits == [] and not (out / "run-manifest.json").exists()

    def test_oof_folds_above_an_outer_partition_minority_exits_3(self, tmp_path):
        """35 out-of-fold folds fit the whole minority of 40 rows, but compare
        fits the stack on 4-fold outer training partitions of 30."""
        cfg, _ = write_config(tmp_path, **with_stack(oof_folds=35))
        result = run_cli("compare", "--config", cfg)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "data error: fold count 35 exceeds the minority class count 30" in result.output
        assert "failed" not in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command, n, overrides", [
        (["compare"], 12, {"models": base_config("out")["models"][:2], "reference_model": "nb",
                           "cv_folds": 2}),
        (["benchmark"], 18, with_stack(oof_folds=2)),
        (["benchmark"], 18, {"models": base_config("out")["models"][:2], "reference_model": "nb",
                             "tuning": {"folds": 2, "spaces": {"nb": {"var_smoothing": [1e-9]}}}}),
    ], ids=["cv-fold", "stack-oof-fold", "tuning-fold"])
    def test_partition_smote_cannot_resample_exits_3_before_any_fit(
            self, tmp_path, monkeypatch, command, n, overrides):
        """Two folds over 2 or 3 minority rows leave a training partition with
        one, which SMOTE cannot resample. Fits run in-process, so a spy sees them."""
        import imbalkit.cli
        import imbalkit.validation
        from imbalkit.learners import base

        monkeypatch.setattr(base, "_available_cpus", lambda: 1)
        fits = []
        for module in (imbalkit.cli, imbalkit.validation):
            monkeypatch.setattr(module, "fit_model", lambda *args: fits.append(args))
        cfg, _ = write_config(tmp_path, n=n, seed=1, **overrides)
        result = run_cli(*command, "--config", cfg)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "data error: minority class needs at least 2 rows for SMOTE" in result.output
        assert "failed" not in result.output
        assert fits == []

    def test_failed_tuning_fit_exits_4_without_traceback(self, tmp_path):
        cfg, out = write_config(
            tmp_path, reference_model="nb",
            models=[{"name": "nb", "algorithm": "naive-bayes"},
                    {"name": "gbt", "algorithm": "gbt", "hyperparameters": {"n_estimators": 3}}],
            tuning={"spaces": {"gbt": {"categorical_handling": ["ordered-target-stats"],
                                       "categorical_features": [[99]]}},
                    "n_iter": 1, "folds": 3})
        for command, others in ((["benchmark"], {"nb": "ok"}),
                                (["explain", "--model", "gbt"], {})):
            result = run_cli(*command, "--config", cfg)
            assert result.exit_code == 4, (command, result.output)
            assert isinstance(result.exception, SystemExit)
            assert "model gbt failed" in result.output
            assert "Traceback" not in result.output
            status = read_manifest(out)["model_status"]
            assert status.pop("gbt").startswith("failed") and status == others

    @pytest.mark.parametrize("instances", ["abc", "1..x", "3..1", "", ","])
    def test_malformed_instances_exit_2_without_traceback(self, tmp_path, instances):
        cfg, _ = write_config(tmp_path)
        result = run_cli("explain", "--config", cfg, "--model", "nb", "--instances", instances)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--instances'" in result.output
        assert "Traceback" not in result.output

    def test_missing_config_file(self, tmp_path):
        result = run_cli("benchmark", "--config", tmp_path / "absent.json")
        assert result.exit_code == 2

    def test_config_with_a_bom_loads(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        result = run_cli("eda", "--config", cfg)
        assert result.exit_code == 0, result.output

    def test_undecodable_config_exits_2_without_traceback(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        cfg.write_bytes(cfg.read_bytes().replace(b'"seed"', b'"s\xffeed"'))
        result = run_cli("benchmark", "--config", cfg)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "config error" in result.output and "Traceback" not in result.output

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run_cli("eda", "--config", bad).exit_code == 2

    def test_duplicate_model_names(self, tmp_path):
        cfg, _ = write_config(tmp_path, reference_model="m", models=[
            {"name": "m", "algorithm": "knn"},
            {"name": "m", "algorithm": "naive-bayes"}])
        assert run_cli("benchmark", "--config", cfg).exit_code == 2

    def test_unknown_stacking_base(self, tmp_path):
        cfg, _ = write_config(tmp_path, reference_model="s", models=[
            {"name": "s", "algorithm": "stacking", "bases": ["ghost"]}])
        assert run_cli("benchmark", "--config", cfg).exit_code == 2

    def test_missing_dataset_file_is_data_error(self, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text("[]", encoding="utf-8")
        cfg, _ = write_config(tmp_path, dataset=str(tmp_path / "absent.csv"),
                              schema=str(schema), target="outcome")
        result = run_cli("benchmark", "--config", cfg)
        assert result.exit_code == 3


def run_process(*args, code=None):
    """One fresh interpreter on this package: `python -m imbalkit.cli args`, or
    `python -c code args`."""
    src = str(Path(imbalkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    head = ["-m", "imbalkit.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


class TestEntryPoint:
    @pytest.mark.parametrize("command, expected", [("eda", 0), ("compare", 2), ("explain", 3),
                                                   ("benchmark", 4)])
    def test_module_exits_with_main_s_code_stderr_and_artifacts(self, tmp_path, command,
                                                                expected):
        """`python -m imbalkit.cli` runs the console entry point, which ends the
        process without the shutdown collections: its exit code, stderr and
        artifacts are those of main run in this process."""
        overrides = {"compare": {"reference_model": None},
                     "explain": {},
                     # a tuning candidate that names a column past the 22 of the data
                     "benchmark": {**with_entry("gbt", categorical_handling="ordered-target-stats"),
                                   "tuning": {"spaces": {"extra": {"categorical_features": [[99]]}},
                                              "n_iter": 1, "folds": 3}}}.get(command, {})
        cfg, _ = write_config(tmp_path, **overrides)
        args = [command, "--config", cfg] + (["--model", "nb", "--instances", "9999"]
                                             if command == "explain" else [])
        result = CliRunner().invoke(main, [*map(str, args), "--out", str(tmp_path / "here")])
        proc = run_process(*args, "--out", tmp_path / "there")
        assert (proc.returncode, proc.stderr, proc.stdout) == (
            result.exit_code, result.stderr, result.stdout) and proc.returncode == expected
        assert "Traceback" not in proc.stderr
        if expected in (0, 4):
            assert (read_manifest(tmp_path / "there")["artifacts"]
                    == read_manifest(tmp_path / "here")["artifacts"])
        else:
            assert not (tmp_path / "there" / "run-manifest.json").exists()

    def test_only_the_entry_point_freezes_the_heap_at_exit(self, tmp_path):
        """run() registers gc.freeze with atexit, so a handler registered before
        it, which runs after it, sees the frozen heap; main alone never freezes."""
        cfg, out = write_config(tmp_path)
        probe = ("import atexit, gc\n"
                 "from imbalkit import cli\n"
                 "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0))\n"
                 "cli.run()\n")
        proc = run_process("eda", "--config", cfg, code=probe)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "frozen: True\n", "")
        assert (out / "run-manifest.json").exists()
        frozen = gc.get_freeze_count()
        assert run_cli("eda", "--config", cfg).exit_code == 0
        assert gc.get_freeze_count() == frozen


class TestInputFiles:
    """Faults in the CSV or schema file exit 3 with a data error, never a traceback."""

    def assert_data_error(self, cfg, message):
        for command in ("eda", "benchmark"):
            result = run_cli(command, "--config", cfg)
            assert result.exit_code == 3, (command, result.output)
            assert isinstance(result.exception, SystemExit)
            assert "data error" in result.output and message in result.output, result.output
            assert "Traceback" not in result.output

    @pytest.mark.parametrize("schema, message", [
        ("{not json", "is not valid JSON"),
        (["color"], "needs 'name' and 'kind' strings"),
        ([{"name": "color", "categories": ["red"]}], "needs 'name' and 'kind' strings"),
        ([{"kind": "continuous"}], "needs 'name' and 'kind' strings"),
        ([{"name": 5, "kind": "continuous"}], "needs 'name' and 'kind' strings"),
        ([{"name": "age", "kind": ["continuous"]}], "needs 'name' and 'kind' strings"),
        ([{"name": "employed", "kind": "binary", "categories": "ny"}],
         "categories of column 'employed' must be a list of strings"),
        ([{"name": "employed", "kind": "binary", "categories": [0, 1]}],
         "categories of column 'employed' must be a list of strings"),
        ([{"name": "employed", "kind": "binary", "categories": ["", "yes"]}],
         "empty category in column 'employed'"),
    ], ids=["not-json", "entry-not-an-object", "entry-without-kind", "entry-without-name",
            "name-not-a-string", "kind-not-a-string", "categories-a-string",
            "categories-not-strings", "empty-category"])
    def test_schema_fault_exits_3_without_traceback(self, tmp_path, schema, message):
        cfg, _, _ = write_survey(tmp_path)
        text = schema if isinstance(schema, str) else json.dumps(SURVEY_SCHEMA[:2] + schema)
        (tmp_path / "schema.json").write_text(text, encoding="utf-8")
        self.assert_data_error(cfg, message)

    @pytest.mark.parametrize("name", ["survey.csv", "schema.json"])
    def test_a_bom_is_read_as_utf8(self, tmp_path, name):
        cfg, out, _ = write_survey(tmp_path)
        assert run_cli("eda", "--config", cfg).exit_code == 0
        plain = read_manifest(out)["artifacts"]
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())
        result = run_cli("eda", "--config", cfg)
        assert result.exit_code == 0, result.output
        assert read_manifest(out)["artifacts"] == plain

    @pytest.mark.parametrize("name", ["survey.csv", "schema.json"])
    def test_undecodable_bytes_name_the_file(self, tmp_path, name):
        cfg, _, _ = write_survey(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes().replace(b"red", b"r\xe9d", 1))
        self.assert_data_error(cfg, f"{path} is not UTF-8 text")

    def test_csv_reader_fault_names_the_file(self, tmp_path):
        cfg, _, _ = write_survey(tmp_path)
        with open(tmp_path / "survey.csv", "a", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(["red", "north", "no", "2" * 200_000, "abused"])
        self.assert_data_error(cfg, f"{tmp_path / 'survey.csv'} is not a CSV file: field larger")

    def test_repeated_header_column_exits_3(self, tmp_path):
        cfg, _, _ = write_survey(tmp_path)
        lines = (tmp_path / "survey.csv").read_text(encoding="utf-8").split("\n")
        (tmp_path / "survey.csv").write_text(
            "\n".join(line and line + "," + line.split(",")[3] for line in lines),
            encoding="utf-8")
        self.assert_data_error(cfg, "repeated columns in header: ['age']")

    @given(_tables())
    @settings(max_examples=100, deadline=None)
    def test_drawn_tables_exit_0_or_3_with_the_datasets_own_message(self, table):
        """eda on a drawn schema and CSV exits 0 exactly when Dataset accepts
        the rows, and otherwise 3 with the message Dataset raises for them."""
        schema, rows = table
        try:
            Dataset(schema, rows, "t")
            expected = None
        except DataError as exc:
            expected = f"data error: {exc}\n"
        with tempfile.TemporaryDirectory() as tmp:
            data, schema_path = Path(tmp) / "table.csv", Path(tmp) / "schema.json"
            with open(data, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([[c.name for c in schema]] + rows)
            write_schema_json(schema, schema_path)
            cfg, _ = write_config(Path(tmp), dataset=str(data), schema=str(schema_path),
                                  target="t")
            result = run_cli("eda", "--config", cfg)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            result.exc_info)
        assert "Traceback" not in result.output
        if expected is None:
            assert result.exit_code == 0, result.output
        else:
            assert result.exit_code == 3 and expected in result.output, result.output

    @pytest.mark.parametrize("cells", [["red", "north"], ["red", "north", "no", "25", "abused", "x"]],
                             ids=["short-row", "long-row"])
    def test_csv_row_of_the_wrong_length_exits_3(self, tmp_path, cells):
        cfg, _, rows = write_survey(tmp_path)
        with open(tmp_path / "survey.csv", "a", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(cells)
        self.assert_data_error(cfg, f"row {len(rows)}: expected 5 cells, got {len(cells)}")
