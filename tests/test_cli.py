import csv
import hashlib
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import imbalkit
from imbalkit.cli import main
from imbalkit.report import ConfigError, load_config
from imbalkit.special import chi2_sf


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


# valid hyperparameters that every fit rejects: a categorical column index
# outside the 22-column synthetic matrix
UNFITTABLE_GBT = {"categorical_handling": "ordered-target-stats", "categorical_features": [99]}


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

    def test_partial_failure_exit_code(self, tmp_path):
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

    def test_failed_model_exits_4_and_leaves_no_rows(self, tmp_path):
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

    def test_failed_reference_exits_4(self, tmp_path):
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

    def test_failed_fit_exits_4_without_traceback(self, tmp_path):
        cfg, out = write_config(tmp_path, reference_model="bad", models=[
            {"name": "bad", "algorithm": "gbt", "hyperparameters": UNFITTABLE_GBT}])
        result = run_cli("explain", "--config", cfg, "--model", "bad")
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert "model bad failed:" in result.output
        assert "Traceback" not in result.output
        assert read_manifest(out)["model_status"]["bad"].startswith("failed: ")

    def test_gbt_native_importances(self, tmp_path):
        cfg, out = write_config(tmp_path, reference_model="boost", models=[
            {"name": "boost", "algorithm": "gbt",
             "hyperparameters": {"n_estimators": 15}}])
        result = run_cli("explain", "--config", cfg, "--model", "boost",
                         "--instances", "0")
        assert result.exit_code == 0, result.output
        for tag in ("split_count", "gain", "loss_reduction"):
            assert (out / "importances" / f"boost_{tag}.csv").exists()


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
    @pytest.mark.parametrize("command, spied", [
        (("benchmark",), {"stack_fit", "cross_validate_many"}),
        (("explain", "--model", "stack"), {"stack_fit"}),
    ], ids=["benchmark", "explain"])
    def test_no_synthetic_row_reaches_in_fold_resamplers(self, tmp_path, monkeypatch,
                                                         command, spied):
        """A stack and the tuning CV SMOTE inside their own folds; a SMOTE row
        made before them would sit in a held-out fold as a near-copy of rows
        the fold models trained on. SMOTE rows carry negative row ids."""
        import imbalkit.stacking
        import imbalkit.validation

        seen = {}

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(spec, data, *args, **kwargs):
                seen.setdefault(name, []).append(data.row_ids.copy())
                return real(spec, data, *args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        spy(imbalkit.stacking, "stack_fit")
        spy(imbalkit.validation, "cross_validate_many")
        cfg, out = write_config(tmp_path, tuning={"spaces": {"tree": {"max_depth": [2, 6]}},
                                                  "n_iter": 2, "folds": 3})
        result = run_cli(*command, "--config", cfg)
        assert result.exit_code == 0, result.output
        assert set(seen) == spied
        for name, calls in seen.items():
            for ids in calls:
                assert ids.size == 180 and np.all(ids >= 0), f"SMOTE rows reached {name}"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=5)
_RUN_SETTINGS = ["seed", "test_fraction", "cv_folds", "resample_test", "smote.k_neighbors",
                 "smote.enabled", "tuning.n_iter", "tuning.folds", "synthetic.n",
                 "synthetic.imbalance", "explain.n_permutations", "explain.background_rows",
                 "explain.global_rows", "explain.lime_samples", "stack.oof_folds"]
_SPACE_VALUES = _JSON | st.tuples(st.sampled_from(["uniform", "loguniform", "randint"]),
                                  _JSON, _JSON).map(list)
_SPACES = st.dictionaries(
    st.sampled_from(["nb", "tree", "stack", "ghost"]),
    _JSON | st.dictionaries(st.sampled_from(["var_smoothing", "max_depth", "min_samples_split",
                                             "bogus"]), _SPACE_VALUES, max_size=2),
    max_size=2)


class TestErrorPaths:
    @given(st.dictionaries(st.sampled_from(_RUN_SETTINGS), _JSON, max_size=4), _SPACES)
    @settings(max_examples=150, deadline=None)
    def test_load_config_raises_only_config_error(self, tmp_path_factory, run_settings,
                                                  spaces):
        """Arbitrary JSON run settings and tuning spaces load, or raise ConfigError."""
        cfg = base_config("out", tuning={"spaces": spaces})
        for dotted, value in run_settings.items():
            *section, key = dotted.split(".")
            target = cfg
            if section == ["stack"]:
                target = cfg["models"][-1]
            elif section:
                target = cfg.setdefault(section[0], {})
            target[key] = value
        path = tmp_path_factory.getbasetemp() / "arbitrary.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        try:
            load_config(path)
        except ConfigError:
            pass

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
            "model-name-list", "algorithm-list"])
    def test_config_fault_exits_2_without_traceback(self, tmp_path, overrides):
        cfg, _ = write_config(tmp_path, **overrides)
        for command in (["benchmark"], ["compare"], ["explain", "--model", "nb"]):
            result = run_cli(*command, "--config", cfg)
            assert result.exit_code == 2, (command, result.output)
            assert isinstance(result.exception, SystemExit)
            assert "config error" in result.output
            assert "Traceback" not in result.output

    @pytest.mark.parametrize("command, overrides", [
        (["benchmark"], {"tuning": {"folds": 50, "spaces": {"nb": {"var_smoothing": [1e-9]}}}}),
        (["compare"], {"cv_folds": 50}),
        (["benchmark"], with_stack(oof_folds=50)),
        (["explain", "--model", "stack"], with_stack(oof_folds=50)),
    ], ids=["tuning-folds-above-minority", "cv-folds-above-minority",
            "oof-folds-above-minority", "explain-oof-folds-above-minority"])
    def test_fold_count_above_minority_exits_3_without_traceback(self, tmp_path, command,
                                                                 overrides):
        cfg, _ = write_config(tmp_path, **overrides)
        result = run_cli(*command, "--config", cfg)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "data error: fold count 50 exceeds the minority class count" in result.output
        assert "failed" not in result.output
        assert "Traceback" not in result.output

    def test_failed_tuning_fit_exits_4_without_traceback(self, tmp_path):
        cfg, out = write_config(
            tmp_path, reference_model="nb",
            models=[{"name": "nb", "algorithm": "naive-bayes"},
                    {"name": "gbt", "algorithm": "gbt", "hyperparameters": {"n_estimators": 3}}],
            tuning={"spaces": {"gbt": {"categorical_handling": ["ordered-target-stats"],
                                       "categorical_features": [[99]]}},
                    "n_iter": 1, "folds": 3})
        result = run_cli("benchmark", "--config", cfg)
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert "model gbt failed" in result.output
        assert "Traceback" not in result.output
        status = read_manifest(out)["model_status"]
        assert status["nb"] == "ok" and status["gbt"].startswith("failed")

    @pytest.mark.parametrize("instances", ["abc", "1..x"])
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
