import csv
import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

import imbalkit
from imbalkit.cli import main


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
        broken = {"name": "bad", "algorithm": "mlp",
                  "hyperparameters": {"hidden_layer_sizes": [0]}}
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

    def test_gbt_native_importances(self, tmp_path):
        cfg, out = write_config(tmp_path, reference_model="boost", models=[
            {"name": "boost", "algorithm": "gbt",
             "hyperparameters": {"n_estimators": 15}}])
        result = run_cli("explain", "--config", cfg, "--model", "boost",
                         "--instances", "0")
        assert result.exit_code == 0, result.output
        for tag in ("split_count", "gain", "loss_reduction"):
            assert (out / "importances" / f"boost_{tag}.csv").exists()


class TestErrorPaths:
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
