"""The four benchmark workloads: their inputs, generated from a seed, and the
CLI invocations that run on them.

Each workload is chosen so that one optimisable module does most of its work
there and little in another workload (see README.md for the reasons).
Inputs are written into a scratch directory before any timed region starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

NAMES = ("fit-roster", "explain-gbt", "compare-cv", "survey-scale")

# Full-size parameters are chosen so one repetition takes a few seconds on a
# 2-core x86 box, so that a run of 28 s holds about ten repetitions and its
# median is steady. "tiny" is the smoke-test size: about 300 rows, 2 folds.
SIZES = {
    "full": {
        "fit_rows": 1400, "rf_trees": 10, "gbt_trees": 20, "svm_passes": 1, "mlp_iters": 2,
        "explain_rows": 600, "explain_trees": 20, "global_rows": 8, "n_permutations": 10,
        "instances": "0..2",
        "compare_rows": 2000, "compare_trees": 3, "cv_folds": 5, "oof_folds": 3,
        "survey_rows": 6000,
    },
    "tiny": {
        "fit_rows": 300, "rf_trees": 3, "gbt_trees": 5, "svm_passes": 1, "mlp_iters": 1,
        "explain_rows": 300, "explain_trees": 5, "global_rows": 2, "n_permutations": 2,
        "instances": "0..1",
        "compare_rows": 300, "compare_trees": 5, "cv_folds": 2, "oof_folds": 2,
        "survey_rows": 300,
    },
}

ROSTER8 = ("logistic", "decision-tree", "random-forest", "gbt", "svm",
           "naive-bayes", "knn", "mlp")


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    invocations: tuple[tuple[str, ...], ...]   # CLI arguments after `imbalkit`
    roster: tuple[str, ...]
    reference: str | None = None


def _readme_roster(gbt_trees: int, oof_folds: int) -> list[dict]:
    return [
        {"name": "nb", "algorithm": "naive-bayes"},
        {"name": "gbt", "algorithm": "gbt", "hyperparameters": {"n_estimators": gbt_trees}},
        {"name": "stack", "algorithm": "stacking", "bases": ["nb", "gbt"],
         "oof_folds": oof_folds},
    ]


def _synthetic(seed: int, n: int, test_fraction: float = 0.2) -> dict:
    return {"dataset": "synthetic", "seed": seed, "test_fraction": test_fraction,
            "synthetic": {"n": n, "imbalance": 5.0},
            "smote": {"enabled": True, "k_neighbors": 5}}


def prepare(name: str, seed: int, work_dir: Path, size: str = "full") -> Workload:
    """Write the workload's inputs under work_dir and describe its invocations."""
    p = SIZES[size]
    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / "config.json"

    if name == "fit-roster":
        hyper = {"random-forest": {"n_estimators": p["rf_trees"]},
                 "gbt": {"n_estimators": p["gbt_trees"]},
                 "svm": {"max_passes": p["svm_passes"]},
                 "mlp": {"max_iterations": p["mlp_iters"]}}
        # most rows go to the test set: its size, not the training set's,
        # decides how much the mean AUC varies from seed to seed
        config = _synthetic(seed, p["fit_rows"], test_fraction=0.6)
        config["models"] = [{"name": a, "algorithm": a, "hyperparameters": hyper.get(a, {})}
                            for a in ROSTER8]
        workload = Workload(name, config_path, (("benchmark", "--config", str(config_path)),),
                            ROSTER8)
    elif name == "explain-gbt":
        config = _synthetic(seed, p["explain_rows"])
        config["models"] = _readme_roster(p["explain_trees"], 5)
        config["explain"] = {"global_rows": p["global_rows"],
                             "n_permutations": p["n_permutations"]}
        workload = Workload(name, config_path,
                            (("explain", "--config", str(config_path), "--model", "gbt",
                              "--instances", p["instances"]),), ("gbt",))
    elif name == "compare-cv":
        config = _synthetic(seed, p["compare_rows"])
        config["models"] = _readme_roster(p["compare_trees"], p["oof_folds"])
        config["reference_model"] = "stack"
        config["cv_folds"] = p["cv_folds"]
        workload = Workload(name, config_path, (("compare", "--config", str(config_path)),),
                            ("nb", "gbt", "stack"), reference="stack")
    elif name == "survey-scale":
        from imbalkit import synth

        data_path, schema_path = work_dir / "survey.csv", work_dir / "schema.json"
        # a milder imbalance than the other workloads gives SMOTE a large
        # minority class, so its O(n_min^2) distance matrix shows in peak RSS
        dataset = synth.synthetic_dataset(n=p["survey_rows"], seed=seed, imbalance=1.5)
        synth.write_dataset_csv(dataset, data_path)
        synth.write_schema_json(dataset.schema, schema_path)
        config = {"dataset": str(data_path), "schema": str(schema_path),
                  "target": synth.TARGET, "seed": seed, "test_fraction": 0.2,
                  "smote": {"enabled": True, "k_neighbors": 5},
                  "models": [{"name": "nb", "algorithm": "naive-bayes"},
                             {"name": "logistic", "algorithm": "logistic"}]}
        workload = Workload(name, config_path,
                            (("eda", "--config", str(config_path)),
                             ("benchmark", "--config", str(config_path))),
                            ("nb", "logistic"))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")

    config_path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
    return workload
