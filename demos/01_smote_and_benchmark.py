"""Walkthrough: from raw survey rows to a benchmarked model roster.

Generates the bundled synthetic imbalanced survey, rebalances the training
split with SMOTE, trains a few contrasting learners plus a stacked ensemble
(which SMOTEs inside its own out-of-fold partitions instead), and prints the
imbalance-aware metrics for each.

Run with:  python demos/01_smote_and_benchmark.py
"""

import numpy as np

from imbalkit import (
    SmoteSettings,
    class_distribution,
    evaluate,
    label_encode,
    smote,
    stratified_split,
)
from imbalkit.learners.base import ModelSpec, fit_model, predict_proba
from imbalkit.stacking import StackingSpec
from imbalkit.synth import synthetic_dataset


def show(name, report):
    print(f"{name:12s} acc={report.accuracy:.3f} maF1={report.macro_f1:.3f} "
          f"auc={report.auc:.3f} spec={report.specificity:.3f} "
          f"gmean={report.g_mean:.3f} iba={report.iba:.3f}")


def main():
    dataset = synthetic_dataset(n=2000, seed=7, imbalance=5.0)
    matrix, encoder = label_encode(dataset)
    print(f"dataset: {matrix.n_rows} rows, {matrix.n_features} features")

    raw_train, test = stratified_split(matrix, test_fraction=0.2, seed=0)
    before = class_distribution(raw_train)
    train = smote(raw_train, k_neighbors=5, seed=0)
    after = class_distribution(train)
    print(f"SMOTE: {before.count_class0}/{before.count_class1} -> "
          f"{after.count_class0}/{after.count_class1}")
    # synthetic rows carry negative ids, so leakage is easy to audit
    n_synth = int(np.sum(train.row_ids < 0))
    print(f"{n_synth} synthetic rows (negative row ids)\n")

    specs = {
        "logistic": ModelSpec("logistic", {"penalty": "l1", "C": 0.1}),
        "tree": ModelSpec("decision-tree"),
        "gbt": ModelSpec("gbt", {"n_estimators": 80, "learning_rate": 0.1}),
        "naive-bayes": ModelSpec("naive-bayes"),
    }
    for name, spec in specs.items():
        model = fit_model(spec, train)
        show(name, evaluate(predict_proba(model, test), test.target))

    # SMOTE rows made before the stack would land in its held-out folds as
    # near-copies of rows the fold models trained on, so it gets the raw split
    stack = StackingSpec(
        base_specs=(specs["gbt"], specs["naive-bayes"], specs["tree"]),
        oof_folds=5, seed=0, resampler=SmoteSettings(k_neighbors=5),
    )
    stacked = fit_model(stack, raw_train)
    show("stacked", evaluate(predict_proba(stacked, test), test.target))


if __name__ == "__main__":
    main()
