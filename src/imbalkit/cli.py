"""Batch CLI: imbalkit eda|benchmark|compare|explain --config <path>."""

from __future__ import annotations

import sys

import click
import numpy as np

from . import explain as xai
from .data import (
    DataError,
    SchemaError,
    class_distribution,
    label_encode,
    stratified_split,
)
from .learners.base import fit_model, predict_proba
from .learners.forest import RandomForestModel
from .learners.gbt import GbtModel
from .learners.search import tune_random_search
from .metrics import evaluate, roc_curve
from .report import ArtifactWriter, ConfigError, RunConfig, load_config
from .stacking import StackingSpec
from .stats import (
    StatsError,
    bonferroni_adjust,
    chi_square_association,
    contingency_table,
    cramers_v,
    paired_t_test,
)
from .svg import bar_chart_svg, heatmap_svg, roc_svg
from .validation import check_fold_count, cross_validate_many

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PARTIAL = 4


def _config_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(), help="JSON run configuration")(fn)
    fn = click.option("--seed", type=int, default=None, help="override the config seed")(fn)
    fn = click.option("--resample-test", is_flag=True, default=None,
                      help="also resample the held-out test set (replication mode)")(fn)
    fn = click.option("--out", "out_dir", type=click.Path(), default=None,
                      help="override the output directory")(fn)
    return fn


@click.group()
def main():
    """Imbalanced tabular classification toolkit."""


def _load(config_path, seed, resample_test, out_dir) -> RunConfig:
    try:
        return load_config(config_path, seed_override=seed,
                           out_override=out_dir,
                           resample_test_override=resample_test)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)


def _materialize(config: RunConfig, folds: int | None = None):
    """(dataset, matrix, encoder); a data fault, or more folds than minority rows, exits 3."""
    try:
        dataset = config.load()
        matrix, encoder = label_encode(dataset)
        if folds is not None:
            check_fold_count(matrix.target, folds)
    except (DataError, SchemaError, OSError) as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    return dataset, matrix, encoder


def _split_and_resample(config: RunConfig, matrix):
    """(raw training split, training split after SMOTE, test split)."""
    raw_train, test = stratified_split(matrix, config.test_fraction, config.seed)
    train = raw_train
    if config.resampler is not None:
        train = config.resampler.apply(raw_train, config.seed)
        if config.resample_test:
            test = config.resampler.apply(test, config.seed + 1)
    return raw_train, train, test


def _training_split(spec, raw_train, train):
    """A stack resamples inside its own out-of-fold partitions, so it trains
    on the raw split: SMOTE rows made beforehand would reach its held-out
    folds as near-copies of rows the fold models trained on."""
    return raw_train if isinstance(spec, StackingSpec) else train


@main.command()
@_config_options
def eda(config_path, seed, resample_test, out_dir):
    """Frequency tables, Cramer's V matrix + heatmap, chi-square associations."""
    config = _load(config_path, seed, resample_test, out_dir)
    dataset, matrix, _ = _materialize(config)
    writer = ArtifactWriter(config.output_dir, config)

    # every column once as (sorted observed labels, integer code per row);
    # continuous columns are tabulated by their equal-width bin, whose single
    # digit makes numeric and label order agree
    columns = dict(zip((c.name for c in dataset.schema), zip(*dataset.rows)))
    coded = {}
    for col in dataset.schema:
        if col.kind == "continuous":
            bins, codes = np.unique(_equal_width_bins(np.array(columns[col.name], dtype=float)),
                                    return_inverse=True)
            labels = [f"bin_{b}" for b in bins.tolist()]
        else:
            labels, codes = np.unique(np.asarray(columns[col.name]), return_inverse=True)
            labels = labels.tolist()
        coded[col.name] = (labels, codes)
    target_labels, target_codes = coded[config.target]

    feature_cols = [c for c in dataset.schema if c.name != config.target]
    for col in feature_cols:
        labels, codes = coded[col.name]
        table = contingency_table(codes, target_codes)
        writer.write_csv(f"frequencies/{col.name}.csv",
                         ["feature", "value", "target", "count"],
                         [[col.name, v, t, int(n)]
                          for v, counts in zip(labels, table.counts)
                          for t, n in zip(target_labels, counts)])

    # associations against the target at the EDA significance level
    assoc_rows = []
    for col in feature_cols:
        res = chi_square_association(coded[col.name][1], target_codes, alpha=0.10)
        assoc_rows.append([col.name, f"{res.chi2:.6f}", f"{res.p_value:.6g}",
                           "significant" if res.significant else "not-significant"])
    writer.write_csv("associations.csv", ["feature", "chi2", "p_value", "decision"],
                     assoc_rows)

    cat_cols = [c for c in feature_cols if c.kind != "continuous"]
    k = len(cat_cols)
    V = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            v = cramers_v(coded[cat_cols[i].name][1], coded[cat_cols[j].name][1])
            V[i, j] = V[j, i] = v
    labels = [c.name for c in cat_cols]
    writer.write_csv("cramers_v.csv", ["feature"] + labels,
                     [[labels[i]] + [f"{V[i, j]:.6f}" for j in range(k)] for i in range(k)])
    writer.write_text("heatmap.svg", heatmap_svg(V, labels, "Cramer's V association"))

    balance = class_distribution(matrix)
    writer.write_json("class_balance.json",
                      {"class0": balance.count_class0, "class1": balance.count_class1})
    writer.finalize()
    sys.exit(EXIT_OK)


def _equal_width_bins(x: np.ndarray, bins: int = 5):
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        return np.zeros(x.size, dtype=int)
    edges = np.linspace(lo, hi, bins + 1)
    return np.clip(np.digitize(x, edges[1:-1]), 0, bins - 1)


def _tuned_spec(config: RunConfig, name: str, raw_train, writer: ArtifactWriter):
    """Random search from the configured entry over its tuning space; its CV
    resamples inside each fold, so it scores candidates on the raw split."""
    spec = config.models[name]
    best, scores = tune_random_search(
        spec, config.tuning_spaces[name], raw_train, n_iter=config.tuning_n_iter,
        folds=config.tuning_folds, seed=spec.seed, resampler=config.resampler)
    writer.write_csv(
        f"tuning/{name}.csv", ["candidate", "mean_accuracy", "hyperparameters"],
        [[i, f"{c.mean_accuracy:.6f}", repr(sorted(c.spec.hyperparameters.items()))]
         for i, c in enumerate(scores)])
    return best


@main.command()
@_config_options
def benchmark(config_path, seed, resample_test, out_dir):
    """Train and evaluate every roster model on the held-out test set."""
    config = _load(config_path, seed, resample_test, out_dir)
    _, matrix, _ = _materialize(config)
    writer = ArtifactWriter(config.output_dir, config)
    try:
        raw_train, train, test = _split_and_resample(config, matrix)
        if config.tuning_spaces:
            check_fold_count(raw_train.target, config.tuning_folds)
        for spec in config.models.values():  # a stack's out-of-fold folds split raw_train
            if isinstance(spec, StackingSpec):
                check_fold_count(raw_train.target, spec.oof_folds)
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(EXIT_DATA)

    metrics = {}
    curves = {}
    failures = 0
    for name in config.model_order:
        try:
            spec = (_tuned_spec(config, name, raw_train, writer)
                    if name in config.tuning_spaces else config.models[name])
            model = fit_model(spec, _training_split(spec, raw_train, train))
            probs = predict_proba(model, test)
            report = evaluate(probs, test.target)
            metrics[name] = report.to_dict()
            rc = roc_curve(probs, test.target)
            curves[name] = (rc.fpr, rc.tpr, report.auc)
            writer.model_status[name] = "ok"
        except Exception as exc:  # per-model failure must not abort the run
            writer.model_status[name] = f"failed: {exc}"
            failures += 1
            click.echo(f"model {name} failed: {exc}", err=True)

    writer.write_json("metrics.json", metrics)
    header = ["model", "accuracy", "macro_precision", "macro_recall", "macro_f1",
              "auc", "specificity", "g_mean", "iba"]
    rows = [[name] + [f"{metrics[name][k]:.6f}" for k in header[1:]]
            for name in config.model_order if name in metrics]
    writer.write_csv("metrics.csv", header, rows)
    if curves:
        writer.write_text("roc.svg", roc_svg(curves))
    writer.finalize()
    sys.exit(EXIT_PARTIAL if failures else EXIT_OK)


@main.command()
@_config_options
def compare(config_path, seed, resample_test, out_dir):
    """10-fold CV accuracies and Bonferroni-corrected paired t-tests vs a reference."""
    config = _load(config_path, seed, resample_test, out_dir)
    if not config.reference_model:
        click.echo("config error: compare requires 'reference_model'", err=True)
        sys.exit(EXIT_CONFIG)
    _, matrix, _ = _materialize(config, folds=config.cv_folds)
    writer = ArtifactWriter(config.output_dir, config)

    results = cross_validate_many([config.models[name] for name in config.model_order],
                                  matrix, folds=config.cv_folds,
                                  resampler=config.resampler, seed=config.seed)
    runs = {}
    failures = 0
    for name, run in zip(config.model_order, results):
        if isinstance(run, Exception):  # per-model failure must not abort the run
            writer.model_status[name] = f"failed: {run}"
            failures += 1
            click.echo(f"model {name} failed: {run}", err=True)
        else:
            runs[name] = run
            writer.model_status[name] = "ok"

    ref = config.reference_model
    if ref not in runs:
        click.echo(f"reference model {ref!r} failed; cannot compare", err=True)
        writer.finalize()
        sys.exit(EXIT_PARTIAL)
    others = [n for n in config.model_order if n != ref and n in runs]
    adjusted = bonferroni_adjust(0.05, max(len(others), 1))
    rows = []
    for name in others:
        try:
            res = paired_t_test(runs[ref].accuracies, runs[name].accuracies)
            rows.append([name, f"{res.t:.6f}", f"{res.p_value:.6g}",
                         f"{res.cohens_d:.6f}",
                         "significant" if res.p_value < adjusted else "not-significant"])
        except StatsError:
            rows.append([name, "", "", "", "degenerate"])
    writer.write_csv("comparison.csv", ["model", "t", "p", "cohens_d", "decision"], rows)
    writer.write_json("comparison_meta.json",
                      {"reference": ref, "alpha": 0.05,
                       "comparisons": len(others), "adjusted_alpha": adjusted})
    writer.write_csv(
        "cv_accuracies.csv", ["model"] + [f"fold_{i}" for i in range(config.cv_folds)],
        [[name] + [f"{a:.6f}" for a in runs[name].accuracies]
         for name in config.model_order if name in runs])
    writer.finalize()
    sys.exit(EXIT_PARTIAL if failures else EXIT_OK)


def _parse_instances(ctx, param, selector: str) -> list[int]:
    """The --instances selector as test-row indices; a malformed one is a usage
    error (exit 2)."""
    try:
        selector = selector.strip()
        if ".." in selector:
            lo, hi = selector.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in selector.split(",") if tok != ""]
    except ValueError:
        raise click.BadParameter(f"{selector!r} is not '3', '0,4' or '0..2'") from None


@main.command("explain")
@_config_options
@click.option("--model", "model_name", required=True, help="roster model to explain")
@click.option("--instances", "instance_ids", default="0", callback=_parse_instances,
              help="test instances: '3', '0,4', or '0..2'")
def explain_cmd(config_path, seed, resample_test, out_dir, model_name, instance_ids):
    """Global and local attributions for one roster model."""
    config = _load(config_path, seed, resample_test, out_dir)
    if model_name not in config.models:
        click.echo(f"config error: unknown model {model_name!r}", err=True)
        sys.exit(EXIT_CONFIG)
    _, matrix, _ = _materialize(config)
    writer = ArtifactWriter(config.output_dir, config)
    spec = config.models[model_name]
    try:
        raw_train, train, test = _split_and_resample(config, matrix)
        if any(i < 0 or i >= test.n_rows for i in instance_ids):
            raise DataError(f"instance index out of range (test has {test.n_rows} rows)")
        if isinstance(spec, StackingSpec):
            check_fold_count(raw_train.target, spec.oof_folds)
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(EXIT_DATA)

    try:
        model = fit_model(spec, _training_split(spec, raw_train, train))
    except Exception as exc:  # reported as in benchmark: a model failure, exit 4
        writer.model_status[model_name] = f"failed: {exc}"
        click.echo(f"model {model_name} failed: {exc}", err=True)
        writer.finalize()
        sys.exit(EXIT_PARTIAL)
    predict = lambda X: predict_proba(model, X)

    opts = config.explain_options
    n_perm = opts["n_permutations"]
    bg_rows = opts["background_rows"]
    global_rows = min(opts["global_rows"], 200, test.n_rows)
    lime_samples = opts["lime_samples"]

    # background rows and the LIME sampler come from the SMOTEd split
    rng = np.random.default_rng(config.seed)
    bg_idx = rng.choice(train.n_rows, size=min(bg_rows, train.n_rows), replace=False)
    background = train.values[bg_idx]
    names = list(train.column_names)
    d = len(names)

    # global: mean |phi| via sampled Shapley over test rows
    phis = np.zeros((global_rows, d))
    for i in range(global_rows):
        att = xai.shapley_sampled(predict, test.values[i], background,
                                  n_permutations=n_perm, seed=config.seed + i)
        phis[i] = att.values
    mean_abs = np.abs(phis).mean(axis=0)
    writer.write_csv(f"importances/{model_name}_shapley.csv",
                     ["feature", "mean_abs_shapley"],
                     [[n, f"{v:.6f}"] for n, v in zip(names, mean_abs)])
    writer.write_text(f"importances/{model_name}_shapley.svg",
                      bar_chart_svg(names, mean_abs, f"{model_name}: mean |Shapley|"))

    _native_importances(model, model_name, names, writer)

    lime_cfg = xai.LimeConfig.from_training(train.values, n_samples=max(lime_samples, d + 1))
    for i in instance_ids:
        x = test.values[i]
        if d <= xai.MAX_EXACT_FEATURES:
            att = xai.shapley_exact(predict, x, background)
        else:
            att = xai.shapley_sampled(predict, x, background,
                                      n_permutations=n_perm, seed=config.seed + 1000 + i)
        writer.write_csv(
            f"attributions/instance_{i}_shapley.csv",
            ["feature", "value", "method"],
            [[n, f"{v:.6f}", att.method] for n, v in zip(names, att.values)]
            + [["__base_value__", f"{att.base_value:.6f}", att.method],
               ["__prediction__", f"{att.prediction:.6f}", att.method]])
        fit = xai.lime_explain(predict, x, lime_cfg, seed=config.seed + i)
        writer.write_csv(
            f"attributions/instance_{i}_lime.csv",
            ["feature", "coefficient", "method"],
            [[n, f"{c:.6f}", "lime"] for n, c in zip(names, fit.coefficients)]
            + [["__intercept__", f"{fit.intercept:.6f}", "lime"],
               ["__weighted_r2__", f"{fit.weighted_r2:.6f}", "lime"]])
        writer.write_text(f"attributions/instance_{i}_shapley.svg",
                          bar_chart_svg(names, att.values, f"instance {i}: Shapley"))
    writer.model_status[model_name] = "ok"
    writer.finalize()
    sys.exit(EXIT_OK)


def _native_importances(model, model_name, names, writer):
    if isinstance(model, RandomForestModel):
        rep = xai.impurity_importance(model)
        writer.write_csv(f"importances/{model_name}_impurity.csv",
                         ["feature", "impurity_decrease"],
                         [[n, f"{v:.6f}"] for n, v in zip(names, rep.scores)])
        writer.write_text(f"importances/{model_name}_impurity.svg",
                          bar_chart_svg(names, rep.scores, f"{model_name}: impurity"))
    elif isinstance(model, GbtModel):
        split_rep, gain_rep, loss_rep = xai.gbt_importances(model)
        for rep, tag in ((split_rep, "split_count"), (gain_rep, "gain"),
                         (loss_rep, "loss_reduction")):
            writer.write_csv(f"importances/{model_name}_{tag}.csv",
                             ["feature", tag],
                             [[n, f"{v:.6f}"] for n, v in zip(names, rep.scores)])


if __name__ == "__main__":
    main()
