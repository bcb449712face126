"""Batch CLI: imbalkit eda|benchmark|compare|explain --config <path>."""

from __future__ import annotations

import atexit
import gc
import sys
from typing import NoReturn

import click
import numpy as np

# every command's config path needs these; each command imports the rest of
# what it runs, so a process loads only its own command's modules
from .data import (
    DataError,
    SchemaError,
    class_distribution,
    label_encode,
    stratified_split,
)
from .learners.base import fit_model, predict_proba
from .report import ArtifactWriter, ConfigError, RunConfig, load_config

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


class _ExitCodes(click.Group):
    """A fault that escapes a command exits with its code: a config fault 2; a
    data fault, or a file that cannot be read or written, 3. A model's own
    failure is recorded by _failed and ends the run through _finish (exit 4)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except (DataError, SchemaError, OSError) as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(EXIT_DATA)


@click.group(cls=_ExitCodes)
def main():
    """Imbalanced tabular classification toolkit."""


def _failed(writer: ArtifactWriter, name: str, exc: Exception | str):
    """Record that model name failed: its manifest status and one line on stderr."""
    writer.model_status[name] = f"failed: {exc}"
    click.echo(f"model {name} failed: {exc}", err=True)


def _finish(writer: ArtifactWriter) -> NoReturn:
    """Write the run manifest and exit: 4 when some model failed, else 0."""
    writer.finalize()
    failed = any(status.startswith("failed") for status in writer.model_status.values())
    sys.exit(EXIT_PARTIAL if failed else EXIT_OK)


@main.command()
@_config_options
def eda(config_path, seed, resample_test, out_dir):
    """Frequency tables, Cramer's V matrix + heatmap, chi-square associations."""
    from .stats import chi_square, cramers_v_matrix, cross_tabulate, factorize
    from .svg import heatmap_svg

    config = load_config(config_path, seed, out_dir, resample_test)
    dataset = config.load()
    matrix, encoder = label_encode(dataset)
    writer = ArtifactWriter(config.output_dir, config)
    tcol = dataset.column(dataset.target)
    target_labels = sorted(tcol.categories)
    # the tables order the target by label, so they take its codes, not matrix.target
    target = factorize(dataset.parsed[:, dataset.schema.index(tcol)].astype(np.int64))

    # a frequency table and a chi-square association per feature over its
    # observed values; a continuous column is tabulated by its equal-width
    # bin, whose single digit makes numeric and label order agree. Each
    # column is factorized once, for its table and its Cramer's V pairs
    assoc_rows, categorical = [], {}
    for name, column in zip(matrix.column_names, matrix.values.T):
        if name not in encoder.mappings:  # a continuous column
            table = cross_tabulate(factorize(_equal_width_bins(column)), target)
            labels = [f"bin_{b}" for b in table.row_labels]
        else:
            categorical[name] = factorize(column)
            table = cross_tabulate(categorical[name], target)
            labels = [encoder.decode(name, int(code)) for code in table.row_labels]
        writer.write_csv(f"frequencies/{name}.csv", ["feature", "value", "target", "count"],
                         [[name, v, target_labels[t], int(n)]
                          for v, counts in zip(labels, table.counts)
                          for t, n in zip(table.col_labels, counts)])
        chi2, _, p_value = chi_square(table)
        assoc_rows.append([name, f"{chi2:.6f}", f"{p_value:.6g}",
                           "significant" if p_value < 0.10 else "not-significant"])
    writer.write_csv("associations.csv", ["feature", "chi2", "p_value", "decision"],
                     assoc_rows)

    labels = list(categorical)
    k = len(labels)
    V = cramers_v_matrix(list(categorical.values()))
    writer.write_csv("cramers_v.csv", ["feature"] + labels,
                     [[labels[i]] + [f"{V[i, j]:.6f}" for j in range(k)] for i in range(k)])
    writer.write_text("heatmap.svg", heatmap_svg(V, labels, "Cramer's V association"))

    balance = class_distribution(matrix)
    writer.write_json("class_balance.json",
                      {"class0": balance.count_class0, "class1": balance.count_class1})
    _finish(writer)


def _equal_width_bins(x: np.ndarray, bins: int = 5):
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        return np.zeros(x.size, dtype=int)
    edges = np.linspace(lo, hi, bins + 1)
    return np.clip(np.digitize(x, edges[1:-1]), 0, bins - 1)


def _splits(config: RunConfig, matrix, names):
    """(raw training split, part), once every fold count that _tune and the fits split
    the raw split into for the named models is checked; part is validation's (test-row
    mask over matrix, training split after SMOTE, test split)."""
    from .validation import check_fold_counts

    raw_train, test = stratified_split(matrix, config.settings["test_fraction"], config.seed)
    train = raw_train
    if config.resampler is not None:
        train = config.resampler.apply(raw_train, config.seed)
        if config.settings["resample_test"]:
            test = config.resampler.apply(test, config.seed + 1)
    check_fold_counts([config.models[name] for name in names], raw_train, None, config.seed)
    check_fold_counts([config.models[name] for name in names if name in config.tuning_spaces],
                      raw_train, config.settings["tuning.folds"], config.seed, config.resampler)
    return raw_train, (~np.isin(matrix.row_ids, raw_train.row_ids), train, test)


def _tune(config: RunConfig, name: str, raw_train, writer: ArtifactWriter):
    """The spec of roster model name that benchmark fits. With a tuning space, the
    best spec of a random search from the configured entry over the raw split
    (its CV resamples inside each fold); each candidate goes to tuning/<name>.csv."""
    spec = config.models[name]
    if name in config.tuning_spaces:
        from .learners.search import tune_random_search

        spec, scores = tune_random_search(
            spec, config.tuning_spaces[name], raw_train, n_iter=config.settings["tuning.n_iter"],
            folds=config.settings["tuning.folds"], seed=spec.seed, resampler=config.resampler)
        writer.write_csv(
            f"tuning/{name}.csv", ["candidate", "mean_accuracy", "hyperparameters"],
            [[i, f"{c.mean_accuracy:.6f}", repr(sorted(c.spec.hyperparameters.items()))]
             for i, c in enumerate(scores)])
    return spec


@main.command()
@_config_options
def benchmark(config_path, seed, resample_test, out_dir):
    """Train and evaluate every roster model on the held-out test set."""
    from .metrics import roc_curve
    from .svg import roc_svg
    from .validation import score_many

    config = load_config(config_path, seed, out_dir, resample_test)
    matrix, _ = label_encode(config.load())
    writer = ArtifactWriter(config.output_dir, config)
    raw_train, part = _splits(config, matrix, config.models)
    test = part[2]

    # each model's spec, tuned here (the search runs its own pool), or the
    # exception that stopped it; then score_many fits, scores and evaluates
    # every spec on the test part, and the results are written in roster order
    outcome = {}
    for name in config.models:
        try:
            outcome[name] = _tune(config, name, raw_train, writer)
        except Exception as exc:  # per-model failure must not abort the run
            outcome[name] = exc
    ready = [name for name, spec in outcome.items() if not isinstance(spec, Exception)]
    outcome.update(zip(ready, score_many([outcome[name] for name in ready], matrix, [part])))

    metrics = {}
    curves = {}
    for name, result in outcome.items():
        if isinstance(result, Exception):
            _failed(writer, name, result)
            continue
        (probs, report), = result
        metrics[name] = report.to_dict()
        rc = roc_curve(probs, test.target)  # evaluate has checked what roc_curve checks
        curves[name] = (rc.fpr, rc.tpr, report.auc)
        writer.model_status[name] = "ok"

    writer.write_json("metrics.json", metrics)
    header = ["model", "accuracy", "macro_precision", "macro_recall", "macro_f1",
              "auc", "specificity", "g_mean", "iba"]
    writer.write_csv("metrics.csv", header,
                     [[name] + [f"{m[k]:.6f}" for k in header[1:]] for name, m in metrics.items()])
    if curves:
        writer.write_text("roc.svg", roc_svg(curves))
    _finish(writer)


@main.command()
@_config_options
def compare(config_path, seed, resample_test, out_dir):
    """10-fold CV accuracies and Bonferroni-corrected paired t-tests vs a reference."""
    from .stats import StatsError, bonferroni_adjust, paired_t_test
    from .validation import check_fold_counts, cross_validate_many

    config = load_config(config_path, seed, out_dir, resample_test)
    if not config.reference_model:
        raise ConfigError("compare requires 'reference_model'")
    matrix, _ = label_encode(config.load())
    folds = config.settings["cv_folds"]
    check_fold_counts(config.models.values(), matrix, folds, config.seed, config.resampler)
    writer = ArtifactWriter(config.output_dir, config)

    results = cross_validate_many(list(config.models.values()), matrix, folds=folds,
                                  resampler=config.resampler, seed=config.seed)
    runs = {}
    for name, run in zip(config.models, results):
        if isinstance(run, Exception):  # per-model failure must not abort the run
            _failed(writer, name, run)
        else:
            runs[name] = run
            writer.model_status[name] = "ok"

    ref = config.reference_model
    if ref not in runs:
        click.echo(f"reference model {ref!r} failed; cannot compare", err=True)
        _finish(writer)
    others = [n for n in runs if n != ref]
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
    writer.write_csv("cv_accuracies.csv", ["model"] + [f"fold_{i}" for i in range(folds)],
                     [[name] + [f"{a:.6f}" for a in run.accuracies] for name, run in runs.items()])
    _finish(writer)


def _parse_instances(ctx, param, selector: str) -> list[int]:
    """The --instances selector as test-row indices; a malformed one, or one
    that selects no row (empty, or a range from high to low), is a usage error
    (exit 2)."""
    try:
        text = selector.strip()
        if ".." in text:
            lo, hi = text.split("..")
            rows = list(range(int(lo), int(hi) + 1))
        else:
            rows = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        rows = []
    if not rows:
        raise click.BadParameter(f"{selector!r} selects no row; give '3', '0,4' or '0..2'")
    return rows


@main.command("explain")
@_config_options
@click.option("--model", "model_name", required=True, help="roster model to explain")
@click.option("--instances", "instance_ids", default="0", callback=_parse_instances,
              help="test instances: '3', '0,4', or '0..2'")
def explain_cmd(config_path, seed, resample_test, out_dir, model_name, instance_ids):
    """Global and local attributions for one roster model."""
    from . import explain as xai
    from .svg import bar_chart_svg
    from .validation import training_rows

    config = load_config(config_path, seed, out_dir, resample_test)
    if model_name not in config.models:
        raise ConfigError(f"unknown model {model_name!r}")
    matrix, _ = label_encode(config.load())
    writer = ArtifactWriter(config.output_dir, config)
    raw_train, part = _splits(config, matrix, [model_name])
    _, train, test = part
    if any(i < 0 or i >= test.n_rows for i in instance_ids):
        raise DataError(f"instance index out of range (test has {test.n_rows} rows)")

    n_perm = config.settings["explain.n_permutations"]
    bg_rows = config.settings["explain.background_rows"]
    global_rows = min(config.settings["explain.global_rows"], test.n_rows)
    lime_samples = config.settings["explain.lime_samples"]

    # background rows and the LIME sampler come from the SMOTEd split
    rng = np.random.default_rng(config.seed)
    bg_idx = rng.choice(train.n_rows, size=min(bg_rows, train.n_rows), replace=False)
    background = train.values[bg_idx]
    names = list(train.column_names)
    d = len(names)
    lime_cfg = xai.LimeConfig.from_training(train.values, n_samples=max(lime_samples, d + 1))

    try:  # a failure of the tuning, the fit or its scores is reported as in benchmark: exit 4
        spec = _tune(config, model_name, raw_train, writer)
        model = fit_model(spec, training_rows(spec, matrix, part))
        predict = lambda X: predict_proba(model, X)
        # global: mean |phi| via sampled Shapley over test rows
        phis = np.zeros((global_rows, d))
        for i in range(global_rows):
            phis[i] = xai.shapley_sampled(predict, test.values[i], background,
                                          n_permutations=n_perm, seed=config.seed + i).values
        local = []
        for i in instance_ids:
            x = test.values[i]
            if d <= xai.MAX_EXACT_FEATURES:
                att = xai.shapley_exact(predict, x, background)
            else:
                att = xai.shapley_sampled(predict, x, background,
                                          n_permutations=n_perm, seed=config.seed + 1000 + i)
            local.append((i, att, xai.lime_explain(predict, x, lime_cfg, seed=config.seed + i)))
    except Exception as exc:
        _failed(writer, model_name, exc)
        _finish(writer)

    mean_abs = np.abs(phis).mean(axis=0)
    _write_scores(writer, f"{model_name}_shapley", "mean_abs_shapley", names, mean_abs)
    writer.write_text(f"importances/{model_name}_shapley.svg",
                      bar_chart_svg(names, mean_abs, f"{model_name}: mean |Shapley|"))

    _native_importances(model, model_name, names, writer)

    for i, att, fit in local:
        writer.write_csv(
            f"attributions/instance_{i}_shapley.csv",
            ["feature", "value", "method"],
            [[n, f"{v:.6f}", att.method] for n, v in zip(names, att.values)]
            + [["__base_value__", f"{att.base_value:.6f}", att.method],
               ["__prediction__", f"{att.prediction:.6f}", att.method]])
        writer.write_csv(
            f"attributions/instance_{i}_lime.csv",
            ["feature", "coefficient", "method"],
            [[n, f"{c:.6f}", "lime"] for n, c in zip(names, fit.coefficients)]
            + [["__intercept__", f"{fit.intercept:.6f}", "lime"],
               ["__weighted_r2__", f"{fit.weighted_r2:.6f}", "lime"]])
        writer.write_text(f"attributions/instance_{i}_shapley.svg",
                          bar_chart_svg(names, att.values, f"instance {i}: Shapley"))
    writer.model_status[model_name] = "ok"
    _finish(writer)


def _write_scores(writer, stem, column, names, scores):
    """importances/<stem>.csv: one (feature, score) row per feature."""
    writer.write_csv(f"importances/{stem}.csv", ["feature", column],
                     [[n, f"{v:.6f}"] for n, v in zip(names, scores)])


def _native_importances(model, model_name, names, writer):
    from . import explain as xai
    from .svg import bar_chart_svg

    if model.algorithm == "random-forest":
        scores = xai.impurity_importance(model).scores
        _write_scores(writer, f"{model_name}_impurity", "impurity_decrease", names, scores)
        writer.write_text(f"importances/{model_name}_impurity.svg",
                          bar_chart_svg(names, scores, f"{model_name}: impurity"))
    elif model.algorithm == "gbt":
        tags = ("split_count", "gain", "loss_reduction")
        for tag, rep in zip(tags, xai.gbt_importances(model)):
            _write_scores(writer, f"{model_name}_{tag}", tag, names, rep.scores)


def run():
    """The console entry point: main, in a process that exits without the
    interpreter's shutdown collections. gc.freeze, registered before main and
    so run after every atexit handler main registers, moves every object to
    the permanent generation, which those collections skip: they would only
    free reference cycles that the OS reclaims anyway. In-process callers of
    main never freeze."""
    atexit.register(gc.freeze)
    main()


if __name__ == "__main__":
    run()
