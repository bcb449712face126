"""Traced in-process run of one imbalkit CLI invocation, and the per-layer
metrics computed from its spans.

    python3 perfbench/tracer.py SPANS.json eda --config run.json --out out

runs `imbalkit.cli.main` in this process after wrapping the public functions
of each module, in every imbalkit namespace that imported them, so each call
records a span. Spans stay in memory and are written to SPANS.json when the
invocation ends; the process exits with the CLI's exit code. No code under
src/ is changed. `layer_metrics` turns the span files of one repetition into
the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import tracemalloc
from collections import defaultdict

from workloads import ROSTER8

# "module.function" under imbalkit -> the span name its calls record
TRACED = {
    "synth.synthetic_dataset": "synth.generate",
    "data.load_schema": "data.load",
    "data.load_dataset": "data.load",
    "data.label_encode": "data.encode",
    "data.stratified_split": "data.split",
    "data.smote": "data.smote",
    "learners.base.fit_model": "learners.fit",
    "learners.base.predict_proba": "learners.predict",
    "stacking.stack_fit": "stacking.fit",
    "stacking.stack_predict_proba": "stacking.predict",
    "validation.cross_validate": "validation.cv",
    "metrics.evaluate": "metrics.evaluate",
    "metrics.roc_curve": "metrics.roc",
    "stats.chi_square_association": "stats.test",
    "stats.cramers_v": "stats.test",
    "stats.paired_t_test": "stats.test",
    "stats.bonferroni_adjust": "stats.test",
    "explain.shapley_exact": "explain.shapley",
    "explain.shapley_sampled": "explain.shapley",
    "explain.lime_explain": "explain.lime",
    "svg.bar_chart_svg": "svg.render",
    "svg.heatmap_svg": "svg.render",
    "svg.roc_svg": "svg.render",
}
REPORT_METHODS = ("write_text", "write_json", "write_csv", "finalize")



class Tracer:
    """Collects spans (name, start, end, parent, run) of wrapped calls."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, fn, probe=None, memory=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None,
                    "run": self.run}
            self._open.append(len(self.spans))
            self.spans.append(span)
            if memory:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if memory:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._open.pop()
            if probe is not None:
                span.update(probe(args, kwargs, result))
            return result
        return traced


def _tree_nodes(node) -> int:
    if node is None:
        return 0
    return 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def _fit_probe(args, kwargs, model):
    """Work counts read from the fitted model's public attributes."""
    attrs = {"algo": model.algorithm}
    if model.algorithm == "svm":
        attrs["epochs"] = len(model.objective_history)
        attrs["support_vectors"] = len(model.support_vectors)
    elif model.algorithm == "gbt":
        attrs["splits"] = len(model.split_records)
    elif model.algorithm == "random-forest":
        attrs["nodes"] = sum(_tree_nodes(t) for t in model.trees)
    elif model.algorithm == "decision-tree":
        attrs["nodes"] = _tree_nodes(model.root)
    return attrs


def _predict_probe(args, kwargs, result):
    return {"algo": args[0].algorithm, "rows": len(result)}


def _smote_probe(args, kwargs, result):
    train = args[0] if args else kwargs["train"]
    return {"minority_rows": int(min(train.target.sum(), train.n_rows - train.target.sum()))}


def _write_probe(args, kwargs, result):
    return {"bytes": len(args[2].encode("utf-8"))}


PROBES = {"learners.fit": _fit_probe, "learners.predict": _predict_probe,
          "data.smote": _smote_probe}


def instrument(tracer: Tracer):
    """Replace each traced function in every loaded imbalkit namespace."""
    import importlib

    from imbalkit.report import ArtifactWriter

    for path, name in TRACED.items():
        module, attr = path.rsplit(".", 1)
        original = getattr(importlib.import_module(f"imbalkit.{module}"), attr)
        wrapper = tracer.wrap(name, original, PROBES.get(name), memory=name == "data.smote")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "imbalkit" or mod_name.startswith("imbalkit."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    for method in REPORT_METHODS:
        probe = _write_probe if method == "write_text" else None
        setattr(ArtifactWriter, method,
                tracer.wrap("report.write", getattr(ArtifactWriter, method), probe))


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def traced_main(spans_path: str, cli_args: list[str]) -> int:
    t0 = time.perf_counter()
    import imbalkit.cli
    import_s = time.perf_counter() - t0
    import click

    tracer = Tracer(run=spans_path)
    instrument(tracer)
    cpu0 = _cpu_s()
    try:
        tracer.wrap("cli.main", imbalkit.cli.main)(cli_args, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    cpu_s = _cpu_s() - cpu0
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "import_s": import_s, "cpu_s": cpu_s,
                   "spans": tracer.spans}, fh)
    return code


# --- per-layer metrics from the spans of one repetition ----------------------

def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


class _Spans:
    def __init__(self, dumps):
        self.spans = []
        for dump in dumps:
            offset = len(self.spans)
            for s in dump["spans"]:
                s = dict(s, dur=s["end"] - s["start"])
                if s["parent"] is not None:
                    s["parent"] += offset
                self.spans.append(s)
        self.children = defaultdict(list)
        for i, s in enumerate(self.spans):
            self.children[s["parent"]].append(i)

    def ancestors(self, i):
        p = self.spans[i]["parent"]
        while p is not None:
            yield self.spans[p]["name"]
            p = self.spans[p]["parent"]

    def count(self, name) -> int:
        return len(self.outer(name))

    def outer(self, *names, where=None):
        """Spans named in `names` that have no ancestor named in `names`."""
        return [s for i, s in enumerate(self.spans)
                if s["name"] in names and not set(self.ancestors(i)) & set(names)
                and (where is None or where(s))]

    def total(self, *names, where=None) -> float:
        return sum(s["dur"] for s in self.outer(*names, where=where))

    def self_time(self, *names) -> float:
        """Span durations minus the time their child spans cover."""
        return sum(s["dur"] - _union((self.spans[c]["start"], self.spans[c]["end"])
                                     for c in self.children[i])
                   for i, s in enumerate(self.spans) if s["name"] in names)

    def count_under(self, name, ancestor) -> int:
        return sum(1 for i, s in enumerate(self.spans)
                   if s["name"] == name and ancestor in self.ancestors(i))

    def attr_sum(self, name, key, where=None) -> float:
        return sum(s.get(key, 0) for s in self.spans
                   if s["name"] == name and (where is None or where(s)))


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (one dump per invocation)."""
    t = _Spans(dumps)
    fits, predicts = t.count("learners.fit"), t.count("learners.predict")
    attributions = t.count("explain.shapley") + t.count("explain.lime")
    smotes = t.outer("data.smote")
    m = {
        "cli.import_s": sum(d["import_s"] for d in dumps),
        "cli.self_s": t.self_time("cli.main"),
        "cli.cpu_s": sum(d["cpu_s"] for d in dumps),
        "synth.generate_s": t.total("synth.generate"),
        "data.load_s": t.total("data.load"),
        "data.encode_s": t.total("data.encode"),
        "data.split_s": t.total("data.split"),
        "data.smote_s": t.total("data.smote"),
        "data.smote_calls": len(smotes),
        "data.smote_minority_rows": sum(s["minority_rows"] for s in smotes),
        "data.smote_peak_mb": max((s["peak_mb"] for s in smotes), default=0.0),
        "learners.fit_s": t.total("learners.fit"),
        "learners.fit_calls": fits,
        "learners.predict_s": t.total("learners.predict"),
        "learners.predict_calls": predicts,
        "learners.predict_rows_per_call":
            t.attr_sum("learners.predict", "rows") / predicts if predicts else 0.0,
    }
    for algo in ROSTER8:
        for stage in ("fit", "predict"):
            m[f"learners.{algo}.{stage}_s"] = t.total(f"learners.{stage}",
                                                      where=lambda s, a=algo: s["algo"] == a)
    m.update({
        "learners.svm.epochs": t.attr_sum("learners.fit", "epochs"),
        "learners.svm.support_vectors": t.attr_sum("learners.fit", "support_vectors"),
        "learners.gbt.splits": t.attr_sum("learners.fit", "splits"),
        "learners.random-forest.nodes":
            t.attr_sum("learners.fit", "nodes", lambda s: s["algo"] == "random-forest"),
        "learners.decision-tree.nodes":
            t.attr_sum("learners.fit", "nodes", lambda s: s["algo"] == "decision-tree"),
        "stacking.fit_s": t.total("stacking.fit"),
        "stacking.predict_s": t.total("stacking.predict"),
        # every stack_fit also fits its one logistic meta-learner
        "stacking.base_fits":
            t.count_under("learners.fit", "stacking.fit") - t.count("stacking.fit"),
        "stacking.self_s": t.self_time("stacking.fit", "stacking.predict"),
        "validation.cv_s": t.total("validation.cv"),
        "validation.self_s": t.self_time("validation.cv"),
        "validation.folds": sum(1 for s in t.spans if s["name"] == "metrics.evaluate"
                                and s["parent"] is not None
                                and t.spans[s["parent"]]["name"] == "validation.cv"),
        "metrics.evaluate_s": t.total("metrics.evaluate"),
        "metrics.evaluate_calls": t.count("metrics.evaluate"),
        "metrics.roc_s": t.total("metrics.roc"),
        "stats.test_s": t.total("stats.test"),
        "stats.test_calls": t.count("stats.test"),
        "explain.shapley_s": t.total("explain.shapley"),
        "explain.lime_s": t.total("explain.lime"),
        "explain.attributions": attributions,
        "explain.self_s": t.self_time("explain.shapley", "explain.lime"),
        "explain.predict_calls_per_attribution":
            (t.count_under("learners.predict", "explain.shapley")
             + t.count_under("learners.predict", "explain.lime")) / attributions
            if attributions else 0.0,
        "report.write_s": t.total("report.write"),
        "report.artifacts": sum(1 for s in t.spans if "bytes" in s),
        "report.bytes": t.attr_sum("report.write", "bytes"),
        "svg.render_s": t.total("svg.render"),
    })
    return m


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1], sys.argv[2:]))
