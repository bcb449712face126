"""Smoke test of the benchmark itself, on tiny inputs (about 300 rows, 2 folds).

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit on
every workload, traced and untraced, with nothing failing; that a tampered
artifact, a forced non-zero exit and a traced run whose artifacts differ from
the untraced run's each raise fail_rate; and that each output check in
checks.py trips on an output broken the way it guards against. Exits 0 when
all hold.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expect(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"smoke FAILED: {message}")


def tiny(name: str, trace: bool, work: Path) -> dict:
    result = run.measure(name, seed=3, seconds=0, trace=trace, work=work, size="tiny",
                         min_reps=1)
    result["metrics"] = run.with_units(result["metrics"],
                                       SPEC["per_layer" if trace else "end_to_end"])
    return result


def faulty_spawn(fault: str):
    """run.spawn, but imbalkit invocations are broken by `fault`: "exit" and
    "tamper" break every one; "drift" changes an artifact of each traced
    invocation and records its new hash, so only the comparison of hashes
    between runs can catch it."""
    spawn = run.spawn

    def broken(argv, log, deadline):
        is_cli = "--out" in argv
        if is_cli and fault == "exit":
            argv = [a if not a.endswith("config.json") else a + ".missing" for a in argv]
        child = spawn(argv, log, deadline)
        if is_cli and (fault == "tamper" or fault == "drift" and run.tracer.__file__ in argv):
            out = Path(argv[argv.index("--out") + 1])
            manifest = json.loads((out / "run-manifest.json").read_text())
            rel = sorted(manifest["artifacts"])[0]
            with open(out / rel, "ab") as fh:
                fh.write(b" ")
            if fault == "drift":
                manifest["artifacts"][rel] = hashlib.sha256((out / rel).read_bytes()).hexdigest()
                (out / "run-manifest.json").write_text(json.dumps(manifest))
        return child
    return broken


def _rewrite_csv(path: Path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(edit(rows))


def check_trips(work: Path):
    """Break one output per check and see the check report it."""
    out = work / "explain-gbt-0" / "rep0" / "out0"
    failures = checks.manifest_hashes(out)[1]
    expect(not failures + checks.shapley_efficiency(out),
           f"clean explain output fails a check: {failures}")
    shap = sorted((out / "attributions").glob("instance_*_shapley.csv"))[0]
    _rewrite_csv(shap, lambda rows: [rows[0], [rows[1][0], "9.0", rows[1][2]], *rows[2:]])
    expect(checks.shapley_efficiency(out) != [], "broken Shapley efficiency passes")
    expect(checks.manifest_hashes(out)[1] != [], "edited artifact passes the hash check")

    out = work / "fit-roster-0" / "rep0" / "out0"
    roster = workloads.ROSTER8
    expect(checks.roster_aucs(out, roster)[1] == [], "clean metrics.json fails")
    metrics = json.loads((out / "metrics.json").read_text())
    metrics["gbt"]["auc"] = 0.4
    del metrics["knn"]
    (out / "metrics.json").write_text(json.dumps(metrics))
    expect(len(checks.roster_aucs(out, roster)[1]) == 2, "low AUC or missing model passes")

    out = work / "compare-cv-0" / "rep0" / "out0"
    expect(checks.comparison(out, ("nb", "gbt", "stack"), "stack")[1] == [],
           "clean comparison fails")
    _rewrite_csv(out / "comparison.csv",
                 lambda rows: [rows[0]] + [[r[0], "", "", "", "degenerate"] for r in rows[1:]])
    expect(checks.comparison(out, ("nb", "gbt", "stack"), "stack")[1] != [],
           "degenerate comparison passes")


def main() -> int:
    scratch = run.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=scratch))
    try:
        for name in workloads.NAMES:
            for trace in (0, 1):
                result = tiny(name, bool(trace), work / f"{name}-{trace}")
                expect(result["correct"] and result["failed"] == 0,
                       f"{name} trace={trace} failed on clean inputs")
                if trace:
                    expect(result["metrics"]["fail_rate"]["value"] == 0,
                           f"{name}: fail_rate is not 0 on clean inputs")
            print(f"smoke: {name} emits every metric, no failures", flush=True)
        check_trips(work)
        print("smoke: each output check trips", flush=True)
        clean_spawn = run.spawn
        # the untraced repetition is the reference for the traced one, so
        # "drift" fails only the traced half
        for fault, rate in (("tamper", 1.0), ("exit", 1.0), ("drift", 0.5)):
            run.spawn = faulty_spawn(fault)
            try:
                result = tiny("survey-scale", True, work / f"fault-{fault}")
            finally:
                run.spawn = clean_spawn
            expect(result["metrics"]["fail_rate"]["value"] == rate,
                   f"fault {fault!r} did not raise fail_rate to {rate}: {result}")
            print(f"smoke: fault {fault!r} raises fail_rate to {rate}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
