"""Output checks. Each returns a list of failure messages; empty means pass.

A repetition of a workload fails when any invocation exits non-zero or any
of these checks fails, and failed repetitions count toward `fail_rate`.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

SHAPLEY_TOLERANCE = 1e-4


def manifest_hashes(out_dir: Path) -> tuple[dict, list[str]]:
    """The manifest's artifact hashes, and a failure for each that does not
    match its file's bytes."""
    try:
        manifest = json.loads((out_dir / "run-manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return {}, [f"{out_dir.name}: unreadable run-manifest.json ({exc})"]
    failures = []
    for rel, digest in manifest["artifacts"].items():
        path = out_dir / rel
        if not path.is_file():
            failures.append(f"{out_dir.name}: artifact {rel} is missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            failures.append(f"{out_dir.name}: artifact {rel} does not match its hash")
    return manifest["artifacts"], failures


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def shapley_efficiency(out_dir: Path) -> list[str]:
    """Feature attributions sum to prediction minus base value."""
    files = sorted((out_dir / "attributions").glob("instance_*_shapley.csv"))
    if not files:
        return [f"{out_dir.name}: no instance Shapley files"]
    failures = []
    for path in files:
        rows = {r[0]: float(r[1]) for r in _read_csv(path)}
        gap = (rows.pop("__prediction__") - rows.pop("__base_value__")) - sum(rows.values())
        if abs(gap) > SHAPLEY_TOLERANCE:
            failures.append(f"{path.name}: attributions miss the efficiency sum by {gap:.3g}")
    return failures


def roster_aucs(out_dir: Path, roster) -> tuple[list[float], list[str]]:
    """Held-out AUC of every roster model; each must lie in (0.5, 1]."""
    try:
        metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [], [f"{out_dir.name}: unreadable metrics.json ({exc})"]
    aucs, failures = [], []
    for name in roster:
        if name not in metrics:
            failures.append(f"metrics.json lacks model {name}")
            continue
        auc = metrics[name]["auc"]
        aucs.append(auc)
        if not 0.5 < auc <= 1.0:
            failures.append(f"model {name} has AUC {auc} outside (0.5, 1]")
    return aucs, failures


def comparison(out_dir: Path, roster, reference: str) -> tuple[float | None, list[str]]:
    """One non-degenerate comparison row per non-reference model, and the
    reference model's mean fold accuracy."""
    try:
        rows = _read_csv(out_dir / "comparison.csv")
        folds = {r[0]: [float(a) for a in r[1:]] for r in _read_csv(out_dir / "cv_accuracies.csv")}
    except (OSError, ValueError) as exc:
        return None, [f"{out_dir.name}: unreadable comparison output ({exc})"]
    failures = []
    expected = sorted(m for m in roster if m != reference)
    if sorted(r[0] for r in rows) != expected:
        failures.append(f"comparison.csv rows {[r[0] for r in rows]} != {expected}")
    failures += [f"comparison of {r[0]} is degenerate" for r in rows if r[-1] == "degenerate"]
    if reference not in folds:
        return None, failures + [f"cv_accuracies.csv lacks the reference {reference}"]
    accuracy = sum(folds[reference]) / len(folds[reference])
    return accuracy, failures
