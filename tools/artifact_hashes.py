"""Exit codes and artifact hashes of every benchmark workload's CLI invocations.

    python3 tools/artifact_hashes.py [--seeds 1,2]

Run from the root of a checkout. For each of the four workloads and each
seed, it writes the workload's full-size inputs with perfbench's
`workloads.prepare` into a temporary directory, runs its invocations with
perfbench's `run_rep` on this checkout's src/ (BLAS pinned to one thread, as
in the benchmark), and prints one JSON document: per workload and seed, the
artifact hashes of each run-manifest.json, and a failure line (with its exit
code) for each invocation that exits non-zero or writes an artifact that does
not match its hash; it exits 1 if there is any such line. Two checkouts write
the same artifacts exactly when their documents are equal:

    python3 tools/artifact_hashes.py > new.json
    (cd ../parent && python3 tools/artifact_hashes.py) > old.json
    diff old.json new.json

`--against REV` does this in one step: it also runs REV's own copy of this
tool, with the same seeds, in a temporary `git worktree` of REV (local git
only; the worktree is removed afterwards), and prints instead a unified diff
from REV's document to this checkout's. It exits 1 when the two differ.
"""

import argparse
import difflib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench  # noqa: E402  pins BLAS to 1 thread; children run on src/
import workloads  # noqa: E402


def document(seeds: list[int]) -> dict:
    report = {}
    with tempfile.TemporaryDirectory(prefix="artifact-hashes-") as tmp:
        for name in workloads.NAMES:
            report[name] = {}
            for seed in seeds:
                work = Path(tmp) / name / str(seed)
                wl = workloads.prepare(name, seed, work / "inputs")
                rep = perfbench.run_rep(wl, work / "rep", time.monotonic() + perfbench.RUN_LIMIT_S,
                                        traced=False)
                report[name][str(seed)] = {"hashes": rep["hashes"], "failures": rep["failures"]}
    return report


def document_at(rev: str, seeds: str) -> str:
    """The document printed by rev's own copy of this tool, run in a temporary
    git worktree of rev that is removed afterwards."""
    with tempfile.TemporaryDirectory(prefix="artifact-hashes-rev-") as tmp:
        tree = str(Path(tmp) / "tree")
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run([*git, "add", "--detach", "--quiet", tree, rev], check=True)
        try:
            run = subprocess.run([sys.executable, "tools/artifact_hashes.py", "--seeds", seeds],
                                 cwd=tree, capture_output=True, text=True)
        finally:
            subprocess.run([*git, "remove", "--force", tree], check=True)
    if not run.stdout.strip():
        sys.exit(f"{rev}: tools/artifact_hashes.py printed no document\n{run.stderr}")
    return run.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2", help="comma-separated seeds (default 1,2)")
    parser.add_argument("--against", metavar="REV",
                        help="print a unified diff from REV's document to this checkout's")
    args = parser.parse_args(argv)
    report = document([int(s) for s in args.seeds.split(",")])
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    failed = any(run["failures"] for runs in report.values() for run in runs.values())
    if args.against is None:
        print(text, end="")
        return int(failed)
    diff = list(difflib.unified_diff(document_at(args.against, args.seeds).splitlines(True),
                                     text.splitlines(True), args.against, "this checkout"))
    sys.stdout.writelines(diff)
    return int(failed or bool(diff))


if __name__ == "__main__":
    sys.exit(main())
