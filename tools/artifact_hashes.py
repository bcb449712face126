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
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run as perfbench  # noqa: E402  pins BLAS to 1 thread; children run on src/
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2", help="comma-separated seeds (default 1,2)")
    seeds = [int(s) for s in parser.parse_args(argv).seeds.split(",")]
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
    print(json.dumps(report, indent=2, sort_keys=True))
    return int(any(run["failures"] for runs in report.values() for run in runs.values()))


if __name__ == "__main__":
    sys.exit(main())
