"""imbalkit benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload fit-roster --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the program under test is `src/`.
Each repetition runs the workload's real `imbalkit` CLI invocations in child
processes, one at a time, and checks their outputs. With --trace 0 the last
line holds the end-to-end metrics (medians over the repetitions made in
--seconds); with --trace 1 it holds the per-layer metrics of traced
in-process runs (perfbench/tracer.py), alternated with untraced runs so the
tracing overhead can be reported. Inputs are generated from --seed before any
timed region. Earlier lines hold the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
# BLAS pools are pinned before numpy is imported here or in any child, so
# repetitions do not compete for the cores they share.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
RUN_LIMIT_S = 170.0
# The host's speed drifts by up to half over minutes as other tenants load
# it, far more than a change worth catching. Every timed child is therefore
# bracketed by a fixed calibration kernel, and its wall time is scaled by
# REFERENCE_S / (the kernel's mean time around it): seconds at the speed at
# which the kernel takes REFERENCE_S (about an idle 2-core Xeon VM).
REFERENCE_S = 0.1
SETUP_CODE = "import sys, imbalkit.cli; from imbalkit.report import load_config; " \
             "load_config(sys.argv[1])"


def calibration_s() -> float:
    """Seconds taken by a fixed mix of interpreter and small-numpy work,
    the same kind of work the workloads do."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(800_000):
        acc += i * i % 7
    a = np.arange(64.0)
    for _ in range(8000):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, log: Path, deadline: float) -> dict:
    """Run one child to completion: exit code, wall seconds from spawn to
    exit, and the peak RSS from its own rusage."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                 os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024}


def _log_tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-400:].strip()


def run_rep(wl: workloads.Workload, rep_dir: Path, deadline: float, traced: bool) -> dict:
    """One repetition: every invocation of the workload, then the checks."""
    rep_dir.mkdir(parents=True)
    rep = {"wall_s": 0.0, "rss_mb": 0.0, "failures": [], "hashes": [], "dumps": []}
    for k, args in enumerate(wl.invocations):
        out, log = rep_dir / f"out{k}", rep_dir / f"log{k}.txt"
        cli = [*args, "--out", str(out)]
        if traced:
            spans = rep_dir / f"spans{k}.json"
            argv = [sys.executable, tracer.__file__, str(spans), *cli]
        else:
            argv = [sys.executable, "-m", "imbalkit.cli", *cli]
        child = spawn(argv, log, deadline)
        rep["wall_s"] += child["wall_s"]
        rep["rss_mb"] = max(rep["rss_mb"], child["rss_mb"])
        if child["code"] != 0:
            rep["failures"].append(f"{args[0]} exited {child['code']}: {_log_tail(log)}")
            continue
        if traced:
            rep["dumps"].append(json.loads(spans.read_text(encoding="utf-8")))
        hashes, failures = checks.manifest_hashes(out)
        rep["hashes"].append(hashes)
        rep["failures"] += failures
        if args[0] == "explain":
            rep["failures"] += checks.shapley_efficiency(out)
        elif args[0] == "benchmark":
            rep["aucs"], failures = checks.roster_aucs(out, wl.roster)
            rep["failures"] += failures
        elif args[0] == "compare":
            rep["cv_accuracy"], failures = checks.comparison(out, wl.roster, wl.reference)
            rep["failures"] += failures
    return rep


def measure_setup(wl: workloads.Workload, log: Path, deadline: float) -> float:
    """A fresh interpreter importing imbalkit.cli and loading the config."""
    child = spawn([sys.executable, "-c", SETUP_CODE, str(wl.config)], log, deadline)
    if child["code"] != 0:
        raise RuntimeError(f"set-up failed: {_log_tail(log)}")
    return child["wall_s"]


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
            size: str = "full", min_reps: int = MIN_REPS) -> dict:
    """Run one workload for `seconds` and return the result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    wl = workloads.prepare(name, seed, work / "inputs", size)
    samples = {"setup_s": [], "calibration_s": [calibration_s()]}
    reps, traced_reps = [], []

    def scaled(wall: float) -> float:
        return wall * REFERENCE_S / statistics.fmean(samples["calibration_s"][-2:])

    stop = time.monotonic() + seconds
    # set-up and traced runs alternate with the untraced repetitions, so a
    # slow spell of the machine touches every series alike
    while len(reps) < min_reps or time.monotonic() < stop:
        i = len(reps)
        reps.append(run_rep(wl, work / f"rep{i}", deadline, traced=False))
        samples["calibration_s"].append(calibration_s())
        reps[-1]["scaled_wall_s"] = scaled(reps[-1]["wall_s"])
        if trace:
            traced_reps.append(run_rep(wl, work / f"traced{i}", deadline, traced=True))
            samples["calibration_s"].append(calibration_s())
            traced_reps[-1]["scaled_wall_s"] = scaled(traced_reps[-1]["wall_s"])
        else:
            setup = measure_setup(wl, work / f"setup{i}.txt", deadline)
            samples["calibration_s"].append(calibration_s())
            samples["setup_s"].append(scaled(setup))

    first = reps[0]["hashes"]
    failed = 0
    for rep in reps + traced_reps:
        # runs of one workload at one seed must write identical artifacts
        if not rep["failures"] and rep["hashes"] != first:
            rep["failures"].append("artifact hashes differ from the first run at this seed")
        for msg in rep["failures"]:
            print(f"check failed: {msg}", file=sys.stderr)
        failed += bool(rep["failures"])
    attempted = len(reps) + len(traced_reps)

    samples["raw_wall_s"] = [r["wall_s"] for r in reps]
    samples["wall_s"] = [r["scaled_wall_s"] for r in reps]
    samples["peak_rss_mb"] = [r["rss_mb"] for r in reps]
    if trace:
        samples["traced_wall_s"] = [r["scaled_wall_s"] for r in traced_reps]
        # a repetition whose invocations all failed contributes empty spans
        per_rep = [tracer.layer_metrics(r["dumps"]) for r in traced_reps
                   if len(r["dumps"]) == len(wl.invocations)] or [tracer.layer_metrics([])]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        metrics["trace.overhead_s"] = (statistics.median(samples["traced_wall_s"])
                                       - statistics.median(samples["wall_s"]))
        metrics["fail_rate"] = failed / attempted
    else:
        metrics = {k: statistics.median(samples[k]) for k in ("setup_s", "wall_s", "peak_rss_mb")}
        # auc and cv_accuracy are deterministic per seed; 1.0 marks a
        # workload whose invocations produce no such score
        aucs, accuracy = reps[0].get("aucs"), reps[0].get("cv_accuracy")
        metrics["auc"] = statistics.fmean(aucs) if aucs else 1.0
        metrics["cv_accuracy"] = 1.0 if accuracy is None else accuracy
    print(json.dumps({"samples": samples, "repetitions": len(reps)}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def with_units(metrics: dict, spec: list[dict]) -> dict:
    """Attach BENCHMARK.json's unit to each metric; every listed one must exist."""
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in SRC.rglob("*.py"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(), "cpu": cpu,
            "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "imbalkit" / "cli.py").is_file():
        print(f"no imbalkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        print(json.dumps({"environment": environment()}))
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
        result["metrics"] = with_units(result["metrics"],
                                       spec["per_layer" if args.trace else "end_to_end"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
