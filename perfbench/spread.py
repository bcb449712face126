"""Run the benchmark over several seeds and report each metric's median and
quartile spread (Q3 - Q1 as a share of the median, statistics.quantiles n=4).

    python3 perfbench/spread.py [--write]

runs every workload at seeds 1 to 10. --write stores the figures, with the
environment, in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[0])["environment"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report, env = {}, {}
    for name in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            env, result = run_once(name, seed, spec["run_seconds"], 0)
            results.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        _, traced = run_once(name, SEEDS[0], spec["run_seconds"], 1)
        report[name] = {
            "fail_rate": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
            "end_to_end": {k: summarize([r["metrics"][k]["value"] for r in results])
                           for k in bounds},
            f"per_layer_seed_{SEEDS[0]}": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for k, s in report[name]["end_to_end"].items():
            flag = "" if s["spread"] < bounds[k] / 3 else "  <-- above a third of the bound"
            print(f"{name} {k}: median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"(bound {bounds[k]}){flag}", flush=True)
    if args.write:
        doc = {"seeds": f"{SEEDS[0]}-{SEEDS[-1]}", "run_seconds": spec["run_seconds"],
               "environment": env, "workloads": report}
        (ROOT / "perfbench" / "baseline.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
