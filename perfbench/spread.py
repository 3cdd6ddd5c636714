"""Runs the benchmark over seeds 1-10 and reports each metric's spread.

    python3 perfbench/spread.py [--out FILE]

Every workload of BENCHMARK.json is run once per seed, one run after another,
from the repository root, with the run_seconds of BENCHMARK.json.  For each
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread, which is the distance between the quartiles as a share
of the median, next to the metric's bound.  A spread of a third of the bound
or more is flagged.  One traced run per workload, on seed 1, adds the
per-layer breakdown.  With --out, everything is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900
SEEDS = list(range(1, 11))
TRACED_SEED = 1


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    detail = next((json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("perfbench-detail ")), {})
    return {"returncode": proc.returncode, "run_s": time.perf_counter() - start,
            "result": result, "detail": detail}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    report = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    flagged = []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            run = run_once(workload, seed, seconds, trace=0)
            runs.append(run)
            ok = run["returncode"] == 0 and run["result"]["correct"]
            print(f"{workload} seed {seed}: {run['run_s']:.1f} s, correct={ok}, "
                  f"failed {run['result']['failed']}/{run['result']['attempted']}", flush=True)
            if not ok:
                flagged.append(f"{workload} seed {seed} is not correct")
        entry = {"metrics": {}, "runs": [
            {"seed": seed, "run_s": r["run_s"], "correct": r["result"]["correct"],
             "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
             **r["detail"]} for seed, r in zip(SEEDS, runs)]}
        for name, bound in bounds.items():
            stats = spread([r["result"]["metrics"][name]["value"] for r in runs])
            stats["bound"] = bound
            entry["metrics"][name] = stats
            mark = ""
            if stats["spread"] >= bound / 3:
                mark = "  <-- spread >= bound/3"
                flagged.append(f"{workload} {name} spread {stats['spread']:.3f} >= {bound / 3:.3f}")
            print(f"  {name:<14} median {stats['median']:12.4f}  q1 {stats['q1']:12.4f}  "
                  f"q3 {stats['q3']:12.4f}  spread {stats['spread']:.4f}  bound {bound}{mark}")
        run = run_once(workload, TRACED_SEED, seconds, trace=1)
        entry["traced"] = {"seed": TRACED_SEED, "correct": run["result"]["correct"],
                           "metrics": {k: v["value"] for k, v in run["result"]["metrics"].items()},
                           **run["detail"]}
        print(f"  traced seed {TRACED_SEED}: correct={run['result']['correct']}, overhead "
              f"{run['result']['metrics']['trace.overhead_frac']['value']:.3f}", flush=True)
        if run["returncode"] != 0 or not run["result"]["correct"]:
            flagged.append(f"{workload} traced run is not correct")
        report["workloads"][workload] = entry
    report["flagged"] = flagged
    for line in flagged:
        print(f"FLAG {line}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
