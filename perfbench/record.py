"""Run the benchmark on several seeds and summarise the spread.

    python3 perfbench/record.py count gadgets classify --runs 10 --out perfbench/baseline.json

For each workload, runs `run.py --trace 0` once per seed 1..runs, one
process after another, and reports for every end-to-end metric the median,
the quartiles (`statistics.quantiles(values, n=4)`) and the inter-quartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json, and it makes one traced run per workload (seed 1).  The record names the Python version, `nproc`, the recursion
limit, the seeds and the git commit, beside each workload's reason for
being chosen and the map from layer metrics to end-to-end metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results, bounds):
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bound,
            "values": values,
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    record = {
        "git_sha": sha.stdout.strip() or None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "recursion_limit": sys.getrecursionlimit(),
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(1, args.runs + 1)),
        "workloads": {},
        "layer_map": spans.LAYER_MAP,
    }
    for workload in args.workloads:
        results = [run(workload, seed, bench["run_seconds"], 0) for seed in record["seeds"]]
        entry = {
            "why": next(w["why"] for w in bench["workloads"] if w["name"] == workload),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": [r["correct"] for r in results],
            "metrics": summarise(results, bounds),
        }
        traced = run(workload, 1, bench["run_seconds"], 1)
        entry["traced_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
        print("%-9s correct %s failed %s of %s" % (workload, entry["correct"], entry["failed"], entry["attempted"]))
        for name, m in entry["metrics"].items():
            flag = "ok" if m["spread"] < m["bound"] / 3 else "WIDE"
            print("%-9s %-13s median %-12.6g spread %6.3f bound %5.3f %s"
                  % (workload, name, m["median"], m["spread"], m["bound"], flag), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
