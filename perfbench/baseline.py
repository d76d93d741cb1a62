"""Run every workload over several seeds and record the spread of each metric.

    python3 perfbench/baseline.py [--runs 10] [--out FILE]

Runs the command in BENCHMARK.json for every workload with seeds 1..runs and
tracing off, then once per workload with tracing on, all from the repository
root.  Prints, for each end-to-end metric, the median, the quartiles, the
minimum, the maximum and the spread (distance between the quartiles over the
median, from ``statistics.quantiles(values, n=4)``), and writes them with the
traced per-layer numbers to FILE (default: print only).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed, trace) -> dict:
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]),
                               "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    report = {"note": "The reference baseline of the repository; it replaces the "
                      "baseline table in ROADMAP.md. End-to-end times are rescaled "
                      "to nominal machine speed (speed.py); the traced per-layer "
                      "numbers are one run each, unscaled.",
              "runs": args.runs, "seeds": seeds, "run_seconds": bench["run_seconds"],
              "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                         f"{platform.python_implementation()} {platform.python_version()}",
              "workloads": {}}
    for name in [w["name"] for w in bench["workloads"]]:
        results = [run_once(bench, name, seed, 0) for seed in seeds]
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": results[0]["attempted"], "failed": results[0]["failed"],
                 "metrics": {}}
        print(f"{name}: correct {entry['correct']}, "
              f"failed {entry['failed']}/{entry['attempted']} in the first run")
        for metric in bench["end_to_end"]:
            m = metric["name"]
            s = summarize([r["metrics"][m]["value"] for r in results])
            s["unit"] = metric["unit"]
            entry["metrics"][m] = s
            flag = "" if m == "setup_s" or s["spread"] <= bounds[m] / 3 else "  WIDE"
            print(f"  {m:12s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} min {s['min']:<12.6g} "
                  f"max {s['max']:<12.6g} spread {s['spread']:.3f} "
                  f"(bound {bounds[m]}){flag}")
        traced = run_once(bench, name, seeds[0], 1)
        entry["traced"] = {m: v["value"] for m, v in traced["metrics"].items()}
        print(f"  traced: coverage {entry['traced']['trace.coverage']:.4f}, "
              f"layer coverage {entry['traced']['trace.layer_coverage']:.4f}, "
              f"overhead {entry['traced']['trace.overhead_s']:.3f} s")
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
