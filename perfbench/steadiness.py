#!/usr/bin/env python3
"""Run the benchmark once per seed on each workload and report, for every
end-to-end metric, the median and the spread: the distance between the
first and third quartiles (statistics.quantiles(values, n=4)) as a share
of the median. Every metric, setup_s included, is judged against its
bound in BENCHMARK.json: a spread within the bound passes, and a spread
within a third of the bound is steady. With --traced, each workload also
gets one traced run (--trace 1) at the first seed, whose per-layer record
is written with the rest.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1,2,3,4,5,6,7,8,9,10 [--workloads a,b] [--traced] [--out FILE]

The benchmark runs through its BENCHMARK.json command. The exit code is 1
when any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    if not record["correct"] or record["failed"]:
        sys.exit(f"{' '.join(cmd)}: correctness gate failed:\n{proc.stderr[-2000:]}")
    stamp = json.loads(lines[-2])["stamp"] if len(lines) > 1 else {}
    return record, stamp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", default="", help="write the medians and spreads here as JSON")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    within = True
    for w in workloads:
        values = {name: [] for name in bounds}
        stamp = {}
        for seed in seeds:
            record, stamp = run_once(spec, w, seed, seconds, 0)
            for name in bounds:
                values[name].append(record["metrics"][name]["value"])
        print(f"== {w} ({len(seeds)} seeds, nproc {stamp.get('nproc')})")
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "OVER BOUND"
            within &= spread <= bound
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"  {name:16} median {med:12.6g}  spread {spread:6.3f}  bound {bound:.2f}  {verdict}")
        summary["workloads"][w] = {"stamp": stamp, "metrics": rows}
        if args.traced:
            record, stamp = run_once(spec, w, seeds[0], seconds, 1)
            summary["workloads"][w]["traced"] = {"stamp": stamp, "record": record}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    sys.exit(0 if within else 1)


if __name__ == "__main__":
    main()
