#!/usr/bin/env python3
"""Records the benchmark's run-to-run spread as perfbench/STEADINESS.json.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--batches 2] [--held-out-seed 9001]

It first times a fixed pure-Python loop in short chunks, which shows how
much the host's own speed moves while nothing of the benchmark runs. Then,
batch after batch, it runs every workload in BENCHMARK.json once per seed,
untraced (batch b uses seeds b*runs+1 .. (b+1)*runs), and records each
end-to-end metric's values, median, quartiles and spread (the distance
between the first and third quartile as a share of the median, as
`statistics.quantiles(values, n=4)` gives them). For every batch after the
first it records how much worse each metric's median is than the first
batch's, against the metric's bound. Last, it runs each workload once on a
held-out seed, untraced, and once traced on seed 1, which reports the
tracing overhead of the replay that attributes time to layers.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import time


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = round(time.time() - start, 1)
    return result


def host_probe(seconds, chunk=2_000_000):
    """Seconds per fixed chunk of a pure-Python loop, over `seconds`."""
    times = []
    end = time.time() + seconds
    while time.time() < end:
        start = time.perf_counter()
        total = 0
        for i in range(chunk):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return {
        "chunks": len(times),
        "min_s": min(times),
        "median_s": q2,
        "max_s": max(times),
        "spread": (q3 - q1) / q2,
        "max_over_min": max(times) / min(times),
    }


def batch(command, seconds, workloads, bounds, seeds):
    out = {}
    for name in workloads:
        runs = [run(command, name, seed, seconds, False) for seed in seeds]
        metrics = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            metrics[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "bound": bound,
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med,
                "within_bound": (q3 - q1) / med <= bound,
                "within_third_of_bound": (q3 - q1) / med < bound / 3,
                "values": values,
            }
        out[name] = {
            "seeds": seeds,
            "started": time.strftime("%H:%M:%S", time.gmtime(time.time())),
            "all_correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": metrics,
        }
        print(f"{name} seeds {seeds[0]}..{seeds[-1]}: " + ", ".join(
            f"{k} {v['spread']:.3f}" for k, v in metrics.items()), flush=True)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--batches", type=int, default=2)
    parser.add_argument("--held-out-seed", type=int, default=9001)
    parser.add_argument("--probe-seconds", type=int, default=40)
    parser.add_argument("--out", default="perfbench/STEADINESS.json")
    opts = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    report = {
        "host": f"{platform.machine()}, {platform.processor() or 'unknown cpu'}, "
                f"{len(os.sched_getaffinity(0))} CPUs available",
        "run_seconds": seconds,
        "spread": "(Q3 - Q1) / median over the runs, quartiles from statistics.quantiles(n=4)",
        "worse_than_first_batch": "share by which a batch's median is worse than the first "
                                  "batch's, in the metric's own direction; negative is better",
        "host_probe": host_probe(opts.probe_seconds),
        "batches": [],
    }
    for b in range(opts.batches):
        seeds = list(range(b * opts.runs + 1, (b + 1) * opts.runs + 1))
        report["batches"].append(batch(command, seconds, workloads, bounds, seeds))
    first = report["batches"][0]
    report["batch_agreement"] = {}
    for later in report["batches"][1:]:
        for name in workloads:
            rows = report["batch_agreement"].setdefault(name, {})
            for metric, bound in bounds.items():
                m1 = first[name]["metrics"][metric]["median"]
                m2 = later[name]["metrics"][metric]["median"]
                worse = (m2 - m1) / m1 if better[metric] == "lower" else (m1 - m2) / m1
                rows.setdefault(metric, []).append(
                    {"worse": worse, "bound": bound, "within_bound": worse <= bound})
    for name in workloads:
        held = run(command, name, opts.held_out_seed, seconds, False)
        traced = run(command, name, 1, seconds, True)
        medians = first[name]["metrics"]
        report.setdefault("held_out", {})[name] = {
            "seed": opts.held_out_seed,
            "correct": held["correct"],
            "failed": held["failed"],
            "metrics": {k: v["value"] for k, v in held["metrics"].items()},
            "relative_to_first_batch_median": {
                k: v["value"] / medians[k]["median"] - 1 for k, v in held["metrics"].items()
            },
        }
        report.setdefault("traced", {})[name] = {
            "seed": 1,
            "correct": traced["correct"],
            "wall_s": traced["wall_s"],
            "tracing_overhead_ratio": traced["metrics"]["trace.overhead_ratio"]["value"],
        }
    with open(opts.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
