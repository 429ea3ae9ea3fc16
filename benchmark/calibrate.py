#!/usr/bin/env python3
"""Noise calibration of the benchmark: runs every workload on several seeds
through benchmark/run.sh, exactly as the driver does, and records for every
metric its median, quartiles, extremes and the spread the driver judges
(interquartile distance as a share of the median).

    python3 benchmark/calibrate.py --runs 10 --out benchmark/noise.json

Run it from the root of the repository on an otherwise idle machine.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def machine():
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    scratch = ".bench_build/tmp"
    os.makedirs(scratch, exist_ok=True)
    fs = subprocess.run(["stat", "-f", "-c", "%T", scratch], capture_output=True, text=True).stdout.strip()
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "gomaxprocs": os.cpu_count(),  # GOMAXPROCS is left at its default
        "go_version": go,
        "kernel": platform.release(),
        "scratch_filesystem": fs,
    }


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"] != 0:
        sys.exit(f"{' '.join(cmd)}: {res['failed']} of {res['attempted']} operations failed")
    return res, wall


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
        "iqr_over_median": (q3 - q1) / med if med else 0.0,
        "range_over_median": (max(values) - min(values)) / med if med else 0.0,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    out = {"machine": machine(), "runs": args.runs, "trace": args.trace,
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in names:
        samples, walls = {}, []
        for i in range(args.runs):
            res, wall = run_once(spec, w, args.first_seed + i, args.trace)
            walls.append(wall)
            for name, m in res["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            print(f"{w} seed {args.first_seed + i}: {wall:.1f} s", file=sys.stderr)
        table = {name: summarise(v) for name, v in sorted(samples.items())}
        out["workloads"][w] = {"run_wall_s_median": statistics.median(walls), "metrics": table}
        print(f"\n{w}  (median run {statistics.median(walls):.1f} s)")
        print(f"{'metric':42s} {'median':>14s} {'iqr/median':>11s} {'range/median':>13s} {'bound':>7s}")
        for name, s in table.items():
            b = bounds.get(name)
            flag = ""
            if b is not None and name != "setup_s" and s["iqr_over_median"] > b / 3:
                flag = "  <-- above a third of the bound"
            print(f"{name:42s} {s['median']:14.6g} {s['iqr_over_median']:10.2%} {s['range_over_median']:12.2%} "
                  f"{'' if b is None else format(b, '.0%'):>7s}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
