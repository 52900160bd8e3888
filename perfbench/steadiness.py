#!/usr/bin/env python3
"""Repeated runs of the benchmark and the spread of every end-to-end metric.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads e1_grid,campaign]
        [--out perfbench/baseline/steadiness.json]

Runs perfbench/run.py once per (workload, seed), untraced, for the
run_seconds of BENCHMARK.json, and reports per metric the median and the
spread: the distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median. A spread above
the metric's bound (setup_s excepted) means the benchmark cannot resolve a
change of that size. --out records the runs, the spreads and the host.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    done = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    elapsed = time.time() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    result["run_wall_s"] = elapsed
    return result


def main():
    bench = json.load(open(os.path.join(REPO, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", help="write runs, spreads and host here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"host": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                       "machine": platform.machine()},
              "run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, bench["run_seconds"]) for seed in args.seeds]
        rows = {}
        print("%s (%d runs, %.0f s each on average)" % (
            workload, len(runs), statistics.mean(r["run_wall_s"] for r in runs)))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": values}
            flag = ""
            if name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER BOUND" if spread > bound else (
                    "  over bound/3" if spread > bound / 3 else "")
            print("  %-12s median %-12.6g spread %6.3f  bound %.2f%s" % (
                name, med, spread, bound, flag))
        failed = sum(r["failed"] for r in runs)
        print("  failed operations: %d of %d" % (failed, sum(r["attempted"] for r in runs)))
        report["workloads"][workload] = {
            "metrics": rows, "failed": failed,
            "run_wall_s": [r["run_wall_s"] for r in runs]}
    print("worst spread / bound (setup_s excepted): %.3f" % worst)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
