#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload e1_grid --seed 7 --seconds 15 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt: the repository's
libraries from src/, tools/tta_verifyd.cpp and the harness) into
.bench_build/perfbench, runs one workload in its own process, and passes the
harness's output through. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.

Exits non-zero without a result when the build or the run fails, for
instance in a directory that holds only the benchmark and not the sources.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(REPO, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ["e1_grid", "exhaustive_5node", "serve_mix", "campaign"]
RUN_TIMEOUT_S = 175


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="self-test sizes (seconds, not minutes)")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="self-test: expect one wrong answer")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(REPO, "src", "CMakeLists.txt")):
        print("perfbench: no repository sources next to perfbench/", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--repo-root", REPO, "--verifyd", os.path.join(BUILD, "tta_verifyd"),
           "--work-dir", work]
    if args.trace:
        cmd += ["--spans", os.path.join(
            traces, "%s-seed%d.spans.jsonl" % (args.workload, args.seed))]
    if args.reduced:
        cmd.append("--reduced")
    if args.inject_wrong_answer:
        cmd.append("--inject-wrong-answer")

    # The harness and the server it spawns share a fresh process group, so
    # nothing outlives the run even if the harness dies.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True,
                            text=True)

    def stop(signum, frame):
        raise SystemExit(1)  # the finally below kills the group

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print("perfbench: harness exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
