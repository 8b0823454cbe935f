#!/usr/bin/env python3
"""End-to-end epoch benchmark of the PPDC engines.

Builds the `perfbench` package (release profile, offline) and runs one
workload in its own process, so that its peak RSS is its own:

    python3 perfbench/run.py --workload stream-fabric --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

Run it from the root of a checkout. It prints `name = value unit` lines and,
as the last line, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer split. The exit code is non-zero when the build
fails, the program's output fails a correctness check, or a run overruns
its time limit. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("stream-fabric", "hourly-tom")
DEFAULT_SEED = 1
# Solver counts repeat exactly only at a fixed thread count, so every run
# uses the same number of workers, never more than the machine has.
MAX_THREADS = 2
# A run is killed past this many seconds (the first build is not counted).
RUN_LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def available_parallelism():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(target_dir):
    """Builds the benchmark binary; returns its path."""
    for need in ("Cargo.toml", "crates", "perfbench/Cargo.toml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found under {ROOT}: run from a full checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace, threads):
    """Runs one workload in a child process; returns (result, exit code)."""
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out_path = os.path.join(work, "stdout.txt")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work]
    env = dict(os.environ, RAYON_NUM_THREADS=str(threads))
    try:
        with open(out_path, "w") as out:
            child = subprocess.Popen(cmd, stdout=out, env=env)
            deadline = time.monotonic() + RUN_LIMIT_S
            # wait4 reports the child's own peak RSS; poll it so an overrun
            # can be killed.
            while True:
                pid, status, usage = os.wait4(child.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    child.kill()
                    _, status, usage = os.wait4(child.pid, 0)
                    child.returncode = -9
                    fail(f"{workload} ran past {RUN_LIMIT_S} s")
                time.sleep(0.05)
            child.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as f:
            lines = f.read().splitlines()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    if not lines:
        fail(f"{workload} printed nothing (exit {child.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} did not end with a result line (exit {child.returncode})")
    for line in lines[:-1]:
        print(line)
    if not trace:
        # ru_maxrss is in KiB on Linux.
        rss_mb = usage.ru_maxrss / 1024.0
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        print(f"peak_rss_mb = {rss_mb} MB")
    return result, child.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(ROOT, target))
    threads = min(MAX_THREADS, available_parallelism())
    print(f"available_parallelism = {available_parallelism()} count")
    print(f"rayon_threads = {threads} count")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results, code = {}, 0
    for w in workloads:
        print(f"# workload {w} seed {args.seed} trace {args.trace}")
        results[w], rc = run_one(binary, w, args.seed, args.seconds, args.trace, threads)
        code = code or rc
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    sys.exit(code)


if __name__ == "__main__":
    main()
