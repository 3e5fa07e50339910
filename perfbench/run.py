#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bfs-rmat --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the harness plus the library sources under src/) with
CMake into $CARGO_TARGET_DIR (default .bench_build), then runs the binary
and passes its output through.  The binary's last stdout line is the JSON
result.  With --trace 1 the spans are written to
<build dir>/traces/<workload>-seed<seed>.json.  Exits non-zero, printing no
result, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170  # the whole command must end well within 180 s
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{' '.join(cmd)}: {err}")
        return False
    return proc.returncode == 0


def build(root, build_dir):
    src_dir = os.path.join(root, "src")
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isdir(src_dir):
        log(f"no library sources at {src_dir}; nothing to benchmark")
        return None
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", bench_dir, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_checked(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", jobs], max(1, deadline - time.monotonic())):
        return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(root, build_dir)
    if binary is None:
        log("build failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"run exited with code {proc.returncode}")
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
