#!/usr/bin/env python3
"""Repository benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload maxcut24_deep --seed 1 --seconds 20 --trace 0

Workloads: maxcut24_deep, labs20_optimize and sk16_serve (see
BENCHMARK.json for why each exists).

--trace 0 is the timed production run and reports the end-to-end metrics;
--trace 1 is the traced replay and reports the per-layer metrics. --smoke shrinks every problem to a few qubits (used by
perfbench/test_perfbench.py to check that every metric is emitted).

The runner builds the benchmark binary from source (into
$CARGO_TARGET_DIR/perfbench-<hash of the source tree's path>, default
.bench_build/...), unsets the QOKIT_* overrides so every run takes the
production defaults, pins the OpenMP thread count per workload through
OMP_NUM_THREADS (the tuning subsystem picks its own count unless that
variable is set), and runs the binary. The binary's last stdout line is
the JSON result; its exit code is passed through.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# OpenMP threads per workload: 4 compute threads in every process (the
# serving workload runs 2 workers with 2 threads each).
THREADS = {"maxcut24_deep": 4, "labs20_optimize": 4, "sk16_serve": 2}

# Environment overrides the library reads; unset for every run and recorded.
HERMETIC_VARS = ["QOKIT_PREC", "QOKIT_TUNE", "QOKIT_TUNE_PATH", "QOKIT_SIMD",
                 "QOKIT_PIPELINE", "QOKIT_OBS"]

# glibc raises its mmap threshold each time a mapped block is freed, so
# which freed session buffers stay resident depends on the order threads
# free them: over ten seeds on a 4-vCPU Xeon, the serving workload's peak
# RSS ranged over 100-140 MiB against 37 MiB with the threshold fixed at
# glibc's default 128 KiB. Fixed, peak_rss_mib tracks live memory.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}

RUN_TIMEOUT_S = 175  # a run must end within 180 s, build excluded


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the binary; output goes to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def result_line(stdout):
    """The parsed JSON result from the last non-empty line, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "api", "session.hpp")):
        log("no qokit source tree next to perfbench/; nothing to build")
        return 2

    work_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    # CMake fixes the source tree at the first configure, so a build
    # directory shared between checkouts must not be reused across them.
    tree = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:12]
    build_dir = os.path.join(work_dir, "perfbench-" + tree)
    os.makedirs(build_dir, exist_ok=True)
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed:", err)
        return 2

    env = dict(os.environ)
    unset = []
    for name in HERMETIC_VARS:
        value = env.pop(name, None)
        unset.append(f"{name}={'<unset>' if value is None else value}")
    pinned = dict(MALLOC_ENV, OMP_NUM_THREADS=str(THREADS[args.workload]))
    env.update(pinned)
    record = ("unset " + ",".join(unset) + "; set " +
              ",".join(f"{k}={v}" for k, v in pinned.items()))

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir",
           os.path.relpath(work_dir, ROOT), "--env-record", record]
    if args.smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopped")
        return 124
    log(f"run took {time.monotonic() - start:.1f} s, exit {proc.returncode}")
    if proc.returncode not in (0, 1) or result_line(proc.stdout) is None:
        sys.stderr.write(proc.stdout)
        log("run ended without a result line")
        return proc.returncode or 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
