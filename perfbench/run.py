#!/usr/bin/env python3
"""Plan-lifecycle benchmark: build the driver from source, run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload gpt-inline --seed 1 --seconds 15 --trace 0

The driver and a private copy of the core library are built with CMake into
$CARGO_TARGET_DIR (default .bench_build). The last line of standard output is
the driver's JSON result; build output and diagnostics go to standard error.
Exits non-zero, printing no result, when the sources or the build are missing.
"""

import argparse
import glob
import os
import signal
import subprocess
import sys

# Seed used while the benchmark was written, and one kept aside to confirm a
# claimed gain on inputs nobody tuned against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

WORKLOADS = ("gpt-inline", "t5-ahead", "gpt-replay-mux")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "trainer.cc")):
        log("no DynaPipe sources next to perfbench/; nothing to build")
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def remove_leftover_segments(pid):
    # A driver that was killed cannot unlink the shared-memory segments it
    # created; they are named after its pid.
    for path in glob.glob(f"/dev/shm/perfbench-{pid}-*"):
        try:
            os.unlink(path)
        except OSError:
            pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        return 1
    driver = os.path.join(build_dir, "perfbench_driver")
    # Relative, so the mux workload's socket path stays short.
    out_dir = os.path.relpath(os.path.join(build_dir, "perfbench"), ROOT)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    env = dict(os.environ)
    env.pop("DYNAPIPE_TRACE", None)  # the product's own tracer stays off
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        remove_leftover_segments(proc.pid)
        log(f"driver exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    if proc.returncode < 0:
        remove_leftover_segments(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
