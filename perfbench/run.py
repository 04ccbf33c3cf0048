#!/usr/bin/env python3
"""Runs one folearn benchmark workload and prints its result line.

    python3 perfbench/run.py --workload serve-eval --seed 3 --seconds 15 --trace 0

Run from the repository root. Builds folearn_cli, folearnd and the
benchmark driver into .bench_build/ (Release; the first run compiles),
then runs the driver in .bench_build/run/<workload>/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 1 the metrics are the per-layer ones and the spans are
written to .bench_build/run/<workload>/trace.jsonl. See README.md.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("batch-learn", "serve-eval", "serve-mixed")
TARGETS = ("perfbench_driver", "folearn_cli", "folearnd")
PR_SET_PDEATHSIG = 1


def die_with_parent():
    """Runs in the forked child: SIGKILL it when its parent exits."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def build(bench_dir):
    """Configures and builds the three targets; False on failure."""
    log_path = os.path.join(BUILD_DIR, "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", bench_dir, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", *TARGETS],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    # Compiler and program temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    if not build(bench_dir):
        return 1
    root = os.path.abspath(BUILD_DIR)
    workdir = os.path.join(BUILD_DIR, "run", args.workload)
    driver = [
        os.path.join(root, "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join(root, "folearn", "tools", "folearn_cli"),
        "--daemon", os.path.join(root, "folearn", "tools", "folearnd"),
        "--workdir", workdir,
    ]
    # The driver prints the result line last; pass its output through. It
    # is killed if this process dies, and its children die with it.
    result = subprocess.run(driver, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True,
                            preexec_fn=die_with_parent)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write("perfbench: driver failed (exit %d)\n"
                         % result.returncode)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
