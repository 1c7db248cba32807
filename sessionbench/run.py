#!/usr/bin/env python3
"""Builds the session benchmark from source and runs one invocation.

    python3 sessionbench/run.py --workload paper_r50 --seed 1 --seconds 25 --trace 0

Run from the repository root. The first call configures and compiles
sessionbench/ (and the repository's libraries under src/) in Release
mode into .bench_build/sessionbench; later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, without a result, when the build
fails or the sources are missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "sessionbench")
WORKLOADS = ("paper_r50", "silo_train", "durable_faults")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("sessionbench: repository sources (src/) not found")
    if shutil.which("cmake") is None:
        sys.exit("sessionbench: cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "sessionbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "sessionbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        sys.exit(f"sessionbench: build failed ({err})")
    state_root = os.path.join(BUILD_DIR, f"state-{os.getpid()}")
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--state-root", state_root],
            cwd=ROOT)
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
