#!/usr/bin/env python3
"""Builds and runs the TriniT benchmark.

    python3 perfbench/run.py --workload explore|hot|join --seed N \
        --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
engine library and the benchmark (Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs reuse the build. Build output
and the benchmark's progress go to stderr; the last line of stdout is the
result object. Exits non-zero without a result when the engine sources
are missing or the build fails, and with the benchmark's own code
otherwise (1 when a correctness check failed).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not (
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("engine sources not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["explore", "hot", "join"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    sys.exit(subprocess.call([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir]))


if __name__ == "__main__":
    main()
