#!/usr/bin/env python3
"""Builds campion_bench from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the checkout. The first run configures and builds
the program (src/ plus this directory) into .bench_build/campion_e2e in
Release mode; later runs only check that the build is current. Build output
goes to stderr, so the last line of stdout is campion_bench's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "campion_e2e")


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("run.py: no src/CMakeLists.txt here; run from the root of a "
                 "campion checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join("bench", "e2e"), "-B",
                        BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(2, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "campion_bench",
                    "--parallel", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "campion_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"run.py: build failed: {error}")
    sys.stdout.flush()
    os.execv(binary, [binary, f"--workload={args.workload}",
                      f"--seed={args.seed}", f"--seconds={args.seconds:g}",
                      f"--trace={args.trace}"])


if __name__ == "__main__":
    main()
