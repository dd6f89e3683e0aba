#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fresh_explore --seed 1 --seconds 10 --trace 0

The first run configures and builds the maliva library and the benchmark into
.bench_build/ (CMake, Release-with-debug-info); later runs only rebuild what
changed. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Exits non-zero when the sources are
missing, the build fails, or a correctness check fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "service.h")):
        print("perfbench: the maliva sources (src/) are missing", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
