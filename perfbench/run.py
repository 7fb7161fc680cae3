#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

    python3 perfbench/run.py --workload day-disposable --seed 1 \
        --seconds 20 --trace 0

Configures and builds perfbench/CMakeLists.txt (the repository libraries
plus the benchmark binary, Release) into .bench_build/ at the checkout
root, then runs the binary with the given arguments.  Build output goes to
stderr, so the binary's JSON result stays the last line of stdout.  See
perfbench/README.md for the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_to_stderr(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no src/ next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        code = run_to_stderr(configure, BUILD_TIMEOUT_S)
        if code != 0:
            return code
    jobs = str(min(os.cpu_count() or 1, 4))
    return run_to_stderr(["cmake", "--build", BUILD, "-j", jobs],
                         BUILD_TIMEOUT_S)


def main():
    code = build()
    if code != 0:
        print(f"run.py: build failed ({code})", file=sys.stderr)
        return code or 1
    sys.stdout.flush()
    try:
        return subprocess.run([BINARY] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: perfbench timed out after {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
