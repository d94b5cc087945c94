#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload port --seed 1 --seconds 15 --trace 0

Every argument is passed to perfbench/bench.exe, which prints one
`metric` line per metric and, as its last line, one JSON object.
Exits non-zero without a result when the checkout cannot be built.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def pin_to_one_cpu():
    """Run the benchmark on one CPU.

    The load generator is a closed loop, so the client and the daemon
    never run at once. On a 2-vCPU virtual machine, handing every request
    across CPUs made serve-hot throughput vary twofold between runs and
    its p99 fivefold; on one CPU the same runs agreed within a few percent.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a vega checkout", file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/bench.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        return build.returncode
    pin_to_one_cpu()
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
