#!/usr/bin/env python3
"""Host-throughput benchmark of the PAIR simulator.

Builds perfbench/ (which compiles the simulator libraries from ../src) into
.bench_build/perfbench with CMake, then runs one workload from the root of
the source tree:

    python3 perfbench/run.py --workload mc_pair --seed 1 --seconds 15 --trace 0

Build output goes to stderr; pair_perfbench's stdout is passed through, and its
last line is the result object. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
BUILD = CHECKOUT / ".bench_build" / "perfbench"
WORK = CHECKOUT / ".bench_build" / "work"
WORKLOADS = ("mc_pair", "mc_baseline", "system_pair", "trace_timing")
BUILD_JOBS = "4"


def build(target="pair_perfbench"):
    """Configures once, then (re)builds `target`; returns its path."""
    if not (CHECKOUT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources not found at {CHECKOUT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "--parallel", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return BUILD / target


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(CHECKOUT.parent))
    try:
        out = subprocess.run(["git", "-C", str(CHECKOUT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0xB0A7)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size,
           "--digests", str(HERE / "expected_digests.json"),
           "--work-dir", str(WORK), "--git-commit", git_commit()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=CHECKOUT).returncode


if __name__ == "__main__":
    sys.exit(main())
