#!/usr/bin/env python3
"""The repository's end-to-end benchmark: build, run, report.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload static_range --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test

It builds the benchmark package (e2ebench/CMakeLists.txt, which builds the
simulator library from source) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload in its own process.
The last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger.
Build output goes to standard error. e2ebench/README.md describes the
workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("static_range", "churn_spill", "faulty_net")


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build(targets):
    """Configures once, then builds `targets`; returns the build directory."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no simulator sources: %s is missing from %s" % (needed, ROOT))
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target"] + targets,
        stdout=sys.stderr, check=True)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    # Fail fast on an environment that would change what is measured.
    if "ASF_DISPATCH" in os.environ:
        fail("ASF_DISPATCH is set; it re-routes auto dispatch. Unset it.")

    if args.self_test:
        out = build(["e2ebench", "e2ebench_test"])
        env = dict(os.environ, E2EBENCH_BIN=os.path.join(out, "e2ebench"),
                   E2EBENCH_SCRATCH=os.path.join(out, "scratch"))
        os.makedirs(env["E2EBENCH_SCRATCH"], exist_ok=True)
        code = subprocess.run([os.path.join(out, "e2ebench_test")]).returncode
        tests = subprocess.run(
            [sys.executable, "-m", "unittest", "-v", "test_run"],
            cwd=os.path.join(HERE, "tests"), env=env).returncode
        sys.exit(code or tests)

    if args.workload is None:
        fail("--workload is required")
    out = build(["e2ebench"])
    scratch = os.path.join(out, "scratch")
    os.makedirs(scratch, exist_ok=True)
    result = subprocess.run([
        os.path.join(out, "e2ebench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", args.trace, "--scratch", scratch])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
