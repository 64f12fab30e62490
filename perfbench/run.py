#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
hetsched libraries and the benchmark program (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
only bring the build up to date. The program's output is passed through:
one readable line per metric, then the JSON result as the last line.
A traced run (--trace 1) also writes its spans next to the build.

Exit status: the program's (0 = every correctness check passed), or 2
when the sources are missing, the build fails or the program times out.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-base", "large-n", "fault-drill", "serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir, target):
    """Configure once, then build `target`. Serialized by a lock file so
    concurrent runs in one checkout share one build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no hetsched sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out_dir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target",
                      target])
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build step timed out: {' '.join(step)}")
            except OSError as e:
                fail(f"cannot run {step[0]}: {e}")
            if done.returncode != 0:
                fail(f"build step failed ({done.returncode}): {' '.join(step)}")


def run(command):
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(command)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out_dir = build_dir()
    if args.self_test:
        build(out_dir, "perfbench_tests")
        sys.exit(run([os.path.join(out_dir, "perfbench_tests")]))
    build(out_dir, "perfbench")

    command = [os.path.join(out_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--digests", os.path.join(HERE, "digests.txt")]
    if args.trace:
        command += ["--spans-out", os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.json")]
    sys.exit(run(command))


if __name__ == "__main__":
    main()
