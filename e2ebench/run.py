#!/usr/bin/env python3
"""End-to-end SmartCrowd benchmark: builds and runs one workload.

    python3 e2ebench/run.py --workload economy|replicated|import \\
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Builds the program's libraries from ../src at -O3 together with the benchmark
binary e2e_bench (e2ebench/CMakeLists.txt) into .bench_build/e2ebench, then
runs it from the repository root. It prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, the per-layer split with --trace 1); the
traced run also writes a Chrome trace and a layer table per workload to
.bench_build/e2ebench/out. Build output goes to stderr. Scratch stores live
under .bench_build/e2ebench/run-<pid> and are removed at exit. See README.md.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("economy", "replicated", "import")


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found at %s" % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "e2e_bench", "e2e_checks_test"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(cmd, env=None):
    """Runs cmd to completion, forwarding SIGTERM/SIGINT to it."""
    child = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    old = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait()
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the tests of the benchmark's correctness checks")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    work = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        if args.self_test:
            return run([os.path.join(BUILD, "e2e_checks_test"), work])
        env = dict(os.environ, E2E_GIT_DESCRIBE=git_describe())
        return run([os.path.join(BUILD, "e2e_bench"), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", repr(args.seconds),
                    "--trace", str(args.trace), "--work-dir", work,
                    "--out-dir", os.path.join(BUILD, "out")], env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
