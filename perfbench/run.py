#!/usr/bin/env python3
"""Builds BENU and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the root of a checkout. The build goes to .bench_build/ there
(configured once, then rebuilt incrementally). The benchmark's statistics
test runs before every run. The last line of standard output is the
result object; see perfbench/README.md for workloads and metrics.
With BENU_SANITIZE set in the environment it refuses --trace 0.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("enum-hot", "enum-tcp", "service-mix", "dynamic-q5")
DEFAULT_SEED = 7
# One run (after the build) must end within this many seconds.
RUN_BUDGET_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds; returns False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", build_dir, "-j", jobs,
               "--target", "perfbench", "perfbench_stats_test"]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def git_commit():
    """HEAD of the checkout, if it is itself a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_sha256():
    """Content hash of src/ and the benchmark: identifies the code measured."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run_child(command, timeout):
    """Runs the benchmark in its own process group; kills the group (and
    with it any server the benchmark spawned) if it overruns. BENU_TRACE
    is left out of its environment: only the traced segment of a
    --trace 1 run turns tracing on, and spawned servers stay untraced."""
    env = {k: v for k, v in os.environ.items() if k != "BENU_TRACE"}
    child = subprocess.Popen(command, start_new_session=True, env=env)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded its time budget; killed")
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 1
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("BENU_SANITIZE") and args.trace == 0:
        log("perfbench: BENU_SANITIZE=%s is set; sanitizer builds run several "
            "times slower and distort every timing, so no end-to-end numbers "
            "are reported (unset it, or use --trace 1)"
            % os.environ["BENU_SANITIZE"])
        return 2
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no src/ next to perfbench/; run from a full checkout")
        return 1
    if not build(build_dir):
        log("perfbench: build failed")
        return 1
    started = time.monotonic()
    bin_dir = os.path.join(build_dir, "bin")
    if subprocess.run([os.path.join(bin_dir, "perfbench_stats_test")],
                      stdout=sys.stderr).returncode != 0:
        log("perfbench: statistics self-test failed")
        return 1

    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [os.path.join(bin_dir, "perfbench"),
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%s" % args.seconds,
               "--trace=%d" % args.trace,
               "--trace-dir=" + trace_dir,
               "--git-commit=" + git_commit(),
               "--source-sha=" + source_sha256()]
    sys.stdout.flush()
    budget = RUN_BUDGET_S - (time.monotonic() - started)
    return run_child(command, budget)


if __name__ == "__main__":
    sys.exit(main())
