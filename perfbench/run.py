#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fj-irregular --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the CAB libraries from src/ plus the
benchmark binary) into the build directory, then runs the binary with the
given arguments. The build directory is $CARGO_TARGET_DIR when set, else
.bench_build, relative to the current directory; the traced run writes its
Chrome trace into <build directory>/traces. The binary's output passes
through unchanged: its last line is the JSON result. Build output goes to
stderr. The exit code is the binary's (0 only when every op checked out).
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per directory
        configured = any(os.path.exists(os.path.join(bdir, f))
                         for f in ("Makefile", "build.ninja"))
        if not configured:
            subprocess.run(
                ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", bdir, "-j", jobs, "--target", *targets],
            stdout=sys.stderr, check=True)
    return bdir


def main(argv):
    try:
        bdir = build(["cab_perfbench"])
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    traces = os.path.join(bdir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(bdir, "cab_perfbench"), *argv, "--out-dir", traces]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
