#!/usr/bin/env python3
"""Build and run the FT-GEMM benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload gemm_serial --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs one workload and passes its output through.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exits non-zero, without a
result line, if the build fails, and non-zero if any output was wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["gemm_serial", "gemm_parallel_faulty", "serve_inproc", "serve_wire"]
RUN_TIMEOUT_S = 170


def commit_id(root):
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--commit", commit_id(root),
        "--trace-dir", os.path.join(target, "perfbench-traces"),
    ]
    # Fixed allocator behaviour, the same for every commit measured. By
    # default glibc picks per-thread arenas and moves its mmap and trim
    # thresholds as buffers come and go, so whether a freed multi-MiB
    # workspace is reused warm or unmapped and faulted in again differs
    # from run to run: set-up time doubled and in-process serving
    # throughput fell fourfold in some runs and not in others. One arena,
    # heap-backed large buffers and no trimming keep reuse warm every time.
    run_env = dict(
        os.environ,
        MALLOC_ARENA_MAX="1",
        MALLOC_MMAP_THRESHOLD_=str(256 << 20),
        MALLOC_TRIM_THRESHOLD_=str(4 << 30),
    )
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=run_env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: workload did not finish in time", file=sys.stderr)
        return 4
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result line", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
