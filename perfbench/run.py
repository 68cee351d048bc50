#!/usr/bin/env python3
"""Build and run the simulator benchmark from the root of a checkout.

    python3 perfbench/run.py --workload grid|fleet|churn --seed N \
        --seconds S --trace 0|1

Builds the `perfbench` package (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload, and
relays its output. The last line of standard output is the result: one
JSON object with `correct`, `attempted`, `failed` and `metrics`. On any
failure the script exits non-zero without printing a result. See
perfbench/BENCH.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary stops measuring after --seconds plus its warm-up and checks;
# this only guards against a hang.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["grid", "fleet", "churn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a whole number >= 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    scratch = os.path.join(target, f"perfbench-scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    command = [os.path.join(target, "release", "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scratch", scratch]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(target, f"perfbench-trace-{args.workload}.jsonl")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
