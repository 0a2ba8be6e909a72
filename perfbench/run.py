#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark package in this directory is
built with cargo (into $CARGO_TARGET_DIR, default .bench_build), then run
once. Its full report goes to standard output; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`, where the
metrics are exactly those BENCHMARK.json declares for the mode: every
`end_to_end` metric with --trace 0, every `per_layer` metric with
--trace 1. A per-layer metric of a layer the workload does not exercise is
reported as 0. Any build or run failure exits non-zero without a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    binary = os.path.join(ROOT, target, "release", "qp-perfbench")
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]
    # A fixed mmap threshold returns large freed buffers to the kernel, so
    # peak RSS counts live memory, not which thread's malloc arena happened
    # to keep a freed snapshot buffer.
    run_env = dict(env, MALLOC_MMAP_THRESHOLD_="131072")
    try:
        run = subprocess.run(
            command, cwd=ROOT, env=run_env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run failed: {e}")
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines:
        print(line)
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")
    try:
        row = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last line is not a JSON result row: {e}")

    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    metrics = {}
    for m in declared:
        got = row["metrics"].get(m["name"])
        if got is None:
            if args.trace == "0":
                fail(f"end-to-end metric {m['name']} missing")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} differs from the declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {
        "correct": row["correct"],
        "attempted": row["attempted"],
        "failed": row["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
