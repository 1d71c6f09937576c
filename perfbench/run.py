#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

    python3 perfbench/run.py --workload drive-mix --seed 42 --seconds 10 --trace 0

Run it from the repository root. cargo builds the harness into
$CARGO_TARGET_DIR (default `.bench_build`). The harness prints progress to
stderr and, as the last line of stdout, its outcome: `correct`,
`attempted`, `failed`, an output `digest` and the metrics it measured, by
name. This script checks those names: untraced, they must be exactly
BENCHMARK.json's `end_to_end` metrics; traced, exactly the `per_layer`
metrics the workload exercises (LAYERS below), and every other declared
layer reads 0. It compares the digest with the one recorded for the seed
in `digests.json`, if there is one; a mismatch is a failed operation.
Then it prints `digest <workload> seed=<n> <hex>` and, as the last line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`, each
metric as `{"value", "unit"}` in BENCHMARK.json's order. It exits
non-zero, without a result line, if the build, the run or a name check
fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Per-layer metrics each workload measures in its traced run.
TRACE = ("trace.overhead_ratio", "trace.unit_s", "trace.unit_self_s",
         "trace.setup_s", "trace.setup_self_s", "trace.units",
         "runtime.fork_join_us")
LAYERS = {
    "drive-mix": TRACE + (
        "planning.mpc_s", "core.drive_s", "core.loop_self_s", "core.frames",
        "core.degraded_ticks", "core.deadline_misses",
        "perception.frontend_s", "perception.detect_s", "world.generate_s",
        "runtime.arena_reuse_ratio"),
    "fleet-peak": TRACE + (
        "fleet.arrivals_s", "fleet.route_cache_hit_ratio",
        "fleet.route_cache_misses", "fleet.dispatch_s", "fleet.distance_evals",
        "fleet.dispatched", "fleet.fallback_searches", "fleet.requeues",
        "fleet.peak_queue", "fleet.advance_s", "fleet.merge_s"),
    "perception-frame": TRACE + (
        "perception.smooth_s", "perception.pyramid_s", "perception.corners_s",
        "perception.track_s", "perception.depth_s", "perception.corners",
        "perception.track_hit_ratio", "lidar.transform_s", "lidar.voxel_s",
        "lidar.kdtree_s", "lidar.cluster_s", "lidar.voxel_points",
        "lidar.clusters", "runtime.arena_reuse_ratio"),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(LAYERS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        digests = load_json(os.path.join(HERE, "digests.json"))
    except (OSError, ValueError) as e:
        return fail(f"unreadable BENCHMARK.json or digests.json: {e}")

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")
    if built.returncode != 0:
        return fail(f"build failed with exit code {built.returncode}")

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        ran = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"run failed: {e}")
    lines = ran.stdout.splitlines()
    if ran.returncode != 0 or not lines:
        return fail(f"run exited with code {ran.returncode}")
    try:
        outcome = json.loads(lines[-1])
        measured = outcome["metrics"]
        attempted, failed = outcome["attempted"], outcome["failed"]
        digest = outcome["digest"]
    except (ValueError, KeyError, TypeError) as e:
        return fail(f"unreadable harness result: {e}")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    expected = set(LAYERS[args.workload]) if args.trace else names
    if not expected <= names:
        return fail(f"LAYERS names metrics BENCHMARK.json lacks: {sorted(expected - names)}")
    if set(measured) != expected:
        return fail(f"metrics missing: {sorted(expected - set(measured))}, "
                    f"unknown: {sorted(set(measured) - expected)}")
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in measured.values()):
        return fail(f"non-finite metric in {measured}")

    want = digests.get(args.workload, {}).get(str(args.seed))
    if want is not None:
        attempted += 1
        if want != digest:
            failed += 1
            print(f"perfbench: failed: digest {digest} differs from {want} "
                  f"recorded for seed {args.seed} in digests.json", file=sys.stderr)

    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    print(f"digest {args.workload} seed={args.seed} {digest}")
    print(json.dumps({"correct": outcome["correct"] is True and failed == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
