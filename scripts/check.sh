#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the tier-1 suite.
#
# Everything here runs fully offline — the workspace has no external
# dependencies (see DESIGN.md §3), so `--offline` only asserts that this
# stays true.
#
# `./scripts/check.sh --deep` additionally re-runs the concurrency-core
# unit tests under Miri and ThreadSanitizer where the toolchain supports
# them (each is skipped with a one-line note otherwise).
set -euo pipefail
cd "$(dirname "$0")/.."

DEEP=0
if [ "${1:-}" = "--deep" ]; then
  DEEP=1
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== sov-lint determinism house rules (DESIGN.md 13) =="
cargo run --offline --release -q -p sov-lint

echo "== tier-1: build --release =="
cargo build --offline --workspace --release

echo "== tier-1: test =="
cargo test --offline --workspace -q

echo "== fused score+NMS bit-identity proptest (tile-seam corners vs =="
echo "== the serial score-plane oracle)                             =="
cargo test --offline -q -p sov-perception --lib fused_nms

echo "== speed-QP bitwise oracle proptest (SpeedQp vs the dense   =="
echo "== QpProblem: x and objective bits, iterations, convergence =="
echo "== and errors, zero rows and NaN bounds included)           =="
cargo test --offline -q -p sov-planning --test proptests speed_qp_matches_the_dense_oracle

echo "== fault-window overlap-merge proptests =="
cargo test --offline -q -p sov-fault --test proptests

echo "== scenario-generator regeneration proptests =="
cargo test --offline -q -p sov-world --test proptests

echo "== safety-invariant nominal acceptance (sites + generated) =="
cargo test --offline -q -p sov-core --test safety_invariants

echo "== latency-ledger attribution proptests (spans telescope exactly) =="
cargo test --offline -q -p sov-core --test ledger_attribution

echo "== bounded-schedule model checking of the concurrency core    =="
echo "== (SPSC ring protocol, pool chunk claiming, stage node;     =="
echo "== exhaustive interleavings + seeded-broken-variant checks)   =="
cargo test --offline -q -p sov-runtime --test model_protocols

if [ "$DEEP" -eq 1 ]; then
  echo "== deep: queue/pool unit tests under Miri =="
  # `cargo miri --version` (not `command -v cargo-miri`): rustup installs
  # a proxy shim even when the component itself is absent.
  if cargo miri --version >/dev/null 2>&1; then
    cargo miri test --offline -q -p sov-runtime queue:: pool::
  elif cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test --offline -q -p sov-runtime queue:: pool::
  else
    echo "skip: Miri not installed on this toolchain"
  fi

  echo "== deep: queue/pool unit tests under ThreadSanitizer =="
  if rustc +nightly --version >/dev/null 2>&1 &&
    rustup component list --toolchain nightly 2>/dev/null | grep -q "^rust-src.*(installed)"; then
    RUSTFLAGS="-Z sanitizer=thread" cargo +nightly test --offline -q -Z build-std \
      --target "$(rustc -vV | sed -n 's/host: //p')" -p sov-runtime queue:: pool::
  else
    echo "skip: nightly rust-src (required for -Z sanitizer=thread) not installed"
  fi
fi

echo "== bench bins build + perf_matrix smoke (every cell's checksum must =="
echo "== equal the committed BENCH_perf.json digest; the per-frame fold   =="
echo "== does not depend on the frame count)                             =="
cargo build --offline --release -p sov-bench --bins
perf_json="$(mktemp)"
pipeline_json="$(mktemp)"
fault_json="$(mktemp)"
scenario_json="$(mktemp)"
trap 'rm -f "$perf_json" "$pipeline_json" "$fault_json" "$scenario_json"' EXIT
./target/release/perf_matrix --smoke --json "$perf_json"
checksums() { grep -o '"checksum": "[0-9a-f]*"' "$1" | sort -u; }
committed="$(checksums BENCH_perf.json)"
fresh="$(checksums "$perf_json")"
if [ "$(printf '%s\n' "$committed" | wc -l)" -ne 1 ] || [ "$fresh" != "$committed" ]; then
  echo "perf digest gate: fresh ${fresh:-<none>} != committed ${committed:-<none>} (BENCH_perf.json)"
  exit 1
fi
echo "perf digest gate: every cell prints the committed ${committed#*: }"

echo "== pipeline_matrix, full matrix (every stage placement + tail gate; =="
echo "== exits non-zero on checksum mismatch, an idle lane in the d3 w4   =="
echo "== drive cell, or — on hosts with >= 3 cores — a drained p99.9 that =="
echo "== fails to beat the undrained drive); then every drive/tail-cell   =="
echo "== report_digest and replay checksum must equal BENCH_pipeline.json =="
if [ "$(nproc 2>/dev/null || echo 0)" -lt 3 ]; then
  echo "warning: host has < 3 cores — pipeline_matrix tail gate is informational only"
fi
./target/release/pipeline_matrix --json "$pipeline_json"
digests() { grep -o '"\(report_digest\|checksum\)": "[0-9a-f]*"' "$1"; }
if ! diff <(digests BENCH_pipeline.json) <(digests "$pipeline_json"); then
  echo "pipeline digest gate: fresh digests differ from BENCH_pipeline.json (above)"
  exit 1
fi
echo "pipeline digest gate: $(digests "$pipeline_json" | wc -l) digests equal BENCH_pipeline.json"

echo "== fault_matrix (22 fault runs, each re-driven piped at d3 w4; every =="
echo "== run's fields other than the wall-clock attribution must equal    =="
echo "== BENCH_fault.json)                                                =="
./target/release/fault_matrix --json "$fault_json"
# One run per line; the attribution object closes each line.
runs() { grep '"scenario"' "$1" | sed 's/, "attribution": .*$//'; }
if [ "$(runs BENCH_fault.json | wc -l)" -eq 0 ] || ! diff <(runs BENCH_fault.json) <(runs "$fault_json"); then
  echo "fault digest gate: fresh runs differ from BENCH_fault.json (above)"
  exit 1
fi
echo "fault digest gate: $(runs "$fault_json" | wc -l) runs equal BENCH_fault.json"

echo "== scenario_matrix smoke (generated scenarios × faults, safety =="
echo "== invariants per frame; proves worker-lane JSON invariance)   =="
./target/release/scenario_matrix --smoke --workers 3

echo "== scenario_matrix, full matrix (its JSON has no wall-clock field, =="
echo "== so it must be byte-identical to BENCH_scenarios.json)          =="
./target/release/scenario_matrix --json "$scenario_json"
if ! cmp "$scenario_json" BENCH_scenarios.json; then
  echo "scenario digest gate: fresh output differs from BENCH_scenarios.json"
  exit 1
fi
echo "scenario digest gate: output equals BENCH_scenarios.json byte for byte"

echo "== fleet determinism proptests (byte-identity across workers × =="
echo "== shard sizes × fault injection; allocation-free steady state) =="
cargo test --offline -q -p sov-fleet --test proptests

echo "== fleet dispatch-equivalence proptest (indexed + sharded vs the =="
echo "== serial linear scan across workers × dispatch shards × route-  =="
echo "== cache capacities × index cell sizes × stall requeues)         =="
cargo test --offline -q -p sov-fleet --test proptests dispatch_equivalence

echo "== fleet_matrix smoke (ride serving with the spatial index on: one =="
echo "== linear reference cell + the indexed worker sweep; exits non-    =="
echo "== zero on any report diverging from the reference, work counters  =="
echo "== that see the pool, or an eval reduction below 2x)               =="
if [ "$(nproc 2>/dev/null || echo 0)" -lt 3 ]; then
  echo "warning: host has < 3 cores — fleet_matrix throughput gate is informational only"
fi
./target/release/fleet_matrix --smoke

echo "== fleet_matrix smoke, index off (pure linear-scan sweep: the =="
echo "== sharded advance must stay byte-identical without the index) =="
./target/release/fleet_matrix --smoke --dispatch linear

echo "== perfbench digest gate (each workload at seed 42, shortest run; =="
echo "== its result line must read \"correct\": true, which needs the =="
echo "== output checks and the perfbench/digests.json digest to match)  =="
for workload in drive-mix fleet-peak perception-frame; do
  result="$(python3 perfbench/run.py --workload "$workload" --seed 42 --seconds 0 --trace 0 | tail -n 1)"
  case "$result" in
    *'"correct": true'*) echo "perfbench $workload: correct, digest matched" ;;
    *)
      echo "perfbench $workload: not correct: $result"
      exit 1
      ;;
  esac
done

echo "All checks passed."
