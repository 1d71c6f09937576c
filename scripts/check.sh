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

echo "== perception kernel bitwise oracles (lane-block NCC vs per-candidate =="
echo "== correlate; tracker vs a naive patch-NCC argmax; FAST masks vs the  =="
echo "== per-pixel fast_score; SAD lane blocks vs the get() loop; the whole =="
echo "== disparity plane, serial and pooled, vs the get() loop matcher)     =="
cargo test --offline -q -p sov-perception --lib bitwise_oracle

echo "== LiDAR bitwise oracles (selection-built kd-tree vs the stable-sort =="
echo "== build, serial and pooled; grid neighbour lists vs radius_search, =="
echo "== in order; a NaN coordinate panics)                               =="
cargo test --offline -q -p sov-lidar bitwise_oracle

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

echo "== latency-ledger sample proptests (one sample per stage call and =="
echo "== per planned frame; degraded samples under a fault window)     =="
cargo test --offline -q -p sov-core --test ledger_attribution

echo "== bounded-schedule model checking of the concurrency core    =="
echo "== (the pool's chunk claiming and completion barrier;         =="
echo "== exhaustive interleavings + seeded-broken-variant checks)   =="
cargo test --offline -q -p sov-runtime --test model_protocols

if [ "$DEEP" -eq 1 ]; then
  echo "== deep: pool unit tests under Miri =="
  # `cargo miri --version` (not `command -v cargo-miri`): rustup installs
  # a proxy shim even when the component itself is absent.
  if cargo miri --version >/dev/null 2>&1; then
    cargo miri test --offline -q -p sov-runtime pool::
  elif cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test --offline -q -p sov-runtime pool::
  else
    echo "skip: Miri not installed on this toolchain"
  fi

  echo "== deep: pool unit tests under ThreadSanitizer =="
  if rustc +nightly --version >/dev/null 2>&1 &&
    rustup component list --toolchain nightly 2>/dev/null | grep -q "^rust-src.*(installed)"; then
    RUSTFLAGS="-Z sanitizer=thread" cargo +nightly test --offline -q -Z build-std \
      --target "$(rustc -vV | sed -n 's/host: //p')" -p sov-runtime pool::
  else
    echo "skip: nightly rust-src (required for -Z sanitizer=thread) not installed"
  fi
fi

echo "== bench bins build + perf_matrix smoke (8 cells, workers x layout, =="
echo "== all on the shipped kernels: every cell's checksum must equal the =="
echo "== committed BENCH_perf.json digest; the per-frame fold does not    =="
echo "== depend on the frame count)                                       =="
cargo build --offline --release -p sov-bench --bins
perf_json="$(mktemp)"
pipeline_json="$(mktemp)"
fault_json="$(mktemp)"
scenario_json="$(mktemp)"
fleet_out="$(mktemp)"
trap 'rm -f "$perf_json" "$pipeline_json" "$fault_json" "$scenario_json" "$fleet_out"' EXIT
./target/release/perf_matrix --smoke --json "$perf_json"
checksums() { grep -o '"checksum": "[0-9a-f]*"' "$1" | sort -u; }
committed="$(checksums BENCH_perf.json)"
fresh="$(checksums "$perf_json")"
if [ "$(printf '%s\n' "$committed" | wc -l)" -ne 1 ] || [ "$fresh" != "$committed" ]; then
  echo "perf digest gate: fresh ${fresh:-<none>} != committed ${committed:-<none>} (BENCH_perf.json)"
  exit 1
fi
echo "perf digest gate: every cell prints the committed ${committed#*: }"

echo "== pipeline_matrix, full matrix (4 Fig. 5 replay cells, depths =="
echo "== 1-4, + analytic model; exits non-zero on a checksum mismatch  =="
echo "== or a depth-3 replay speedup below 1.5x); then every replay    =="
echo "== checksum must equal BENCH_pipeline.json                       =="
./target/release/pipeline_matrix --json "$pipeline_json"
checksums_in_order() { grep -o '"checksum": "[0-9a-f]*"' "$1"; }
if [ "$(checksums_in_order BENCH_pipeline.json | wc -l)" -eq 0 ] ||
  ! diff <(checksums_in_order BENCH_pipeline.json) <(checksums_in_order "$pipeline_json"); then
  echo "pipeline digest gate: fresh checksums differ from BENCH_pipeline.json (above)"
  exit 1
fi
echo "pipeline digest gate: $(checksums_in_order "$pipeline_json" | wc -l) checksums equal BENCH_pipeline.json"

echo "== fault_matrix (22 fault runs; its JSON has no wall-clock field, =="
echo "== so it must be byte-identical to BENCH_fault.json)              =="
./target/release/fault_matrix --json "$fault_json"
if ! cmp "$fault_json" BENCH_fault.json; then
  echo "fault digest gate: fresh output differs from BENCH_fault.json"
  exit 1
fi
echo "fault digest gate: output equals BENCH_fault.json byte for byte"

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
echo "== fleet sizes × fault injection; allocation-free steady state) =="
cargo test --offline -q -p sov-fleet --test proptests

echo "== fleet dispatch-equivalence proptest (indexed + sharded vs the =="
echo "== serial linear scan across workers × fleet sizes × block      =="
echo "== lengths × stall requeues)                                    =="
cargo test --offline -q -p sov-fleet --test proptests dispatch_equivalence

echo "== fleet_matrix smoke (ride serving with the spatial index on: one =="
echo "== linear reference cell + the indexed worker sweep; exits non-    =="
echo "== zero on any report diverging from the reference, work counters  =="
echo "== that see the pool, or an eval reduction below 2x; then it must  =="
echo "== print the smoke_checksum committed in BENCH_fleet.json)         =="
if [ "$(nproc 2>/dev/null || echo 0)" -lt 3 ]; then
  echo "warning: host has < 3 cores — fleet_matrix throughput gate is informational only"
fi
fleet_checksum="$(grep -o '"smoke_checksum": "[0-9a-f]*"' BENCH_fleet.json | grep -o '[0-9a-f]\{16\}' || true)"
if [ -z "$fleet_checksum" ]; then
  echo "fleet digest gate: BENCH_fleet.json has no smoke_checksum"
  exit 1
fi
fleet_smoke() {
  ./target/release/fleet_matrix --smoke "$@" | tee "$fleet_out"
  if ! grep -q "checksum $fleet_checksum" "$fleet_out"; then
    echo "fleet digest gate: smoke run did not print the committed checksum $fleet_checksum (BENCH_fleet.json)"
    exit 1
  fi
  echo "fleet digest gate: smoke run printed the committed checksum $fleet_checksum"
}
fleet_smoke

echo "== fleet_matrix smoke, index off (pure linear-scan sweep: the =="
echo "== sharded advance must stay byte-identical without the index, =="
echo "== and print the same committed checksum)                      =="
fleet_smoke --dispatch linear

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
