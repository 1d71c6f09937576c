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
#
# Each stage prints its banner and, when the next one starts, its own
# wall time; the last line carries the total.
set -euo pipefail
cd "$(dirname "$0")/.."

DEEP=0
if [ "${1:-}" = "--deep" ]; then
  DEEP=1
fi

now_us() { echo "${EPOCHREALTIME/[.,]/}"; }
# Seconds since the microsecond stamp $1, to one decimal.
seconds_since() {
  local us=$(($(now_us) - $1))
  printf '%d.%d' $((us / 1000000)) $((us / 100000 % 10))
}
checks_started="$(now_us)"
stage_started=""
stage_name=""
# `stage TITLE [LINE...]` closes the running stage, printing its title
# and wall time, and opens the next one, printing TITLE and each LINE as
# its banner; `stage` with no argument only closes.
stage() {
  if [ -n "$stage_started" ]; then
    echo "-- ${stage_name}: $(seconds_since "$stage_started") s"
  fi
  stage_name="${1:-}"
  stage_started="$(now_us)"
  local line
  for line in "$@"; do
    echo "== $line =="
  done
}

stage "cargo fmt --check"
cargo fmt --all --check

stage "cargo clippy (-D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

stage "sov-lint determinism house rules (DESIGN.md 13)"
cargo run --offline --release -q -p sov-lint

stage "tier-1: build --release"
cargo build --offline --workspace --release

# The workspace suite runs every oracle and proptest once, among them:
# - sov-perception: `fused_nms_bit_identical_across_tile_seams` (fused
#   score+NMS, tile-seam corners vs the serial score-plane oracle) and the
#   `bitwise_oracle_*` tests: `correlate_run_equals_per_candidate_ncc`
#   (lane-block NCC), `tracker_equals_naive_argmax` (patch-NCC argmax),
#   `mask_scorer_equals_fast_score` and `row_scores_equal_fast_score_on_scenes`
#   (FAST masks vs the per-pixel fast_score), `sad_blocks_equal_the_get_loop`
#   and `disparity_plane_equals_the_get_loop_matcher` (the whole plane,
#   serial and pooled);
# - sov-lidar `bitwise_oracle_*`: `selection_build_equals_stable_sort`
#   and `selection_build_handles_small_and_signed_zero_clouds` (serial and
#   pooled), `grid_lists_equal_radius_search` and
#   `grid_lists_on_degenerate_grids` (in order),
#   `build_rejects_a_nan_coordinate`;
# - sov-planning `speed_qp_matches_the_dense_oracle_bit_for_bit` (SpeedQp vs
#   the dense QpProblem: x and objective bits, iterations, convergence and
#   errors, zero rows and NaN bounds included);
# - the sov-fault (fault-window overlap merge) and sov-world
#   (scenario-generator regeneration) proptests;
# - sov-core `safety_invariants` (nominal acceptance, sites + generated)
#   and `stage_samples` (one compute sample per front-end, detector and
#   planner call, nominal and faulted);
# - sov-runtime `model_protocols` (bounded-schedule model checking of the
#   pool's chunk claiming and completion barrier: exhaustive
#   interleavings + seeded-broken-variant checks);
# - the sov-fleet proptests (byte identity across workers × fleet sizes ×
#   fault injection; allocation-free steady state), with
#   `dispatch_equivalence_across_modes_workers_and_block_sizes` (indexed +
#   sharded vs the serial linear scan across workers × fleet sizes ×
#   block lengths × stall requeues).
stage "tier-1: test"
cargo test --offline --workspace -q

if [ "$DEEP" -eq 1 ]; then
  stage "deep: pool unit tests under Miri"
  # `cargo miri --version` (not `command -v cargo-miri`): rustup installs
  # a proxy shim even when the component itself is absent.
  if cargo miri --version >/dev/null 2>&1; then
    cargo miri test --offline -q -p sov-runtime pool::
  elif cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test --offline -q -p sov-runtime pool::
  else
    echo "skip: Miri not installed on this toolchain"
  fi

  stage "deep: pool unit tests under ThreadSanitizer"
  if rustc +nightly --version >/dev/null 2>&1 &&
    rustup component list --toolchain nightly 2>/dev/null | grep -q "^rust-src.*(installed)"; then
    RUSTFLAGS="-Z sanitizer=thread" cargo +nightly test --offline -q -Z build-std \
      --target "$(rustc -vV | sed -n 's/host: //p')" -p sov-runtime pool::
  else
    echo "skip: nightly rust-src (required for -Z sanitizer=thread) not installed"
  fi
fi

stage "bench bins build + perf_matrix smoke" \
  "(8 cells, workers x layout, all on the shipped kernels: every" \
  "cell's checksum must equal the committed BENCH_perf.json digest;" \
  "the per-frame fold does not depend on the frame count)"
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

stage "pipeline_matrix, full matrix" \
  "(4 Fig. 5 replay cells, depths 1-4, + analytic model; exits" \
  "non-zero on a checksum mismatch or a depth-3 replay speedup below" \
  "1.5x); then every replay checksum must equal BENCH_pipeline.json"
./target/release/pipeline_matrix --json "$pipeline_json"
checksums_in_order() { grep -o '"checksum": "[0-9a-f]*"' "$1"; }
if [ "$(checksums_in_order BENCH_pipeline.json | wc -l)" -eq 0 ] ||
  ! diff <(checksums_in_order BENCH_pipeline.json) <(checksums_in_order "$pipeline_json"); then
  echo "pipeline digest gate: fresh checksums differ from BENCH_pipeline.json (above)"
  exit 1
fi
echo "pipeline digest gate: $(checksums_in_order "$pipeline_json" | wc -l) checksums equal BENCH_pipeline.json"

stage "fault_matrix" \
  "(22 fault runs; its JSON has no wall-clock field, so it must be" \
  "byte-identical to BENCH_fault.json)"
./target/release/fault_matrix --json "$fault_json"
if ! cmp "$fault_json" BENCH_fault.json; then
  echo "fault digest gate: fresh output differs from BENCH_fault.json"
  exit 1
fi
echo "fault digest gate: output equals BENCH_fault.json byte for byte"

stage "scenario_matrix smoke" \
  "(generated scenarios × faults, safety invariants per frame;" \
  "proves worker-lane JSON invariance)"
./target/release/scenario_matrix --smoke --workers 3

stage "scenario_matrix, full matrix" \
  "(its JSON has no wall-clock field, so it must be byte-identical" \
  "to BENCH_scenarios.json)"
./target/release/scenario_matrix --json "$scenario_json"
if ! cmp "$scenario_json" BENCH_scenarios.json; then
  echo "scenario digest gate: fresh output differs from BENCH_scenarios.json"
  exit 1
fi
echo "scenario digest gate: output equals BENCH_scenarios.json byte for byte"

stage "fleet_matrix smoke" \
  "(ride serving with the spatial index on: one linear reference" \
  "cell + the indexed worker sweep; exits non-zero on any report" \
  "diverging from the reference, work counters that see the pool, or" \
  "an eval reduction below 2x; then it must print the smoke_checksum" \
  "committed in BENCH_fleet.json)"
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

stage "fleet_matrix smoke, index off" \
  "(pure linear-scan sweep: the sharded advance must stay" \
  "byte-identical without the index, and print the same committed" \
  "checksum)"
fleet_smoke --dispatch linear

stage "perfbench digest gate" \
  "(each workload at seed 42, shortest run; its result line must" \
  "read \"correct\": true, which needs the output checks and the" \
  "perfbench/digests.json digest to match)"
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

stage
echo "All checks passed. Total: $(seconds_since "$checks_started") s"
