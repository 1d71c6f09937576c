//! Property tests for the latency ledger's accounting invariant: every
//! sampled span telescopes exactly into compute + ring-queue wait +
//! drain/barrier stall. `TailReport::collect` already folds the worst
//! per-sample residual into `max_residual_ns`, so one gate per drive
//! covers every stage sample and every end-to-end frame sample.
//!
//! The sweep covers depths 1–4 × workers 0–8 — every mapping of the
//! drive's three stage nodes onto lanes, including the depth-2 /
//! workers-0 pathology cell, which must run every node inline — with and
//! without fault injection. Each node stamps its own samples. Serial-
//! effective drives additionally must attribute **zero** queue and stall
//! time: inline nodes run on the sequencer at dispatch, so any nonzero
//! wait there is an accounting bug, not a scheduling fact.

use sov_core::config::VehicleConfig;
use sov_core::sov::{DriveReport, Sov};
use sov_fault::{FaultKind, FaultPlan};
use sov_runtime::PerfContext;
use sov_sim::time::SimTime;
use sov_testkit::prelude::*;
use sov_world::scenario::Scenario;

fn secs(s: u64) -> SimTime {
    SimTime::from_millis(s * 1000)
}

/// Stamps are monotonic `Instant`s taken in order, so the telescoping
/// sum is exact by construction; the tolerance only allows for clock
/// granularity on coarse-timer hosts.
const RESIDUAL_TOLERANCE_NS: u64 = 1_000;

fn check_attribution(report: &DriveReport, serial_effective: bool, label: &str) {
    let tail = &report.tail;
    assert_eq!(
        tail.frames, report.frames,
        "{label}: every planned frame gets exactly one end-to-end sample"
    );
    assert_eq!(tail.total_ms.len(), report.frames as usize, "{label}");
    assert!(
        tail.max_residual_ns <= RESIDUAL_TOLERANCE_NS,
        "{label}: worst residual {} ns exceeds a timer tick",
        tail.max_residual_ns
    );
    if serial_effective {
        assert_eq!(
            tail.queue_ms.max().max(tail.stall_ms.max()),
            0.0,
            "{label}: serial stages abut — queue/stall must be zero"
        );
        for s in 0..tail.stage_queue_ms.len() {
            assert_eq!(
                tail.stage_queue_ms[s]
                    .max()
                    .max(tail.stage_stall_ms[s].max()),
                0.0,
                "{label}: stage {s} queue/stall on the serial schedule"
            );
        }
    }
}

proptest! {
    // Every case is a full closed-loop drive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn components_sum_to_measured_latency_for_any_cell(
        seed in 0u64..32,
        depth in 1usize..5,
        workers in 0usize..9,
    ) {
        let scenario = Scenario::fishers_indiana(seed);
        let perf = PerfContext::with_pipeline_workers(depth, workers);
        let serial_effective = perf.effective_pipeline_depth() == 1;
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), seed);
        sov.set_perf(perf);
        let report = sov.drive(&scenario, 120).unwrap();
        prop_assert!(report.frames > 0);
        let label = format!("depth {depth} × workers {workers}");
        check_attribution(&report, serial_effective, &label);
    }

    #[test]
    fn components_sum_under_fault_injection(
        seed in 0u64..32,
        depth in 1usize..5,
        workers in 0usize..9,
        overrun_ms in 50.0f64..350.0,
    ) {
        let scenario = Scenario::fishers_indiana(seed);
        // A compute overrun plus a camera stall exercises the degraded
        // and drain-and-serialize paths of the ledger: inline samples,
        // barrier stalls, and mid-drive schedule switches.
        let plan = FaultPlan::new(seed ^ 0x1E)
            .with_intensity(FaultKind::StageOverrun, secs(2), secs(8), overrun_ms)
            .with(FaultKind::CameraStall, secs(4), secs(6));
        let perf = PerfContext::with_pipeline_workers(depth, workers);
        let serial_effective = perf.effective_pipeline_depth() == 1;
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), seed);
        sov.set_perf(perf);
        let report = sov.drive_with_plan(&scenario, 120, &plan).unwrap();
        prop_assert!(report.frames > 0);
        prop_assert!(
            !report.tail.degraded_total_ms.is_empty(),
            "the fault window must produce degraded-frame samples"
        );
        let label = format!("depth {depth} × workers {workers} faulted");
        check_attribution(&report, serial_effective, &label);
    }
}
