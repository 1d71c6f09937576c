//! Property tests for the headline guarantee of the inter-frame pipeline:
//! a pipelined [`Sov::drive`] produces a [`DriveReport`] **byte-identical**
//! to the serial drive for every pipeline depth and worker count — with
//! and without fault injection.
//!
//! The worker axis sweeps every mapping `PerfContext::stage_placement`
//! makes of the drive's three stage nodes onto one sequencer program:
//! `workers >= 4` puts the front-end, detector and planner nodes on
//! lanes, exactly 3 keeps the front-end inline on the sequencer, and
//! `workers <= 2` runs every node inline — the serial schedule.
//!
//! [`DriveReport`]'s `PartialEq` is exact (bitwise on every float), so
//! `prop_assert_eq!` here really is a bit-identity check.

use sov_core::config::VehicleConfig;
use sov_core::sov::Sov;
use sov_fault::{FaultKind, FaultPlan};
use sov_runtime::ledger::TailPolicy;
use sov_runtime::PerfContext;
use sov_sim::time::SimTime;
use sov_testkit::prelude::*;
use sov_world::scenario::Scenario;

fn secs(s: u64) -> SimTime {
    SimTime::from_millis(s * 1000)
}

proptest! {
    // Each case runs two full closed-loop drives; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn drive_is_bit_identical_for_any_depth_and_worker_count(
        seed in 0u64..32,
        depth in 1usize..5,
        workers in 1usize..9,
    ) {
        let scenario = Scenario::fishers_indiana(seed);
        let mut serial = Sov::new(VehicleConfig::perceptin_pod(), seed);
        let reference = serial.drive(&scenario, 120).unwrap();
        let mut piped = Sov::new(VehicleConfig::perceptin_pod(), seed);
        piped.set_perf(PerfContext::with_pipeline_workers(depth, workers));
        let report = piped.drive(&scenario, 120).unwrap();
        prop_assert_eq!(report, reference, "depth {} × workers {}", depth, workers);
    }

    #[test]
    fn faulted_drive_is_bit_identical_for_any_depth_and_worker_count(
        seed in 0u64..32,
        depth in 2usize..5,
        workers in 1usize..9,
        can_rate in 0.0f64..0.5,
        spike_ms in 0.0f64..400.0,
    ) {
        let scenario = Scenario::fishers_indiana(seed);
        // CAN losses and RPR arrival spikes attack the sequencer's commit
        // rules; a camera stall forces a drain-and-serialize round trip —
        // with workers >= 4 that drain must empty the front-end lane
        // before falling back to serial, mid-drive.
        let plan = FaultPlan::new(seed ^ 0xFA)
            .with_intensity(FaultKind::CanFrameLoss, secs(1), secs(9), can_rate)
            .with_intensity(FaultKind::RprDelaySpike, secs(2), secs(8), spike_ms)
            .with(FaultKind::CameraStall, secs(4), secs(6));
        let mut serial = Sov::new(VehicleConfig::perceptin_pod(), seed);
        let reference = serial.drive_with_plan(&scenario, 120, &plan).unwrap();
        let mut piped = Sov::new(VehicleConfig::perceptin_pod(), seed);
        piped.set_perf(PerfContext::with_pipeline_workers(depth, workers));
        let report = piped.drive_with_plan(&scenario, 120, &plan).unwrap();
        prop_assert_eq!(
            report,
            reference,
            "depth {} × workers {} under faults",
            depth,
            workers
        );
    }

    // ---- The tail-policy axis (ISSUE 7). ----
    //
    // Priority draining only *reorders* eager commits the equivalence
    // rules already allow, so a drain-enabled piped drive must stay
    // byte-identical to the *plain serial* drive. Shedding changes which
    // camera frames exist, so a shed drive instead must match the serial
    // drive running the *same* policy — the monitor is fed modeled
    // latencies only, making its verdicts schedule-invariant.

    #[test]
    fn drained_drive_is_bit_identical_to_plain_serial(
        seed in 0u64..32,
        depth in 2usize..5,
        workers in 3usize..9,
        overrun_ms in 100.0f64..400.0,
    ) {
        let scenario = Scenario::fishers_indiana(seed);
        // The overrun pushes predicted latency past the 300 ms deadline
        // so priority drains actually fire inside the window.
        let plan = FaultPlan::new(seed ^ 0xD7)
            .with_intensity(FaultKind::StageOverrun, secs(2), secs(9), overrun_ms)
            .with_intensity(FaultKind::RprDelaySpike, secs(3), secs(7), 120.0);
        let mut serial = Sov::new(VehicleConfig::perceptin_pod(), seed);
        let reference = serial.drive_with_plan(&scenario, 120, &plan).unwrap();
        let mut piped = Sov::new(VehicleConfig::perceptin_pod(), seed);
        piped.set_perf(
            PerfContext::with_pipeline_workers(depth, workers)
                .with_tail_policy(TailPolicy::draining()),
        );
        let report = piped.drive_with_plan(&scenario, 120, &plan).unwrap();
        prop_assert!(
            report.tail.overruns_predicted > 0,
            "the fault window must trip the predictor"
        );
        prop_assert_eq!(
            report,
            reference,
            "draining is output-invariant: depth {} × workers {}",
            depth,
            workers
        );
    }

    #[test]
    fn shed_drive_matches_serial_running_the_same_policy(
        seed in 0u64..32,
        depth in 2usize..5,
        workers in 3usize..9,
    ) {
        let scenario = Scenario::fishers_indiana(seed);
        // 350 ms of overrun lifts predicted latency past the 1.5×
        // escalation threshold, so the shed arm genuinely executes.
        let plan = FaultPlan::new(seed ^ 0x5E)
            .with_intensity(FaultKind::StageOverrun, secs(2), secs(9), 350.0);
        let policy = TailPolicy::draining_and_shedding();
        let mut serial = Sov::new(VehicleConfig::perceptin_pod(), seed);
        serial.set_perf(PerfContext::serial().with_tail_policy(policy));
        let reference = serial.drive_with_plan(&scenario, 120, &plan).unwrap();
        let mut piped = Sov::new(VehicleConfig::perceptin_pod(), seed);
        piped.set_perf(
            PerfContext::with_pipeline_workers(depth, workers).with_tail_policy(policy),
        );
        let report = piped.drive_with_plan(&scenario, 120, &plan).unwrap();
        prop_assert!(report.frames_shed > 0, "escalation must actually shed");
        prop_assert_eq!(
            report,
            reference,
            "shedding is schedule-invariant: depth {} × workers {}",
            depth,
            workers
        );
    }
}
