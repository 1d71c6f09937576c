//! Property tests for a drive's stage samples: one compute sample per
//! front-end, detector and planner call in `DriveReport::tail` — over
//! seeds, with and without fault injection.
//!
//! A drive runs every stage on the calling thread, so these counts are
//! what can differ from drive to drive; the compute/queue/stall identity
//! of the Fig. 5 replay's samples is checked where its threads run, in
//! `sov-runtime`.

use sov_core::config::VehicleConfig;
use sov_core::sov::{DriveReport, Sov};
use sov_fault::{FaultKind, FaultPlan};
use sov_runtime::pipeline::{PERCEPTION, PLANNING, SENSING};
use sov_sim::time::{SimDuration, SimTime};
use sov_testkit::prelude::*;
use sov_world::scenario::Scenario;

fn secs(s: u64) -> SimTime {
    SimTime::from_millis(s * 1000)
}

/// Camera frames the drive captured and processed: every 30 FPS camera
/// event up to the last control tick (`Camera(3f)` lands just before
/// `Control(f)`), minus those `faults` stalled.
fn processed_camera_frames(report: &DriveReport, faults: &FaultPlan) -> usize {
    let period = SimDuration::from_secs_f64(1.0 / 30.0);
    let mut t = SimTime::ZERO;
    let mut processed = 0;
    for _ in 0..=3 * (report.frames - 1) {
        if !faults.is_active(FaultKind::CameraStall, t) {
            processed += 1;
        }
        t += period;
    }
    processed
}

fn check_samples(report: &DriveReport, faults: &FaultPlan, label: &str) {
    let calls = |stage: usize| report.tail.stage_compute_ms[stage].len();
    assert_eq!(calls(PLANNING), report.frames as usize, "{label}: planner");
    let camera = processed_camera_frames(report, faults);
    assert_eq!(calls(SENSING), camera, "{label}: front-end");
    assert_eq!(calls(PERCEPTION), camera, "{label}: detector");
}

proptest! {
    // Every case is a full closed-loop drive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn every_stage_call_and_planned_frame_is_sampled(seed in 0u64..32) {
        let scenario = Scenario::fishers_indiana(seed);
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), seed);
        let report = sov.drive(&scenario, 120).unwrap();
        prop_assert!(report.frames > 0);
        check_samples(&report, &FaultPlan::nominal(), &format!("seed {seed}"));
    }

    #[test]
    fn samples_hold_under_fault_injection(
        seed in 0u64..32,
        overrun_ms in 50.0f64..350.0,
        stall_s in 1u64..4,
    ) {
        let scenario = Scenario::fishers_indiana(seed);
        // A compute overrun plus a camera stall: skipped front-end and
        // detector calls, deadline misses and degraded ticks.
        let plan = FaultPlan::new(seed ^ 0x1E)
            .with_intensity(FaultKind::StageOverrun, secs(2), secs(8), overrun_ms)
            .with(FaultKind::CameraStall, secs(4), secs(4 + stall_s));
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), seed);
        let report = sov.drive_with_plan(&scenario, 120, &plan).unwrap();
        prop_assert!(report.frames > 0);
        prop_assert!(
            report.mode_ticks[1..].iter().sum::<u64>() > 0,
            "the fault window must produce degraded ticks"
        );
        let label = format!("seed {seed}, overrun {overrun_ms:.0} ms, stall {stall_s} s");
        check_samples(&report, &plan, &label);
    }
}
