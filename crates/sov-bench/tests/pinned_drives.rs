//! Byte gates on three serial drives of `Scenario::fishers_indiana(42)`,
//! 200 frames each: nominal, under RPR delay spikes, and under a stage
//! overrun with adaptive shedding on. The shed drive is the only committed
//! gate on the shedding path's output. Each gate also pins how many
//! control frames the deadline monitor predicted to overrun.

use sov_bench::digest_report;
use sov_core::config::VehicleConfig;
use sov_core::sov::{DriveReport, Sov};
use sov_fault::{FaultKind, FaultPlan};
use sov_runtime::PerfContext;
use sov_sim::time::SimTime;
use sov_world::scenario::Scenario;

const SEED: u64 = 42;
const FRAMES: u64 = 200;

/// A 2–14 s window of `kind` at `intensity`.
fn plan(kind: FaultKind, intensity: f64) -> FaultPlan {
    let secs = |s: u64| SimTime::from_millis(s * 1000);
    FaultPlan::new(SEED ^ 0x7A11).with_intensity(kind, secs(2), secs(14), intensity)
}

fn drive(shed: bool, faults: &FaultPlan) -> DriveReport {
    let mut sov = Sov::new(VehicleConfig::perceptin_pod(), SEED);
    sov.set_perf(PerfContext {
        shed,
        ..PerfContext::default()
    });
    sov.drive_with_plan(&Scenario::fishers_indiana(SEED), FRAMES, faults)
        .expect("a 200-frame drive is valid")
}

fn hex(r: &DriveReport) -> String {
    format!("{:016x}", digest_report(r))
}

#[test]
fn nominal_drive_digest_is_pinned() {
    let r = drive(false, &FaultPlan::nominal());
    assert_eq!(hex(&r), "1e7a21b13b1eab88");
    // The nominal profile's draws cross the predictor's bound now and then.
    assert_eq!(r.tail.overruns_predicted, 2);
}

#[test]
fn rpr_spike_drive_digest_is_pinned() {
    let r = drive(false, &plan(FaultKind::RprDelaySpike, 280.0));
    assert_eq!(hex(&r), "42d80882b843a1cb");
    assert_eq!(r.tail.overruns_predicted, 128);
}

#[test]
fn shed_drive_digest_is_pinned() {
    let r = drive(true, &plan(FaultKind::StageOverrun, 350.0));
    assert!(r.frames_shed > 0, "the overrun must trip shedding");
    assert_eq!(r.frames_shed, 381);
    assert_eq!(hex(&r), "c8208f271797ffb3");
    assert_eq!(r.tail.overruns_predicted, 133);
}
