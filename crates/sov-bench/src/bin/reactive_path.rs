//! Sec. IV / Sec. V-C — the proactive/reactive hybrid in closed loop.
//!
//! Drives the full SoV through scenarios with and without a suddenly-
//! appearing obstacle and reports the reactive path's engagements, the
//! proactive-time fraction, and the latency-derived avoidance envelopes.

use sov_core::config::VehicleConfig;
use sov_core::sov::Sov;
use sov_math::Pose2;
use sov_sim::time::SimTime;
use sov_vehicle::dynamics::LatencyBudget;
use sov_world::obstacle::{Obstacle, ObstacleClass, ObstacleId};
use sov_world::scenario::Scenario;

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Reactive path", "Proactive/reactive hybrid (Sec. IV)");
    let seed = sov_bench::seed_from_args();
    let budget = LatencyBudget::perceptin_defaults();
    println!("latency envelopes (Eq. 1):");
    println!(
        "  proactive best-case (149 ms): avoid ≥ {:.1} m",
        budget.min_avoidable_distance_m(0.149)
    );
    println!(
        "  reactive path (30 ms):        avoid ≥ {:.1} m (braking limit {:.1} m)",
        budget.min_avoidable_distance_m(0.030),
        budget.braking_distance_m()
    );

    sov_bench::section("closed loop: nominal deployment scenario");
    let scenario = Scenario::fishers_indiana(seed);
    let mut sov = Sov::new(VehicleConfig::perceptin_pod(), seed);
    let report = sov.drive(&scenario, 400).expect("frames > 0");
    println!(
        "  outcome {:?}, distance {:.0} m, overrides {}, proactive {:.1}% (paper: >90%)",
        report.outcome,
        report.distance_m,
        report.override_engagements,
        report.proactive_fraction() * 100.0
    );

    sov_bench::section("closed loop: pedestrian steps out 8 m ahead");
    let mut scenario = Scenario::fishers_indiana(seed);
    scenario.world.obstacles = vec![Obstacle::fixed(
        ObstacleId(0),
        ObstacleClass::Pedestrian,
        Pose2::new(16.0, 0.3, 0.0),
        SimTime::from_millis(3_000),
    )
    .until(SimTime::from_millis(6_000))];
    let mut sov = Sov::new(VehicleConfig::perceptin_pod(), seed);
    let report = sov.drive(&scenario, 300).expect("frames > 0");
    println!(
        "  outcome {:?}, min gap {:.2} m, overrides {}, proactive {:.1}%",
        report.outcome,
        report.min_obstacle_gap_m,
        report.override_engagements,
        report.proactive_fraction() * 100.0
    );
    println!("\n  the reactive path stops the vehicle that the proactive path could not.");
}
