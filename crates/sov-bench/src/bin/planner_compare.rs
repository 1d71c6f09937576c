//! Sec. V-C — lane-granularity MPC vs. the EM-style DP+QP planner.
//!
//! Runs both planners on identical scenarios, measures real wall-clock
//! execution time of the Rust implementations, and reports the platform-
//! profile latencies (the paper's 3 ms vs 100 ms, 33×).

use sov_planning::em::{EmConfig, EmPlanner};
use sov_planning::mpc::{MpcConfig, MpcPlanner};
use sov_planning::{Planner, PlanningInput, PlanningObstacle};
use sov_platform::processor::{Platform, Task};

fn scenarios() -> Vec<(&'static str, PlanningInput)> {
    vec![
        ("clear road", PlanningInput::cruising(5.6, 5.6)),
        (
            "static obstacle 12 m",
            PlanningInput::cruising(5.6, 5.6).with_obstacle(PlanningObstacle {
                station_m: 12.0,
                lateral_m: 0.0,
                speed_along_mps: 0.0,
                radius_m: 0.5,
            }),
        ),
        (
            "slow leader + pedestrian",
            PlanningInput::cruising(5.6, 5.6)
                .with_obstacle(PlanningObstacle {
                    station_m: 15.0,
                    lateral_m: 0.2,
                    speed_along_mps: 2.0,
                    radius_m: 0.8,
                })
                .with_obstacle(PlanningObstacle {
                    station_m: 25.0,
                    lateral_m: -1.0,
                    speed_along_mps: 0.0,
                    radius_m: 0.3,
                }),
        ),
    ]
}

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner(
        "Planner comparison",
        "MPC (ours) vs EM-style DP+QP (Sec. V-C)",
    );
    let mut mpc = MpcPlanner::new(MpcConfig::default());
    let mut em = EmPlanner::new(EmConfig::default());
    println!(
        "{:<26} | {:>14} | {:>14} | {:>8}",
        "scenario", "MPC (µs)", "EM (µs)", "ratio"
    );
    println!("{:-<26}-+-{:->14}-+-{:->14}-+-{:->8}", "", "", "", "");
    let mut ratios = Vec::new();
    for (name, input) in scenarios() {
        let mpc_us = sov_bench::time_us(50, || mpc.plan(&input));
        let em_us = sov_bench::time_us(10, || em.plan(&input));
        ratios.push(em_us / mpc_us);
        println!(
            "{name:<26} | {mpc_us:>14.0} | {em_us:>14.0} | {:>8}",
            sov_bench::times(em_us / mpc_us)
        );
    }
    let gm = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    println!(
        "\ngeometric-mean implementation ratio: {}",
        sov_bench::times(gm.exp())
    );
    sov_bench::section("platform-profile latencies (the paper's measurements)");
    let mpc_ms = Task::MpcPlanning
        .profile(Platform::CoffeeLakeCpu)
        .mean_latency_ms();
    let em_ms = Task::EmPlanning
        .profile(Platform::CoffeeLakeCpu)
        .mean_latency_ms();
    println!(
        "  MPC {mpc_ms:.0} ms vs EM {em_ms:.0} ms → {} (paper: 3 ms vs 100 ms, 33×)",
        sov_bench::times(em_ms / mpc_ms)
    );
    println!(
        "  planning is ~1% of the 164 ms end-to-end latency — accelerating it\n\
         would yield marginal benefit (Sec. V-B2)."
    );
}
