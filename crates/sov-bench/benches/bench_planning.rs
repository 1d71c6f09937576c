//! Criterion benches of the two planners — the measured counterpart of the
//! paper's "EM planner takes 100 ms, 33× more expensive than our planner".

use sov_planning::em::{EmConfig, EmPlanner};
use sov_planning::mpc::{MpcConfig, MpcPlanner};
use sov_planning::{Planner, PlanningInput, PlanningObstacle};
use sov_testkit::bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn busy_input() -> PlanningInput {
    PlanningInput::cruising(5.6, 5.6)
        .with_obstacle(PlanningObstacle {
            station_m: 14.0,
            lateral_m: 0.1,
            speed_along_mps: 2.0,
            radius_m: 0.8,
        })
        .with_obstacle(PlanningObstacle {
            station_m: 24.0,
            lateral_m: -0.8,
            speed_along_mps: 0.0,
            radius_m: 0.3,
        })
        .with_obstacle(PlanningObstacle {
            station_m: 32.0,
            lateral_m: 1.2,
            speed_along_mps: 1.0,
            radius_m: 0.6,
        })
}

fn bench_planners(c: &mut Criterion) {
    let input = busy_input();
    let mut mpc = MpcPlanner::new(MpcConfig::default());
    c.bench_function("planning/mpc_lane_granularity", |b| {
        b.iter(|| black_box(mpc.plan(black_box(&input))));
    });
    let mut em = EmPlanner::new(EmConfig::default());
    let mut group = c.benchmark_group("planning");
    group.sample_size(20);
    group.bench_function("em_dp_plus_qp", |b| {
        b.iter(|| black_box(em.plan(black_box(&input))));
    });
    group.finish();
}

/// The speed QP both planners solve (the EM planner's 50-knot size),
/// built and solved per iteration.
fn bench_qp_solver(c: &mut Criterion) {
    use sov_planning::qp::SpeedQp;
    let refs = vec![5.6; 50];
    let (lo, hi) = (vec![0.0; 50], vec![8.9; 50]);
    c.bench_function("planning/speed_qp_50_knots", |b| {
        b.iter(|| {
            let mut qp = SpeedQp::new(50, 1.0, 4.0);
            black_box(qp.solve(&refs, &lo, &hi, 600, 1e-7).is_ok())
        });
    });
}

criterion_group!(benches, bench_planners, bench_qp_solver);
criterion_main!(benches);
