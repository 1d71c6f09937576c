//! Property-based tests for planning.

use sov_planning::mpc::{MpcConfig, MpcPlanner};
use sov_planning::qp::{speed_tracking_qp, QpProblem, SpeedQp};
use sov_planning::{Planner, PlanningInput, PlanningObstacle};
use sov_testkit::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qp_solution_stays_in_box(
        refs in prop::collection::vec(0.0f64..9.0, 2..30),
        w_a in 0.1f64..10.0,
    ) {
        let (h, g) = speed_tracking_qp(&refs, 1.0, w_a);
        let n = refs.len();
        let lo = vec![0.0; n];
        let hi = vec![8.9; n];
        let qp = QpProblem::new(h, g, lo.clone(), hi.clone()).unwrap();
        let sol = qp.solve(2000, 1e-8).unwrap();
        for (i, x) in sol.x.iter().enumerate() {
            prop_assert!(*x >= lo[i] - 1e-9 && *x <= hi[i] + 1e-9);
        }
        // Objective at the solution is no worse than at the projected refs.
        let clamped: Vec<f64> = refs.iter().map(|r| r.clamp(0.0, 8.9)).collect();
        prop_assert!(sol.objective <= qp.objective(&clamped) + 1e-6);
    }

    #[test]
    fn mpc_commands_respect_actuator_limits(
        speed in 0.0f64..8.9,
        station in 1.0f64..60.0,
        obstacle_speed in 0.0f64..8.0,
    ) {
        let mut planner = MpcPlanner::new(MpcConfig::default());
        let input = PlanningInput::cruising(speed, 5.6).with_obstacle(PlanningObstacle {
            station_m: station,
            lateral_m: 0.0,
            speed_along_mps: obstacle_speed,
            radius_m: 0.5,
        });
        let plan = planner.plan(&input);
        prop_assert!(plan.command.throttle_mps2 >= 0.0);
        prop_assert!(plan.command.throttle_mps2 <= 2.0 + 1e-9);
        prop_assert!(plan.command.brake_mps2 >= 0.0);
        prop_assert!(plan.command.brake_mps2 <= 4.0 + 1e-9);
        prop_assert!(plan.command.yaw_rate_rps.abs() <= 0.6 + 1e-9);
    }

    #[test]
    fn mpc_trajectory_speeds_within_physics(
        speed in 0.0f64..8.9,
        lateral in -1.0f64..1.0,
    ) {
        let mut planner = MpcPlanner::new(MpcConfig::default());
        let input = PlanningInput {
            lateral_offset_m: lateral,
            ..PlanningInput::cruising(speed, 5.6)
        };
        let plan = planner.plan(&input);
        for (k, point) in plan.trajectory.iter().enumerate() {
            let t = point.t_s;
            prop_assert!(point.speed_mps >= -1e-9, "negative speed at {k}");
            prop_assert!(
                point.speed_mps <= speed + 2.0 * t + 1e-6,
                "speed {} unreachable at t={t}",
                point.speed_mps
            );
        }
        // Stations are non-decreasing.
        for w in plan.trajectory.windows(2) {
            prop_assert!(w[1].station_m >= w[0].station_m - 1e-9);
        }
    }

    #[test]
    fn closer_obstacles_never_increase_planned_speed(
        speed in 2.0f64..8.0,
    ) {
        let mut planner = MpcPlanner::new(MpcConfig::default());
        let mut prev_end_speed = f64::INFINITY;
        for station in [40.0, 25.0, 15.0, 9.0] {
            let input = PlanningInput::cruising(speed, 5.6).with_obstacle(PlanningObstacle {
                station_m: station,
                lateral_m: 0.0,
                speed_along_mps: 0.0,
                radius_m: 0.5,
            });
            let plan = planner.plan(&input);
            let end_speed = plan.trajectory.last().unwrap().speed_mps;
            prop_assert!(
                end_speed <= prev_end_speed + 0.3,
                "end speed {end_speed} grew as obstacle closed to {station} m"
            );
            prev_end_speed = end_speed;
        }
    }
}

/// Bit patterns, so that `-0.0 != 0.0` and NaNs compare.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Bits of `flags` as a small selector: `pick(flags, shift, width)` is
/// `(flags >> shift) mod 2^width`.
fn pick(flags: u64, shift: u32, width: u32) -> u64 {
    (flags >> shift) & ((1 << width) - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // `SpeedQp` against the dense `QpProblem` oracle: the same `x`,
    // objective (both to the bit), iteration count, convergence flag and
    // error, on a workspace that has already solved another problem.
    // `flags` switches on the edge cases: all-zero references, zero
    // weights, unbounded knots, pinned knots (`lo == hi`, sometimes at
    // +∞ or −0.0), crossed bounds and NaN bounds.
    #[test]
    fn speed_qp_matches_the_dense_oracle_bit_for_bit(
        (n, flags) in (1usize..61, any::<u64>()),
        (refs, lo, width) in (
            prop::collection::vec(-2.0f64..10.0, 60),
            prop::collection::vec(-1.0f64..5.0, 60),
            prop::collection::vec(0.0f64..8.0, 60),
        ),
        (w_v, w_a) in (0.0f64..5.0, 0.0f64..20.0),
        (max_iters, tol_exp) in (0usize..700, -12.0f64..-3.0),
    ) {
        let mut refs = refs[..n].to_vec();
        let mut lo = lo[..n].to_vec();
        let mut hi: Vec<f64> = lo.iter().zip(&width).map(|(l, w)| l + w).collect();
        let at = pick(flags, 8, 6) as usize % n;
        if pick(flags, 0, 3) == 0 {
            refs.fill(0.0);
        }
        let w_v = if pick(flags, 3, 2) == 0 { 0.0 } else { w_v };
        let w_a = if pick(flags, 5, 2) == 0 { 0.0 } else { w_a };
        if pick(flags, 7, 1) == 0 {
            hi.fill(f64::INFINITY);
        }
        if pick(flags, 14, 2) == 0 {
            lo[at] = match pick(flags, 16, 2) {
                0 => f64::INFINITY,
                1 => -0.0,
                _ => lo[at],
            };
            hi[at] = lo[at];
        }
        if pick(flags, 18, 3) == 0 {
            lo[at] = hi[at] + 1.0;
        }
        if pick(flags, 21, 3) == 0 {
            if pick(flags, 24, 1) == 0 {
                lo[at] = f64::NAN;
            } else {
                hi[at] = f64::NAN;
            }
        }
        let tol = 10f64.powf(tol_exp);

        let (h, g) = speed_tracking_qp(&refs, w_v, w_a);
        let dense = QpProblem::new(h, g, lo.clone(), hi.clone())
            .and_then(|qp| qp.solve(max_iters, tol));
        let mut ws = SpeedQp::new(n, w_v, w_a);
        let other: Vec<f64> = refs.iter().rev().map(|r| r + 1.0).collect();
        let _ = ws.solve(&other, &lo, &hi, max_iters, tol);
        match (dense, ws.solve(&refs, &lo, &hi, max_iters, tol)) {
            (Ok(d), Ok(s)) => {
                prop_assert_eq!(bits(&d.x), bits(ws.x()), "x, n = {}", n);
                prop_assert_eq!(d.objective.to_bits(), s.objective.to_bits());
                prop_assert_eq!(d.iterations, s.iterations);
                prop_assert_eq!(d.converged, s.converged);
            }
            (Err(d), Err(s)) => prop_assert_eq!(d, s),
            (d, s) => panic!("dense {d:?} vs SpeedQp {s:?}"),
        }
    }
}
