//! The EM-style motion planner baseline (Sec. V-C).
//!
//! The paper measures the Baidu Apollo **EM motion planner** — whose motion
//! plan "is generated through a combination of Quadratic Programming (QP)
//! and Dynamic Programming (DP)" — at ~100 ms on their platform, 33× their
//! own planner. This module implements the same structure at
//! centimeter-ish granularity:
//!
//! 1. **Path DP**: dynamic programming over a station × lateral lattice,
//!    trading off obstacle clearance, lane centering and smoothness.
//! 2. **Speed QP**: a fine-grained quadratic program smoothing the speed
//!    profile along the chosen path under stop constraints, re-solved over
//!    several refinement iterations (as the EM planner alternates E/M
//!    steps).
//!
//! It produces the same [`Plan`] type as the MPC planner so the two can be
//! compared head-to-head on the same scenarios (the `planner_compare`
//! and `measured_tasks` experiments).

use crate::qp::SpeedQp;
use crate::{LaneDecision, Plan, Planner, PlanningInput, TrajectoryPoint};
use sov_vehicle::dynamics::ControlCommand;

/// EM planner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmConfig {
    /// Lattice stations (count).
    pub num_stations: usize,
    /// Station step (m).
    pub station_step_m: f64,
    /// Lateral samples per station (odd; spans ±`lateral_span_m`).
    pub num_laterals: usize,
    /// Half-width of the lateral lattice (m).
    pub lateral_span_m: f64,
    /// Speed-profile knots.
    pub speed_knots: usize,
    /// Speed-knot duration (s).
    pub speed_dt_s: f64,
    /// E/M refinement iterations.
    pub refinement_iters: usize,
    /// Ego footprint radius (m).
    pub ego_radius_m: f64,
    /// Maximum deceleration (m/s²).
    pub max_decel: f64,
    /// Maximum acceleration (m/s²).
    pub max_accel: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            num_stations: 20,
            station_step_m: 2.0,
            num_laterals: 9,
            lateral_span_m: 2.0,
            speed_knots: 50,
            speed_dt_s: 0.1,
            refinement_iters: 3,
            ego_radius_m: 0.8,
            max_decel: 4.0,
            max_accel: 2.0,
        }
    }
}

/// The EM-style planner.
#[derive(Debug, Clone)]
pub struct EmPlanner {
    config: EmConfig,
    /// The speed QP over `speed_knots`, and the per-refinement speed
    /// references and per-plan reachability bounds it solves for.
    qp: SpeedQp,
    refs: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

/// Planners are equal when they are configured alike: the rest is a workspace
/// that every [`Planner::plan`] call overwrites before reading.
impl PartialEq for EmPlanner {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
    }
}

impl EmPlanner {
    /// Creates a planner.
    #[must_use]
    pub fn new(config: EmConfig) -> Self {
        let n = config.speed_knots;
        Self {
            config,
            // Speed-tracking weight 1, smoothness weight 4.
            qp: SpeedQp::new(n, 1.0, 4.0),
            refs: Vec::with_capacity(n),
            lo: vec![0.0; n],
            hi: vec![0.0; n],
        }
    }

    fn lateral_of(&self, index: usize) -> f64 {
        let cfg = &self.config;
        let half = (cfg.num_laterals / 2) as f64;
        (index as f64 - half) * cfg.lateral_span_m / half.max(1.0)
    }

    /// Obstacle cost of occupying `(station, lateral)`.
    fn obstacle_cost(&self, input: &PlanningInput, station: f64, lateral: f64) -> f64 {
        let mut cost = 0.0;
        for o in &input.obstacles {
            let ds = station - o.station_m;
            let dl = lateral - o.lateral_m;
            let dist = (ds * ds + dl * dl).sqrt();
            let clearance = self.config.ego_radius_m + o.radius_m + 0.3;
            if dist < clearance {
                cost += 1e4; // hard collision
            } else {
                cost += (clearance / dist).powi(2) * 10.0;
            }
        }
        cost
    }

    /// Phase 1: DP over the station × lateral lattice. Returns the chosen
    /// lateral offset per station.
    #[allow(clippy::needless_range_loop)] // lattice indices feed lateral_of(l)
    fn path_dp(&self, input: &PlanningInput) -> Vec<f64> {
        let cfg = &self.config;
        let (s_n, l_n) = (cfg.num_stations, cfg.num_laterals);
        // cost[s][l], parent[s][l].
        let mut cost = vec![vec![f64::INFINITY; l_n]; s_n];
        let mut parent = vec![vec![0usize; l_n]; s_n];
        for l in 0..l_n {
            let lat = self.lateral_of(l);
            let centering = (lat - input.lateral_offset_m).powi(2);
            cost[0][l] = self.obstacle_cost(input, cfg.station_step_m, lat)
                + lat * lat * 0.5
                + centering * 4.0;
        }
        for s in 1..s_n {
            let station = (s + 1) as f64 * cfg.station_step_m;
            for l in 0..l_n {
                let lat = self.lateral_of(l);
                let node_cost = self.obstacle_cost(input, station, lat) + lat * lat * 0.5;
                for lp in 0..l_n {
                    let lat_prev = self.lateral_of(lp);
                    let smooth = (lat - lat_prev).powi(2) * 8.0;
                    let total = cost[s - 1][lp] + node_cost + smooth;
                    if total < cost[s][l] {
                        cost[s][l] = total;
                        parent[s][l] = lp;
                    }
                }
            }
        }
        // Backtrack from the cheapest terminal node.
        let mut l = (0..l_n)
            .min_by(|&a, &b| {
                cost[s_n - 1][a]
                    .partial_cmp(&cost[s_n - 1][b])
                    .expect("finite")
            })
            .expect("non-empty lattice");
        let mut path = vec![0.0; s_n];
        for s in (0..s_n).rev() {
            path[s] = self.lateral_of(l);
            l = parent[s][l];
        }
        path
    }

    /// Phase 2: speed QP along the chosen path.
    fn speed_qp(&mut self, input: &PlanningInput, path: &[f64]) -> Vec<f64> {
        let cfg = self.config;
        // Stop distance: first station whose path cell is still blocked.
        let mut stop_station = f64::INFINITY;
        for (s, &lat) in path.iter().enumerate() {
            let station = (s + 1) as f64 * cfg.station_step_m;
            if self.obstacle_cost(input, station, lat) >= 1e4 {
                stop_station = station - cfg.station_step_m;
                break;
            }
        }
        let mut speeds = vec![input.ref_speed_mps; cfg.speed_knots];
        for (k, (lo, hi)) in self.lo.iter_mut().zip(&mut self.hi).enumerate() {
            let t = (k + 1) as f64 * cfg.speed_dt_s;
            *lo = (input.speed_mps - cfg.max_decel * t).max(0.0);
            *hi = input.speed_mps + cfg.max_accel * t;
        }
        for _ in 0..cfg.refinement_iters {
            // Build references honoring the stop constraint, given the
            // current speed profile's station estimates.
            self.refs.clear();
            let mut station = 0.0;
            for v in &speeds {
                let remaining = (stop_station - 2.0 - station).max(0.0);
                let v_allow = (2.0 * 2.0 * remaining).sqrt(); // comfort 2 m/s²
                self.refs.push(input.ref_speed_mps.min(v_allow));
                station += v * cfg.speed_dt_s;
            }
            if self
                .qp
                .solve(&self.refs, &self.lo, &self.hi, 600, 1e-7)
                .is_ok()
            {
                speeds.copy_from_slice(self.qp.x());
            }
        }
        speeds
    }
}

impl Planner for EmPlanner {
    fn plan(&mut self, input: &PlanningInput) -> Plan {
        let cfg = self.config;
        let path = self.path_dp(input);
        let speeds = self.speed_qp(input, &path);

        let accel =
            ((speeds[0] - input.speed_mps) / cfg.speed_dt_s).clamp(-cfg.max_decel, cfg.max_accel);
        // Steering toward the first path point.
        let target_l = path[0];
        let yaw_rate = (0.8 * (target_l - input.lateral_offset_m) - 1.5 * input.heading_error_rad)
            .clamp(-0.6, 0.6);
        let command = ControlCommand {
            throttle_mps2: accel.max(0.0),
            brake_mps2: (-accel).max(0.0),
            yaw_rate_rps: yaw_rate,
        };

        // Trajectory: stations from the speed profile, laterals from the
        // DP path (interpolated by station).
        let mut trajectory = Vec::with_capacity(cfg.speed_knots + 1);
        let mut station = 0.0;
        trajectory.push(TrajectoryPoint {
            t_s: 0.0,
            station_m: 0.0,
            lateral_m: input.lateral_offset_m,
            speed_mps: input.speed_mps,
        });
        for (k, &v) in speeds.iter().enumerate() {
            station += v * cfg.speed_dt_s;
            let idx = ((station / cfg.station_step_m) as usize).min(path.len() - 1);
            trajectory.push(TrajectoryPoint {
                t_s: (k + 1) as f64 * cfg.speed_dt_s,
                station_m: station,
                lateral_m: path[idx],
                speed_mps: v,
            });
        }

        let decision = if path.iter().any(|l| l.abs() > input.lane_width_m / 2.0) {
            if path.iter().any(|l| *l > 0.0) {
                LaneDecision::SwitchLeft
            } else {
                LaneDecision::SwitchRight
            }
        } else if speeds.iter().all(|v| *v < 0.3) {
            LaneDecision::Stop
        } else {
            LaneDecision::Keep
        };
        Plan {
            command,
            trajectory,
            decision,
        }
    }

    fn name(&self) -> &'static str {
        "EM-style DP+QP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::is_safe;
    use crate::mpc::MpcConfig;
    use crate::PlanningObstacle;

    fn static_obstacle(station: f64, lateral: f64) -> PlanningObstacle {
        PlanningObstacle {
            station_m: station,
            lateral_m: lateral,
            speed_along_mps: 0.0,
            radius_m: 0.5,
        }
    }

    #[test]
    fn clear_road_keeps_lane_and_speed() {
        let mut p = EmPlanner::new(EmConfig::default());
        let plan = p.plan(&PlanningInput::cruising(5.6, 5.6));
        assert_eq!(plan.decision, LaneDecision::Keep);
        assert!(plan.command.brake_mps2 < 0.3);
        // Path hugs the centerline.
        assert!(plan.trajectory.iter().all(|p| p.lateral_m.abs() < 0.3));
    }

    #[test]
    fn swerves_around_obstacle() {
        let mut p = EmPlanner::new(EmConfig::default());
        let input = PlanningInput::cruising(5.6, 5.6).with_obstacle(static_obstacle(12.0, 0.0));
        let plan = p.plan(&input);
        // The fine-grained planner maneuvers *within* the lattice, unlike
        // the lane-granularity MPC.
        let max_lateral = plan
            .trajectory
            .iter()
            .map(|p| p.lateral_m.abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_lateral > 0.8,
            "EM path should deviate, got {max_lateral}"
        );
        assert!(is_safe(&plan.trajectory, &input.obstacles, 0.8, 0.0));
    }

    #[test]
    fn brakes_when_fully_blocked() {
        let mut p = EmPlanner::new(EmConfig::default());
        // Wall of obstacles across the whole lattice.
        let mut input = PlanningInput::cruising(5.6, 5.6);
        for i in -4..=4 {
            input = input.with_obstacle(static_obstacle(10.0, f64::from(i) * 0.9));
        }
        let plan = p.plan(&input);
        assert!(
            plan.command.brake_mps2 > 0.5,
            "brake {}",
            plan.command.brake_mps2
        );
        let final_station = plan.trajectory.last().unwrap().station_m;
        assert!(
            final_station < 10.0,
            "stops before the wall, got {final_station}"
        );
    }

    #[test]
    fn dp_path_is_smooth() {
        let p = EmPlanner::new(EmConfig::default());
        let input = PlanningInput::cruising(5.6, 5.6).with_obstacle(static_obstacle(16.0, 0.3));
        let path = p.path_dp(&input);
        let max_step = path
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0f64, f64::max);
        assert!(max_step <= 1.01, "lattice path jumps by {max_step}");
    }

    #[test]
    fn em_does_more_work_than_mpc() {
        // Structural check of the 33× claim's origin: the EM planner touches
        // far more optimization variables per cycle. Both speed QPs are
        // `SpeedQp`s, whose iterations touch a 3-wide band per knot.
        let em = EmConfig::default();
        let em_work = em.num_stations * em.num_laterals * em.num_laterals
            + em.refinement_iters * em.speed_knots * 3;
        let mpc_work = MpcConfig::default().horizon * 3;
        assert!(em_work > 20 * mpc_work, "EM {em_work} vs MPC {mpc_work}");
    }
}
