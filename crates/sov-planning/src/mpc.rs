//! The lane-granularity MPC planner (Table III, Sec. V-C).
//!
//! The paper's planner is cheap (~3 ms, ~1% of end-to-end latency) because
//! the vehicle maneuvers at *lane granularity*: the lateral decision is
//! discrete (keep / switch lanes / stop) and only the longitudinal speed
//! profile is optimized, as a small box-constrained QP over a 2-second
//! receding horizon.

use crate::collision::is_safe;
use crate::qp::SpeedQp;
use crate::{LaneDecision, Plan, Planner, PlanningInput, PlanningObstacle, TrajectoryPoint};
use sov_vehicle::dynamics::ControlCommand;

/// MPC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcConfig {
    /// Horizon length (steps).
    pub horizon: usize,
    /// Step duration (s). With 20 × 0.1 s the planner looks 2 s ahead at
    /// the 10 Hz control rate of Sec. III-A.
    pub dt_s: f64,
    /// Maximum acceleration (m/s²).
    pub max_accel: f64,
    /// Maximum service deceleration (m/s²; paper: 4).
    pub max_decel: f64,
    /// Comfortable deceleration used for anticipatory slowing (m/s²).
    pub comfort_decel: f64,
    /// Speed-tracking weight.
    pub w_v: f64,
    /// Smoothness weight.
    pub w_a: f64,
    /// Standoff margin behind obstacles (m).
    pub stop_margin_m: f64,
    /// Ego footprint radius (m).
    pub ego_radius_m: f64,
    /// Lateral proportional gain (1/s).
    pub k_lateral: f64,
    /// Heading proportional gain (1/s).
    pub k_heading: f64,
}

impl Default for MpcConfig {
    fn default() -> Self {
        Self {
            horizon: 20,
            dt_s: 0.1,
            max_accel: 2.0,
            max_decel: 4.0,
            comfort_decel: 2.0,
            w_v: 1.0,
            w_a: 2.0,
            // Large enough that a planned stop keeps the nearest radar
            // range above the ECU's 4.1 m reactive threshold: the reactive
            // path is the last line of defense, not the service brake.
            stop_margin_m: 4.5,
            ego_radius_m: 0.8,
            k_lateral: 0.8,
            k_heading: 1.5,
        }
    }
}

/// The MPC planner.
#[derive(Debug, Clone)]
pub struct MpcPlanner {
    config: MpcConfig,
    /// The speed QP for `(horizon, w_v, w_a)`, and the per-plan speed
    /// references and reachability bounds it solves for.
    qp: SpeedQp,
    refs: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

/// Planners are equal when they are configured alike: the rest is a workspace
/// that every [`Planner::plan`] call overwrites before reading.
impl PartialEq for MpcPlanner {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
    }
}

impl MpcPlanner {
    /// Creates a planner.
    #[must_use]
    pub fn new(config: MpcConfig) -> Self {
        Self {
            config,
            qp: SpeedQp::new(config.horizon, config.w_v, config.w_a),
            refs: Vec::with_capacity(config.horizon),
            lo: vec![0.0; config.horizon],
            hi: vec![0.0; config.horizon],
        }
    }

    /// Nearest obstacle blocking the lane at lateral offset `lane_l`,
    /// ignoring obstacles moving at least as fast as the reference.
    fn nearest_blocker<'a>(
        &self,
        input: &'a PlanningInput,
        lane_l: f64,
    ) -> Option<&'a PlanningObstacle> {
        input
            .obstacles
            .iter()
            .filter(|o| {
                o.station_m > 0.0
                    && (o.lateral_m - lane_l).abs() < input.lane_width_m / 2.0 + o.radius_m
                    && o.speed_along_mps < input.ref_speed_mps * 0.9
            })
            .min_by(|a, b| a.station_m.partial_cmp(&b.station_m).expect("finite"))
    }

    /// Free distance (m) before `blocker`, accounting for radii and margin.
    fn free_distance(&self, blocker: &PlanningObstacle) -> f64 {
        (blocker.station_m
            - blocker.radius_m
            - self.config.ego_radius_m
            - self.config.stop_margin_m)
            .max(0.0)
    }

    /// Allowed speed at distance `d` before a stop point:
    /// `v = √(2·a_comfort·d)`.
    fn allowed_speed(&self, d_m: f64) -> f64 {
        (2.0 * self.config.comfort_decel * d_m.max(0.0)).sqrt()
    }

    /// Decides the lane maneuver (Sec. III-D: stay / switch; stop as last
    /// resort).
    fn decide_lane(&self, input: &PlanningInput) -> (LaneDecision, f64) {
        let blocker = self.nearest_blocker(input, 0.0);
        let Some(blocker) = blocker else {
            return (LaneDecision::Keep, 0.0);
        };
        // Only consider a switch for obstacles we would otherwise stop for.
        let free = self.free_distance(blocker);
        let stopping_needed = self.allowed_speed(free) < input.ref_speed_mps * 0.95;
        if !stopping_needed {
            return (LaneDecision::Keep, 0.0);
        }
        let left_clear =
            input.left_lane_available && self.nearest_blocker(input, input.lane_width_m).is_none();
        if left_clear {
            return (LaneDecision::SwitchLeft, input.lane_width_m);
        }
        let right_clear = input.right_lane_available
            && self.nearest_blocker(input, -input.lane_width_m).is_none();
        if right_clear {
            return (LaneDecision::SwitchRight, -input.lane_width_m);
        }
        if free < 1.0 && input.speed_mps < 0.5 {
            (LaneDecision::Stop, 0.0)
        } else {
            (LaneDecision::Keep, 0.0) // brake in lane
        }
    }

    /// Writes the per-step speed references toward the target lane into
    /// `self.refs`.
    fn speed_references(&mut self, input: &PlanningInput, target_l: f64) {
        let cfg = self.config;
        let blocker = self.nearest_blocker(input, target_l);
        self.refs.clear();
        let mut station = 0.0;
        let mut v = input.speed_mps;
        for _ in 0..cfg.horizon {
            let mut v_ref = input.ref_speed_mps;
            if let Some(b) = blocker {
                // Distance left at this knot; moving blockers advance too.
                let d = (self.free_distance(b) + b.speed_along_mps * 0.0 - station).max(0.0);
                v_ref = v_ref.min(self.allowed_speed(d));
            }
            self.refs.push(v_ref);
            // Roll the station forward with a provisional speed.
            v = (v + (v_ref - v).clamp(-cfg.max_decel * cfg.dt_s, cfg.max_accel * cfg.dt_s))
                .max(0.0);
            station += v * cfg.dt_s;
        }
    }
}

impl Planner for MpcPlanner {
    fn plan(&mut self, input: &PlanningInput) -> Plan {
        let cfg = self.config;
        let (decision, target_l) = self.decide_lane(input);
        self.speed_references(input, target_l);

        // QP over the speed profile with per-step reachability bounds.
        let n = cfg.horizon;
        for (k, (lo, hi)) in self.lo.iter_mut().zip(&mut self.hi).enumerate() {
            let t = (k + 1) as f64 * cfg.dt_s;
            *lo = (input.speed_mps - cfg.max_decel * t).max(0.0);
            *hi = input.speed_mps + cfg.max_accel * t;
        }
        let speeds = match self.qp.solve(&self.refs, &self.lo, &self.hi, 400, 1e-6) {
            Ok(_) => self.qp.x(),
            Err(_) => &self.refs,
        };

        // First-step command; a zero horizon plans no step and holds speed.
        let accel = speeds.first().map_or(0.0, |v| {
            ((v - input.speed_mps) / cfg.dt_s).clamp(-cfg.max_decel, cfg.max_accel)
        });
        let yaw_rate = (cfg.k_lateral * (target_l - input.lateral_offset_m)
            - cfg.k_heading * input.heading_error_rad)
            .clamp(-0.6, 0.6);
        let command = ControlCommand {
            throttle_mps2: accel.max(0.0),
            brake_mps2: (-accel).max(0.0),
            yaw_rate_rps: yaw_rate,
        };

        // Planned trajectory for collision checking.
        let mut trajectory = Vec::with_capacity(n + 1);
        let mut station = 0.0;
        let mut lateral = input.lateral_offset_m;
        trajectory.push(TrajectoryPoint {
            t_s: 0.0,
            station_m: 0.0,
            lateral_m: lateral,
            speed_mps: input.speed_mps,
        });
        for (k, &v) in speeds.iter().enumerate() {
            station += v * cfg.dt_s;
            // Lateral converges to the target exponentially.
            lateral += (target_l - lateral) * (cfg.k_lateral * cfg.dt_s).min(1.0);
            trajectory.push(TrajectoryPoint {
                t_s: (k + 1) as f64 * cfg.dt_s,
                station_m: station,
                lateral_m: lateral,
                speed_mps: v,
            });
        }
        // Safety fallback: if the plan still conflicts, brake hard in lane.
        if !is_safe(&trajectory, &input.obstacles, cfg.ego_radius_m, 0.0)
            && decision != LaneDecision::Stop
        {
            return Plan {
                command: ControlCommand::emergency_brake(cfg.max_decel),
                trajectory,
                decision: LaneDecision::Stop,
            };
        }
        Plan {
            command,
            trajectory,
            decision,
        }
    }

    fn name(&self) -> &'static str {
        "lane-granularity MPC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn static_obstacle(station: f64, lateral: f64) -> PlanningObstacle {
        PlanningObstacle {
            station_m: station,
            lateral_m: lateral,
            speed_along_mps: 0.0,
            radius_m: 0.5,
        }
    }

    #[test]
    fn cruises_at_reference_with_clear_road() {
        let mut p = MpcPlanner::new(MpcConfig::default());
        let plan = p.plan(&PlanningInput::cruising(5.6, 5.6));
        assert_eq!(plan.decision, LaneDecision::Keep);
        assert!(plan.command.brake_mps2 < 0.2);
        assert!(plan.command.yaw_rate_rps.abs() < 1e-9);
    }

    #[test]
    fn accelerates_from_standstill() {
        let mut p = MpcPlanner::new(MpcConfig::default());
        let plan = p.plan(&PlanningInput::cruising(0.0, 5.6));
        assert!(
            plan.command.throttle_mps2 > 0.5,
            "throttle {}",
            plan.command.throttle_mps2
        );
    }

    #[test]
    fn zero_horizon_commands_zero_acceleration() {
        let mut p = MpcPlanner::new(MpcConfig {
            horizon: 0,
            ..MpcConfig::default()
        });
        let plan = p.plan(&PlanningInput::cruising(5.6, 5.6));
        assert_eq!(plan.command.throttle_mps2, 0.0);
        assert_eq!(plan.command.brake_mps2, 0.0);
        assert_eq!(plan.trajectory.len(), 1, "only the start point");
    }

    #[test]
    fn brakes_for_obstacle_ahead() {
        let mut p = MpcPlanner::new(MpcConfig::default());
        let input = PlanningInput::cruising(5.6, 5.6).with_obstacle(static_obstacle(8.0, 0.0));
        let plan = p.plan(&input);
        assert!(
            plan.command.brake_mps2 > 1.0,
            "brake {}",
            plan.command.brake_mps2
        );
        // Plan must not run into the obstacle.
        let final_station = plan.trajectory.last().unwrap().station_m;
        assert!(final_station < 8.0, "final station {final_station}");
    }

    #[test]
    fn switches_lane_when_available() {
        let mut p = MpcPlanner::new(MpcConfig::default());
        let mut input = PlanningInput::cruising(5.6, 5.6).with_obstacle(static_obstacle(10.0, 0.0));
        input.left_lane_available = true;
        let plan = p.plan(&input);
        assert_eq!(plan.decision, LaneDecision::SwitchLeft);
        assert!(
            plan.command.yaw_rate_rps > 0.1,
            "steer left: {}",
            plan.command.yaw_rate_rps
        );
    }

    #[test]
    fn prefers_left_then_right() {
        let mut p = MpcPlanner::new(MpcConfig::default());
        let mut input = PlanningInput::cruising(5.6, 5.6).with_obstacle(static_obstacle(10.0, 0.0));
        input.right_lane_available = true;
        let plan = p.plan(&input);
        assert_eq!(plan.decision, LaneDecision::SwitchRight);
        assert!(plan.command.yaw_rate_rps < -0.1);
    }

    #[test]
    fn blocked_adjacent_lane_forces_braking() {
        let mut p = MpcPlanner::new(MpcConfig::default());
        let mut input = PlanningInput::cruising(5.6, 5.6)
            .with_obstacle(static_obstacle(10.0, 0.0))
            .with_obstacle(static_obstacle(12.0, 2.5));
        input.left_lane_available = true;
        let plan = p.plan(&input);
        assert_ne!(
            plan.decision,
            LaneDecision::SwitchLeft,
            "left lane is occupied"
        );
        assert!(plan.command.brake_mps2 > 0.5);
    }

    #[test]
    fn ignores_faster_leading_vehicle() {
        let mut p = MpcPlanner::new(MpcConfig::default());
        let input = PlanningInput::cruising(5.6, 5.6).with_obstacle(PlanningObstacle {
            station_m: 10.0,
            lateral_m: 0.0,
            speed_along_mps: 7.0,
            radius_m: 0.8,
        });
        let plan = p.plan(&input);
        assert!(
            plan.command.brake_mps2 < 0.2,
            "no need to brake for a faster leader"
        );
    }

    #[test]
    fn stops_fully_when_pinned() {
        let mut p = MpcPlanner::new(MpcConfig::default());
        // Nearly stopped with an obstacle right ahead and no lane options.
        let input = PlanningInput {
            speed_mps: 0.2,
            ..PlanningInput::cruising(0.2, 5.6)
        }
        .with_obstacle(static_obstacle(3.4, 0.0));
        let plan = p.plan(&input);
        assert_eq!(plan.decision, LaneDecision::Stop);
    }

    #[test]
    fn nan_speed_falls_back_to_the_references_without_panicking() {
        let mut p = MpcPlanner::new(MpcConfig::default());
        let input = PlanningInput {
            speed_mps: f64::NAN,
            ..PlanningInput::cruising(5.6, 5.6)
        }
        .with_obstacle(static_obstacle(12.0, 0.0));
        let plan = p.plan(&input);
        // NaN reachability bounds make the QP infeasible, so the planned
        // speeds are the (finite) references.
        assert!(plan.trajectory[1..]
            .iter()
            .all(|point| point.speed_mps.is_finite()));
    }

    #[test]
    fn corrects_heading_error() {
        let mut p = MpcPlanner::new(MpcConfig::default());
        let input = PlanningInput {
            heading_error_rad: 0.2,
            ..PlanningInput::cruising(5.6, 5.6)
        };
        let plan = p.plan(&input);
        assert!(
            plan.command.yaw_rate_rps < -0.1,
            "steer back toward the lane tangent"
        );
    }
}
