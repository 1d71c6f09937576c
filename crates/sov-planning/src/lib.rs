//! Planning for the SoV (Table III: MPC; Sec. V-C's planner comparison).
//!
//! The paper's planner is formulated as Model Predictive Control and is
//! deliberately *coarse-grained*: the vehicle maneuvers at lane granularity
//! (stay in lane / switch lanes, Sec. III-D), which is why planning
//! contributes only ~3 ms (~1%) of the end-to-end latency (Sec. V-C). As
//! the expensive counterpoint, the paper measures the Baidu Apollo **EM
//! motion planner** — a combination of dynamic programming and quadratic
//! programming producing centimeter-granularity plans — at ~100 ms on the
//! same platform, 33× the cost.
//!
//! This crate implements both:
//!
//! * [`qp`] — a box-constrained quadratic-program solver (projected
//!   gradient), the shared numerical substrate, and the O(n) speed-QP
//!   workspace both planners own ([`qp::SpeedQp`]).
//! * [`mpc`] — the lane-granularity MPC planner ([`mpc::MpcPlanner`]).
//! * [`em`] — the EM-style baseline ([`em::EmPlanner`]): DP over a
//!   station–lateral lattice followed by QP speed smoothing.
//! * [`prediction`] — constant-velocity obstacle prediction
//!   (action/traffic prediction in Fig. 5).
//! * [`collision`] — trajectory-vs-obstacle collision checking.
//!
//! # Example
//!
//! ```
//! use sov_planning::mpc::{MpcConfig, MpcPlanner};
//! use sov_planning::{PlanningInput, Planner};
//!
//! let mut planner = MpcPlanner::new(MpcConfig::default());
//! let input = PlanningInput::cruising(5.6, 5.6);
//! let plan = planner.plan(&input);
//! assert!(plan.command.brake_mps2 < 0.5); // nothing ahead: keep cruising
//! ```

#![deny(missing_docs)]

pub mod collision;
pub mod em;
pub mod mpc;
pub mod prediction;
pub mod qp;

use sov_vehicle::dynamics::ControlCommand;

/// An obstacle as the planner sees it, in route (Frenet-like) coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanningObstacle {
    /// Distance ahead along the route (m); negative = behind.
    pub station_m: f64,
    /// Lateral offset from the lane centerline (m, +left).
    pub lateral_m: f64,
    /// Speed along the route direction (m/s).
    pub speed_along_mps: f64,
    /// Footprint radius (m).
    pub radius_m: f64,
}

/// Everything the planner needs for one cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanningInput {
    /// Current speed (m/s).
    pub speed_mps: f64,
    /// Reference (desired) speed (m/s).
    pub ref_speed_mps: f64,
    /// Lateral offset of the vehicle from the lane centerline (m).
    pub lateral_offset_m: f64,
    /// Heading error relative to the lane tangent (rad).
    pub heading_error_rad: f64,
    /// Obstacles ahead, in route coordinates.
    pub obstacles: Vec<PlanningObstacle>,
    /// Lane width (m); lane-change maneuvers move by this amount.
    pub lane_width_m: f64,
    /// Whether an adjacent lane exists to the left.
    pub left_lane_available: bool,
    /// Whether an adjacent lane exists to the right.
    pub right_lane_available: bool,
}

impl PlanningInput {
    /// A simple cruising input with no obstacles.
    #[must_use]
    pub fn cruising(speed_mps: f64, ref_speed_mps: f64) -> Self {
        Self {
            speed_mps,
            ref_speed_mps,
            lateral_offset_m: 0.0,
            heading_error_rad: 0.0,
            obstacles: Vec::new(),
            lane_width_m: 2.5,
            left_lane_available: false,
            right_lane_available: false,
        }
    }

    /// Adds an obstacle (builder-style).
    #[must_use]
    pub fn with_obstacle(mut self, obstacle: PlanningObstacle) -> Self {
        self.obstacles.push(obstacle);
        self
    }
}

/// The lane-granularity maneuver decision (Sec. III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneDecision {
    /// Stay in the current lane.
    Keep,
    /// Switch one lane to the left.
    SwitchLeft,
    /// Switch one lane to the right.
    SwitchRight,
    /// Stop for an unavoidable obstacle.
    Stop,
}

/// One point of a planned trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Time offset from now (s).
    pub t_s: f64,
    /// Station along the route (m).
    pub station_m: f64,
    /// Lateral offset (m).
    pub lateral_m: f64,
    /// Speed (m/s).
    pub speed_mps: f64,
}

/// A complete plan for one cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The immediate control command.
    pub command: ControlCommand,
    /// The planned trajectory over the horizon.
    pub trajectory: Vec<TrajectoryPoint>,
    /// The maneuver decision.
    pub decision: LaneDecision,
}

/// A motion planner.
pub trait Planner {
    /// Produces a plan for the current cycle.
    fn plan(&mut self, input: &PlanningInput) -> Plan;

    /// Human-readable planner name (for reports).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cruising_input_builder() {
        let input = PlanningInput::cruising(5.0, 5.6).with_obstacle(PlanningObstacle {
            station_m: 20.0,
            lateral_m: 0.0,
            speed_along_mps: 0.0,
            radius_m: 0.5,
        });
        assert_eq!(input.obstacles.len(), 1);
        assert_eq!(input.speed_mps, 5.0);
    }
}
