//! Per-frame safety invariants, checked against ground truth.
//!
//! The paper's safety argument (Sec. IV) is a *contract*: given enough
//! observation time, the hybrid proactive/reactive design keeps the
//! vehicle collision-free and always able to reach a safe stop. The
//! [`SafetyChecker`] turns that contract into executable invariants
//! evaluated on every control tick of a drive, against ground-truth
//! vehicle and obstacle state (never against the perception estimates —
//! a checker that trusts the system under test proves nothing):
//!
//! * **no-collision** — no frontal obstacle gap at or below the contact
//!   threshold;
//! * **min-gap** — while moving, the vehicle keeps a minimum standoff
//!   from any obstacle in its swept corridor;
//! * **SafeStop-reachability** — the vehicle's kinematic stopping
//!   distance `v²/(2·a_max)` never exceeds the gap to a corridor
//!   obstacle (plus a small reaction allowance), i.e. a full-brake stop
//!   short of contact stays *reachable* at all times;
//! * **SafeStop-halts** — once the degradation state machine commands
//!   `SafeStop`, the vehicle actually comes to rest within a bounded
//!   time.
//!
//! Every obstacle-relative invariant is conditioned on **observability**:
//! it applies only after the obstacle has been in the vehicle's frontal
//! half-plane, within range, for a grace period. An obstacle that
//! materializes inside the braking envelope is unavoidable for *any*
//! policy; a violation against an observed obstacle is a genuine finding
//! about the stack. The scenario generator's fairness contract
//! (`sov_world::generate`) guarantees generated worlds only pose
//! observable problems.

use crate::health::DegradationMode;
use sov_math::Pose2;
use sov_sim::time::{SimDuration, SimTime};
use sov_world::obstacle::ObstacleId;
use sov_world::World;
use std::collections::BTreeMap;
use std::fmt;

/// The individual invariants the checker can flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// Ground-truth contact with an observed frontal obstacle.
    NoCollision,
    /// Standoff below the minimum gap while moving.
    MinGap,
    /// Stopping distance exceeded the available gap: a full-brake stop
    /// short of the obstacle was no longer kinematically reachable.
    SafeStopReachable,
    /// `SafeStop` mode failed to bring the vehicle to rest in time.
    SafeStopHalts,
}

impl Invariant {
    /// Stable display name (used as the matrix verdict key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Invariant::NoCollision => "no-collision",
            Invariant::MinGap => "min-gap",
            Invariant::SafeStopReachable => "safestop-reachable",
            Invariant::SafeStopHalts => "safestop-halts",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Thresholds for the invariant checks.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyConfig {
    /// Gap at or below which contact is declared (matches the drive
    /// loop's collision threshold).
    pub collision_gap_m: f64,
    /// Minimum standoff from corridor obstacles while moving.
    pub min_gap_m: f64,
    /// Speed above which the min-gap invariant applies; below it the
    /// vehicle is creeping/stopping and the no-collision bound governs.
    pub min_gap_speed_mps: f64,
    /// Half-width of the swept corridor: obstacles further off the
    /// vehicle's lateral axis are passed, not stopped for (matches the
    /// reactive path's corridor filter).
    pub corridor_half_width_m: f64,
    /// How long an obstacle must have been observable (frontal, in
    /// range) before invariants apply to it.
    pub observe_grace: SimDuration,
    /// Range within which an obstacle counts as observable.
    pub observe_range_m: f64,
    /// Reaction-time allowance: the reachability bound forgives
    /// `speed · reaction_time_s + base_slack_m` of gap (actuation delay
    /// `t_mech`, the 50 ms radar period, and discretization).
    pub reaction_time_s: f64,
    /// Constant part of the reachability allowance.
    pub base_slack_m: f64,
    /// Maximum braking deceleration used for the stopping distance.
    pub max_decel_mps2: f64,
    /// Time `SafeStop` mode gets to bring the vehicle to rest.
    pub safestop_halt: SimDuration,
    /// Speed below which the vehicle counts as at rest.
    pub safestop_speed_mps: f64,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        Self {
            collision_gap_m: 0.05,
            min_gap_m: 0.25,
            min_gap_speed_mps: 1.0,
            corridor_half_width_m: 1.2,
            observe_grace: SimDuration::from_millis(1_500),
            observe_range_m: 40.0,
            reaction_time_s: 0.15,
            base_slack_m: 0.3,
            max_decel_mps2: 4.0,
            safestop_halt: SimDuration::from_millis(2_500),
            safestop_speed_mps: 0.5,
        }
    }
}

/// The first (earliest) invariant violation of a drive.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyViolation {
    /// Control frame on which the violation fired.
    pub frame: u64,
    /// Which invariant.
    pub invariant: Invariant,
    /// Ground-truth gap to the offending obstacle (m); `NaN`-free
    /// (`f64::INFINITY` for the mode invariant, which has no obstacle).
    pub gap_m: f64,
    /// Vehicle speed at the violation (m/s).
    pub speed_mps: f64,
}

/// Per-drive invariant outcome, carried in
/// [`DriveReport`](crate::sov::DriveReport). `PartialEq` is exact, like
/// the rest of the report: a re-drive of the same seed must reproduce it
/// bit for bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SafetyReport {
    /// Control ticks the checker evaluated.
    pub checked_ticks: u64,
    /// Total invariant violations (one per invariant per obstacle per
    /// tick).
    pub violations: u64,
    /// The earliest violation, if any — the shrink target: re-driving
    /// the same seeds with `max_frames = frame + 1` reproduces it.
    pub first: Option<SafetyViolation>,
}

impl SafetyReport {
    /// Whether the drive upheld every invariant.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations == 0
    }
}

/// Threads the invariants through a drive: feed it ground truth once per
/// control tick, collect the [`SafetyReport`] at the end.
#[derive(Debug)]
pub struct SafetyChecker {
    cfg: SafetyConfig,
    /// When each obstacle first became observable. `BTreeMap` for
    /// deterministic iteration.
    first_seen: BTreeMap<ObstacleId, SimTime>,
    safestop_since: Option<SimTime>,
    report: SafetyReport,
}

impl SafetyChecker {
    /// A checker with the given thresholds.
    #[must_use]
    pub fn new(cfg: SafetyConfig) -> Self {
        Self {
            cfg,
            first_seen: BTreeMap::new(),
            safestop_since: None,
            report: SafetyReport::default(),
        }
    }

    fn violate(&mut self, frame: u64, invariant: Invariant, gap_m: f64, speed_mps: f64) {
        self.report.violations += 1;
        if self.report.first.is_none() {
            self.report.first = Some(SafetyViolation {
                frame,
                invariant,
                gap_m,
                speed_mps,
            });
        }
    }

    /// Evaluates every invariant for one control tick against ground
    /// truth.
    pub fn check_tick(
        &mut self,
        world: &World,
        pose: &Pose2,
        speed_mps: f64,
        mode: DegradationMode,
        t: SimTime,
        frame: u64,
    ) {
        self.report.checked_ticks += 1;
        let cfg = self.cfg.clone();
        let stopping_m = speed_mps * speed_mps / (2.0 * cfg.max_decel_mps2);
        let slack_m = speed_mps * cfg.reaction_time_s + cfg.base_slack_m;
        for (obstacle, opose) in world.active_obstacles(t) {
            let (lx, ly) = pose.inverse_transform_point(opose.x, opose.y);
            if lx <= 0.0 {
                continue; // behind the vehicle
            }
            let gap = ((lx * lx + ly * ly).sqrt() - obstacle.radius_m()).max(0.0);
            if gap <= cfg.observe_range_m {
                self.first_seen.entry(obstacle.id).or_insert(t);
            }
            // Invariants bind only once the obstacle has been
            // observable for the grace period.
            let Some(&seen) = self.first_seen.get(&obstacle.id) else {
                continue;
            };
            if t.since(seen) < cfg.observe_grace {
                continue;
            }
            if gap <= cfg.collision_gap_m {
                self.violate(frame, Invariant::NoCollision, gap, speed_mps);
            }
            // The standoff invariants apply inside the swept corridor;
            // an obstacle beside the path is passed, not stopped for.
            if ly.abs() > cfg.corridor_half_width_m + obstacle.radius_m() {
                continue;
            }
            if speed_mps > cfg.min_gap_speed_mps && gap < cfg.min_gap_m {
                self.violate(frame, Invariant::MinGap, gap, speed_mps);
            }
            if gap + slack_m < stopping_m {
                self.violate(frame, Invariant::SafeStopReachable, gap, speed_mps);
            }
        }
        if mode == DegradationMode::SafeStop {
            let since = *self.safestop_since.get_or_insert(t);
            if t.since(since) > cfg.safestop_halt && speed_mps > cfg.safestop_speed_mps {
                self.violate(frame, Invariant::SafeStopHalts, f64::INFINITY, speed_mps);
            }
        } else {
            self.safestop_since = None;
        }
    }

    /// Consumes the checker, yielding the drive's safety report.
    #[must_use]
    pub fn finish(self) -> SafetyReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sov_world::Scenario;

    fn world_with_static_at(x: f64) -> World {
        use sov_world::obstacle::{Obstacle, ObstacleClass};
        let mut s = Scenario::fishers_indiana(1);
        s.world.obstacles = vec![Obstacle::fixed(
            ObstacleId(0),
            ObstacleClass::StaticObject,
            Pose2::new(x, 0.0, 0.0),
            SimTime::ZERO,
        )];
        s.world
    }

    fn tick_n(checker: &mut SafetyChecker, world: &World, pose: &Pose2, speed: f64, n: u64) {
        for i in 0..n {
            checker.check_tick(
                world,
                pose,
                speed,
                DegradationMode::Nominal,
                SimTime::from_millis(i * 100),
                i,
            );
        }
    }

    #[test]
    fn clear_road_is_clean() {
        let world = Scenario::fishers_indiana(1).world;
        let mut c = SafetyChecker::new(SafetyConfig::default());
        // Before any obstacle spawns: nothing to violate.
        c.check_tick(
            &world,
            &Pose2::new(0.0, 0.0, 0.0),
            5.6,
            DegradationMode::Nominal,
            SimTime::ZERO,
            0,
        );
        let rep = c.finish();
        assert!(rep.ok());
        assert_eq!(rep.checked_ticks, 1);
    }

    #[test]
    fn contact_with_observed_obstacle_is_a_collision() {
        let world = world_with_static_at(10.0);
        let mut c = SafetyChecker::new(SafetyConfig::default());
        // Observe it for 2 s from afar, then teleport into contact.
        tick_n(&mut c, &world, &Pose2::new(0.0, 0.0, 0.0), 2.0, 21);
        c.check_tick(
            &world,
            &Pose2::new(9.5, 0.0, 0.0), // gap = 0.5 - 0.5 radius = 0.0
            1.5,
            DegradationMode::Nominal,
            SimTime::from_millis(2_100),
            21,
        );
        let rep = c.finish();
        assert!(!rep.ok());
        let first = rep.first.expect("violation recorded");
        assert_eq!(first.invariant, Invariant::NoCollision);
        assert_eq!(first.frame, 21);
    }

    #[test]
    fn unobserved_obstacle_is_excused() {
        let world = world_with_static_at(10.0);
        let mut c = SafetyChecker::new(SafetyConfig::default());
        // Contact on the very first tick: no observation history, so no
        // invariant binds (the drive still ends with outcome Collision —
        // the checker only decides *attribution*).
        c.check_tick(
            &world,
            &Pose2::new(9.5, 0.0, 0.0),
            1.5,
            DegradationMode::Nominal,
            SimTime::ZERO,
            0,
        );
        assert!(c.finish().ok());
    }

    #[test]
    fn overspeed_toward_wall_breaks_reachability() {
        let world = world_with_static_at(30.0);
        let mut c = SafetyChecker::new(SafetyConfig::default());
        // Observed from the start; after grace, speeding at the max cap
        // toward it until stopping distance exceeds the gap.
        tick_n(&mut c, &world, &Pose2::new(0.0, 0.0, 0.0), 2.0, 20);
        // 8.9 m/s ⇒ stopping 9.9 m; gap 4.5 m ⇒ violated.
        c.check_tick(
            &world,
            &Pose2::new(25.0, 0.0, 0.0),
            8.9,
            DegradationMode::Nominal,
            SimTime::from_millis(2_000),
            20,
        );
        let rep = c.finish();
        assert_eq!(
            rep.first.expect("violation").invariant,
            Invariant::SafeStopReachable
        );
    }

    #[test]
    fn beside_the_path_is_not_a_standoff_problem() {
        // Obstacle 2.5 m to the left: passed at speed without violating
        // min-gap or reachability (but still a collision if touched).
        use sov_world::obstacle::{Obstacle, ObstacleClass};
        let mut s = Scenario::fishers_indiana(1);
        s.world.obstacles = vec![Obstacle::fixed(
            ObstacleId(0),
            ObstacleClass::StaticObject,
            Pose2::new(10.0, 2.8, 0.0),
            SimTime::ZERO,
        )];
        let mut c = SafetyChecker::new(SafetyConfig::default());
        tick_n(&mut c, &s.world, &Pose2::new(0.0, 0.0, 0.0), 2.0, 20);
        c.check_tick(
            &s.world,
            &Pose2::new(9.0, 0.0, 0.0), // 1 m ahead, 2.8 m left
            5.6,
            DegradationMode::Nominal,
            SimTime::from_millis(2_000),
            20,
        );
        assert!(c.finish().ok());
    }

    #[test]
    fn safestop_must_actually_stop() {
        let world = Scenario::fishers_indiana(1).world;
        let mut c = SafetyChecker::new(SafetyConfig::default());
        for i in 0..40u64 {
            c.check_tick(
                &world,
                &Pose2::new(i as f64, 0.0, 0.0),
                3.0, // never slows down
                DegradationMode::SafeStop,
                SimTime::from_millis(i * 100),
                i,
            );
        }
        let rep = c.finish();
        assert_eq!(
            rep.first.expect("violation").invariant,
            Invariant::SafeStopHalts
        );
        // A SafeStop that does come to rest is fine.
        let mut c = SafetyChecker::new(SafetyConfig::default());
        for i in 0..40u64 {
            let speed = (3.0 - i as f64 * 0.4).max(0.0);
            c.check_tick(
                &world,
                &Pose2::new(i as f64 * 0.1, 0.0, 0.0),
                speed,
                DegradationMode::SafeStop,
                SimTime::from_millis(i * 100),
                i,
            );
        }
        assert!(c.finish().ok());
    }
}
