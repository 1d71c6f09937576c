//! `drive-mix`: the whole vehicle stack, one serial closed-loop drive per
//! unit.
//!
//! A unit is `Sov::new` plus one `Sov::drive_with_plan` of 300 control
//! frames (30 s simulated) on a `ScenarioGen` world. Units cycle through
//! the six scenario classes in equal shares; plans alternate between
//! nominal and one fault (active 4 s to 14 s, as in `scenario_matrix`),
//! and the faulted units cycle through every `FaultKind`. The schedule
//! repeats every `CYCLE` units and runs end on a whole cycle, so a run
//! drives whole repeats of the same inputs however fast the drives are.
//! No pool, no fleet, no pixel kernels.

use crate::trace::Tracer;
use crate::{fold, Checks, Workload};
use sov_core::config::VehicleConfig;
use sov_core::sov::{DriveReport, Sov};
use sov_fault::{FaultKind, FaultPlan};
use sov_math::stats::Summary;
use sov_runtime::pool::WorkerPool;
use sov_sim::time::SimTime;
use sov_world::generate::{ScenarioClass, ScenarioGen};
use sov_world::scenario::Scenario;

const FRAMES: u64 = 300;
const FAULT_START_MS: u64 = 4_000;
const FAULT_END_MS: u64 = 14_000;
const CLASSES: u64 = ScenarioClass::ALL.len() as u64;
const KINDS: u64 = FaultKind::ALL.len() as u64;
/// Worlds generated per class. Lap `l` drives world `l % PER_CLASS` of
/// every class, takes fault kinds from `l * CLASSES / 2` on and faults the
/// classes of the other parity than `l`; all three repeat every
/// `PER_CLASS` laps when it is an even multiple of `KINDS`.
const PER_CLASS: u64 = KINDS;
const _: () = assert!(
    PER_CLASS.is_multiple_of(KINDS) && PER_CLASS.is_multiple_of(2) && CLASSES.is_multiple_of(2)
);
/// Units in one repeat of the schedule: every world once, every fault
/// kind equally often (three times).
const CYCLE: u64 = CLASSES * PER_CLASS;
/// Warm-up drives in set-up, every class once nominal and once faulted;
/// their reports are the check's reference.
const WARMUP: u64 = 2 * CLASSES;

pub struct DriveMix {
    /// `worlds[class][j]`.
    worlds: Vec<Vec<Scenario>>,
    /// Reports of schedule entries `0..WARMUP`, from the warm-up.
    reference: Vec<DriveReport>,
    frames_driven: u64,
    // Counters over traced units.
    traced: u64,
    traced_frames: u64,
    degraded_ticks: u64,
    deadline_misses: u64,
    arena_takes: u64,
    arena_reuses: u64,
}

/// Total of a per-frame stage summary, in nanoseconds.
fn total_ns(s: &Summary) -> u64 {
    (s.samples().iter().sum::<f64>() * 1e6).round() as u64
}

impl DriveMix {
    /// The world and fault plan of schedule entry `i`. Lap `i / 6` visits
    /// every class once; a class is faulted on alternate laps, and faulted
    /// units take the fault kinds in turn.
    fn entry(&self, i: u64) -> (&Scenario, FaultPlan) {
        let class = i % CLASSES;
        let lap = i / CLASSES;
        let world = &self.worlds[class as usize][(lap % PER_CLASS) as usize];
        if (lap + class).is_multiple_of(2) {
            return (world, FaultPlan::nominal());
        }
        let kind = ((lap * CLASSES / 2 + class / 2) % KINDS) as usize;
        let plan = FaultPlan::new(ScenarioGen::derive_seed(world.seed, kind as u64 + 1)).with(
            FaultKind::ALL[kind],
            SimTime::from_millis(FAULT_START_MS),
            SimTime::from_millis(FAULT_END_MS),
        );
        (world, plan)
    }

    fn drive(&mut self, i: u64, tr: &mut Tracer) -> Result<DriveReport, String> {
        let (world, plan) = self.entry(i);
        let span = tr.open("core.drive");
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), world.seed);
        let report = sov.drive_with_plan(world, FRAMES, &plan);
        if let Ok(r) = &report {
            // Serial drives time each stage themselves; the split
            // becomes the drive span's children.
            let stages = &r.tail.stage_compute_ms;
            tr.derived("perception.frontend", total_ns(&stages[0]));
            tr.derived("perception.detect", total_ns(&stages[1]));
            tr.derived("planning.mpc", total_ns(&stages[2]));
        }
        let arena = sov.perf().arena.stats();
        drop(sov);
        tr.close(span);
        let report = report.map_err(|e| format!("drive {i}: {e}"))?;
        if tr.is_on() {
            self.traced += 1;
            self.traced_frames += report.frames;
            self.degraded_ticks += report.mode_ticks[1..].iter().sum::<u64>();
            self.deadline_misses += report.deadline_misses;
            self.arena_takes += arena.takes;
            self.arena_reuses += arena.reuses;
        }
        Ok(report)
    }
}

impl Workload for DriveMix {
    const CYCLE: u64 = CYCLE;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let worlds = ScenarioClass::ALL
            .iter()
            .map(|&class| {
                (0..PER_CLASS)
                    .map(|j| {
                        let s = ScenarioGen::seed_for_class(class, seed, j);
                        tr.span("world.generate", || ScenarioGen::generate(s).scenario)
                    })
                    .collect()
            })
            .collect();
        let mut w = Self {
            worlds,
            reference: Vec::new(),
            frames_driven: 0,
            traced: 0,
            traced_frames: 0,
            degraded_ticks: 0,
            deadline_misses: 0,
            arena_takes: 0,
            arena_reuses: 0,
        };
        for i in 0..WARMUP {
            let report = w
                .drive(i, &mut Tracer::off())
                .expect("300 frames is a valid drive");
            w.reference.push(report);
        }
        w
    }

    fn unit(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        self.frames_driven += self.drive(i, tr)?.frames;
        Ok(())
    }

    fn work_done(&self) -> u64 {
        self.frames_driven
    }

    /// Re-drives one world per class, nominal and faulted, and requires
    /// reports equal to the warm-up's (`PartialEq` skips the wall-clock
    /// `tail`; no percentile has been queried on either side).
    fn check(&mut self) -> Checks {
        let mut checks = Checks::default();
        for i in 0..WARMUP {
            checks.attempted += 1;
            let again = match self.drive(i, &mut Tracer::off()) {
                Ok(r) => r,
                Err(e) => {
                    checks.failures.push(e);
                    continue;
                }
            };
            let want = &self.reference[i as usize];
            if &again != want {
                checks.failures.push(format!(
                    "re-drive of entry {i} differs from its first drive"
                ));
            }
            checks.digest = [
                want.outcome as u64,
                want.frames,
                want.distance_m.to_bits(),
                want.energy_used_kwh.to_bits(),
                want.min_obstacle_gap_m.to_bits(),
                want.mean_cross_track_error_m.to_bits(),
                want.override_ticks,
                want.mode_transitions,
                want.deadline_misses,
                want.safety.violations,
            ]
            .into_iter()
            .chain(want.mode_ticks)
            .fold(checks.digest, fold);
        }
        checks
    }

    fn pool(&self) -> Option<&WorkerPool> {
        None
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let per_drive = |n: u64| crate::ratio(n, self.traced);
        vec![
            ("core.frames", per_drive(self.traced_frames)),
            ("core.degraded_ticks", per_drive(self.degraded_ticks)),
            ("core.deadline_misses", per_drive(self.deadline_misses)),
            (
                "runtime.arena_reuse_ratio",
                crate::ratio(self.arena_reuses, self.arena_takes),
            ),
        ]
    }
}
