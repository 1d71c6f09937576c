//! `fleet-peak`: one `FleetSim` tick per unit on a 2-lane pool.
//!
//! The fleet is `FleetConfig::perceptin_fleet(4000)` (12×12 street grid
//! at calibrated peak demand) reseeded with the benchmark seed. Set-up
//! runs warm-up ticks until the ride queue and the route cache have
//! reached steady state. A tick is all `sov-fleet` work: arrivals,
//! dispatch, advance and merge, with two fork-joins over the pool.
//!
//! The fleet's state keeps changing tick after tick: past ~31 000 ticks
//! a tick first got a third cheaper, then half again dearer than before.
//! So every cycle of `CYCLE_TICKS` units starts from a fresh set-up, and
//! a run measures the same ticks again and again however fast they are:
//! ticks 900 to 5 400 of the seeded day untraced (the traced run's twin
//! units make that 900 to 9 900).

use crate::trace::Tracer;
use crate::{fold, Checks, Workload};
use sov_fleet::sim::{DispatchMode, DispatchStats, FleetConfig, FleetReport, FleetSim};
use sov_runtime::pool::WorkerPool;

const VEHICLES: u32 = 4_000;
const LANES: usize = 2;
const WARMUP_TICKS: u64 = 900;
/// Units per set-up: about a fifth of a 30 s run, so that the set-ups
/// starting the cycles are the run's five set-up samples.
const CYCLE_TICKS: u64 = 4_500;

pub struct FleetPeak {
    pool: WorkerPool,
    sim: FleetSim,
    /// Report right after warm-up: the check's subject.
    warm: FleetReport,
    // Counters over traced ticks.
    traced: u64,
    stats: DispatchStats,
}

fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        ..FleetConfig::perceptin_fleet(VEHICLES)
    }
}

fn add(a: DispatchStats, before: DispatchStats, after: DispatchStats) -> DispatchStats {
    DispatchStats {
        distance_evals: a.distance_evals + after.distance_evals - before.distance_evals,
        dispatched: a.dispatched + after.dispatched - before.dispatched,
        requeues: a.requeues + after.requeues - before.requeues,
        fallback_searches: a.fallback_searches + after.fallback_searches - before.fallback_searches,
        route_cache_hits: a.route_cache_hits + after.route_cache_hits - before.route_cache_hits,
        route_cache_misses: a.route_cache_misses + after.route_cache_misses
            - before.route_cache_misses,
    }
}

impl Workload for FleetPeak {
    const CYCLE: u64 = CYCLE_TICKS;
    const FRESH_CYCLES: bool = true;

    fn setup(seed: u64, _tr: &mut Tracer) -> Self {
        let pool = WorkerPool::new(LANES);
        let mut sim = FleetSim::new(config(seed));
        for _ in 0..WARMUP_TICKS {
            sim.tick_once(Some(&pool));
        }
        let warm = sim.report();
        Self {
            pool,
            sim,
            warm,
            traced: 0,
            stats: DispatchStats::default(),
        }
    }

    fn unit(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        let before = self.sim.dispatch_stats();
        let (sim, pool) = (&mut self.sim, Some(&self.pool));
        tr.span("fleet.arrivals", || sim.phase_arrivals());
        tr.span("fleet.dispatch", || sim.phase_dispatch(pool));
        tr.span("fleet.advance", || sim.phase_advance(pool));
        tr.span("fleet.merge", || sim.phase_merge());
        if tr.is_on() {
            self.traced += 1;
            self.stats = add(self.stats, before, self.sim.dispatch_stats());
        }
        Ok(())
    }

    fn work_done(&self) -> u64 {
        self.sim.report().rides_completed - self.warm.rides_completed
    }

    fn inherit(&mut self, old: Self) {
        self.traced += old.traced;
        self.stats = add(self.stats, DispatchStats::default(), old.stats);
    }

    /// Replays the warm-up serially with the linear-scan dispatcher and
    /// requires an equal report; then checks ride conservation at the end
    /// of the run.
    fn check(&mut self) -> Checks {
        let mut checks = Checks {
            attempted: 2,
            ..Checks::default()
        };
        let mut oracle = FleetSim::new(FleetConfig {
            dispatch: DispatchMode::Linear,
            ..self.sim.config().clone()
        });
        for _ in 0..WARMUP_TICKS {
            oracle.tick_once(None);
        }
        let want = oracle.report();
        if want != self.warm {
            checks.failures.push(format!(
                "warm-up report differs from the serial linear replay at tick {WARMUP_TICKS}"
            ));
        }
        let end = self.sim.report();
        if end.requests != end.rides_completed + end.rides_in_progress + end.rides_unserved {
            checks.failures.push(format!(
                "rides not conserved after {} ticks: {} requests, {} completed, {} in progress, {} queued",
                end.ticks, end.requests, end.rides_completed, end.rides_in_progress, end.rides_unserved
            ));
        }
        checks.digest = [
            want.checksum,
            want.requests,
            want.rides_completed,
            want.rides_in_progress,
            want.rides_unserved,
            want.peak_queue as u64,
            want.distance_km.to_bits(),
            want.energy_kwh.to_bits(),
        ]
        .into_iter()
        .fold(0, fold);
        checks
    }

    fn pool(&self) -> Option<&WorkerPool> {
        Some(&self.pool)
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let s = self.stats;
        let per_tick = |n: u64| crate::ratio(n, self.traced);
        vec![
            (
                "fleet.route_cache_hit_ratio",
                crate::ratio(
                    s.route_cache_hits,
                    s.route_cache_hits + s.route_cache_misses,
                ),
            ),
            ("fleet.route_cache_misses", per_tick(s.route_cache_misses)),
            ("fleet.distance_evals", per_tick(s.distance_evals)),
            ("fleet.dispatched", per_tick(s.dispatched)),
            ("fleet.fallback_searches", per_tick(s.fallback_searches)),
            ("fleet.requeues", per_tick(s.requeues)),
            ("fleet.peak_queue", self.sim.report().peak_queue as f64),
        ]
    }
}
