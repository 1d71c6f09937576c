//! The workspace's one runtime: deterministic data parallelism inside a
//! frame (Sec. VI, Fig. 4) and task-level pipelining across frames
//! (Sec. IV, Fig. 5).
//!
//! The paper's LiDAR case study shows that the real bottleneck of the
//! perception stack is *within* a frame: irregular point-cloud kernels and
//! image processing dominated by memory traffic and redundant data
//! movement. [`pipeline::FramePipeline`] overlaps whole stages across
//! frames (sensing → perception → planning on pool lanes joined by the
//! bounded SPSC rings of [`queue`]); the rest of this crate supplies the
//! complementary layer — data parallelism *inside* each stage — plus the
//! allocation discipline that makes a steady-state control tick free of
//! heap traffic:
//!
//! * [`pool`] — a std-only persistent [`pool::WorkerPool`] whose
//!   `parallel_for` / `parallel_map_reduce` use **fixed chunking and an
//!   ordered merge**, so results are bit-identical to serial execution for
//!   every worker count. Determinism is a hard invariant of this
//!   repository: fault draws and `DriveReport`s must not change when the
//!   pool is enabled or resized.
//! * [`arena`] — a per-frame [`arena::FrameArena`] of reusable typed
//!   buffers: kernels borrow scratch vectors instead of allocating, and
//!   recycle them at frame end with their capacity intact.
//!
//! The perception (`sov-perception`) and LiDAR (`sov-lidar`) hot kernels
//! accept an optional pool and arena; `sov-core` threads a
//! [`PerfContext`] through `Sov::drive_with_plan`, and [`ledger`]
//! attributes each frame's latency to compute, queue and stall time.

#![deny(missing_docs)]

pub mod arena;
pub mod ledger;
pub mod pipeline;
pub mod pool;
pub mod queue;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Busy-time telemetry for the three coarse pipeline lanes (sensing,
/// perception, planning) of a piped drive.
///
/// Each lane accumulates the wall-clock time it spent actually computing
/// (not blocked on its rings); the sequencer records the drive's total
/// wall time. `busy / wall` is the lane's occupancy — the quantity Fig. 5
/// argues should approach 1 for the bottleneck stage at depth ≥ 3.
///
/// Purely observational: written with relaxed atomics from the lanes,
/// read after the drive, and **never** fed back into any computed value —
/// so it cannot perturb the bit-identity invariant.
#[derive(Debug, Default)]
pub struct LaneOccupancy {
    busy_ns: [AtomicU64; 3],
    wall_ns: AtomicU64,
}

impl LaneOccupancy {
    /// Index of the sensing lane (visual front-end).
    pub const SENSING: usize = 0;
    /// Index of the perception lane (detector).
    pub const PERCEPTION: usize = 1;
    /// Index of the planning lane (MPC).
    pub const PLANNING: usize = 2;

    /// Clears all counters (call before a measured drive).
    pub fn reset(&self) {
        for b in &self.busy_ns {
            b.store(0, Ordering::Relaxed);
        }
        self.wall_ns.store(0, Ordering::Relaxed);
    }

    /// Adds `busy` compute time to `lane` (one of the index constants).
    pub fn record(&self, lane: usize, busy: Duration) {
        self.busy_ns[lane].fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records the drive's total wall-clock time.
    pub fn set_wall(&self, wall: Duration) {
        self.wall_ns
            .store(wall.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Accumulated busy time of `lane`.
    #[must_use]
    pub fn busy(&self, lane: usize) -> Duration {
        Duration::from_nanos(self.busy_ns[lane].load(Ordering::Relaxed))
    }

    /// The recorded wall time.
    #[must_use]
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_ns.load(Ordering::Relaxed))
    }

    /// Occupancy of `lane`: busy over wall, `0.0` before any wall time is
    /// recorded.
    #[must_use]
    pub fn fraction(&self, lane: usize) -> f64 {
        let wall = self.wall_ns.load(Ordering::Relaxed);
        if wall == 0 {
            return 0.0;
        }
        self.busy_ns[lane].load(Ordering::Relaxed) as f64 / wall as f64
    }
}

/// The performance context threaded through the hot path: an optional
/// worker pool (serial when absent), the frame arena, and the inter-frame
/// pipeline depth.
///
/// Cloning is cheap: the pool is shared, the arena is per-clone (arenas
/// are deliberately not `Sync`; each thread of control owns its own).
#[derive(Debug, Default)]
pub struct PerfContext {
    /// Worker pool; `None` runs every kernel serially (the reference
    /// execution that all pooled runs must match bit for bit).
    pub pool: Option<Arc<pool::WorkerPool>>,
    /// Reusable per-frame scratch buffers.
    pub arena: arena::FrameArena,
    /// Inter-frame pipeline depth for `Sov::drive_with_plan` and
    /// [`pipeline::FramePipeline`]: `0` or `1` keeps today's serial frame
    /// schedule; `d > 1` overlaps up to `d` in-flight frames across the
    /// sensing/perception/planning lanes. Requires a pool with at least
    /// three lanes to take effect (it silently — and bit-identically —
    /// falls back to serial otherwise).
    pub pipeline_depth: usize,
    /// Per-lane busy/idle telemetry of the most recent piped drive
    /// (zeroed and refilled by each piped `Sov::drive_with_plan`).
    pub occupancy: Arc<LaneOccupancy>,
    /// End-to-end tail-latency attribution of the most recent drive:
    /// per-stage compute / ring-queue wait / drain-stall samples, recorded
    /// allocation-free into the arena by the sequencer (see
    /// [`ledger::LatencyLedger`]). Write-only telemetry — never read back
    /// into any computed value.
    pub ledger: ledger::LatencyLedger,
    /// Deadline-driven tail-optimization knobs (priority draining and
    /// adaptive shedding); both off by default.
    pub tail: ledger::TailPolicy,
}

impl PerfContext {
    /// A serial context: no pool, fresh arena.
    #[must_use]
    pub fn serial() -> Self {
        Self::default()
    }

    /// A context backed by a pool with `workers` parallel lanes (no
    /// inter-frame pipelining).
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Self {
            pool: Some(Arc::new(pool::WorkerPool::new(workers))),
            pipeline_depth: 1,
            ..Self::default()
        }
    }

    /// A context that pipelines up to `depth` in-flight frames across the
    /// three coarse stages, backed by a **four**-lane pool: one worker
    /// lane each for the visual front-end (sensing), the detector
    /// (perception), and the MPC planner, with the sequencer on the
    /// calling thread. `with_pipeline(1)` is exactly the serial schedule.
    #[must_use]
    pub fn with_pipeline(depth: usize) -> Self {
        Self::with_pipeline_workers(depth, 4)
    }

    /// [`PerfContext::with_pipeline`] with an explicit pool size, for
    /// ablations over depth × workers. Three lanes host the detector and
    /// planner but keep the visual front-end on the sequencer; fewer than
    /// three cannot host the stages at all, so such contexts run the
    /// serial schedule (every variant bit-identical by construction).
    /// `workers == 0` means no pool at all — the pathological
    /// "piped but nothing to pipe onto" cell, which
    /// [`PerfContext::effective_pipeline_depth`] normalizes to serial.
    #[must_use]
    pub fn with_pipeline_workers(depth: usize, workers: usize) -> Self {
        Self {
            pool: (workers > 0).then(|| Arc::new(pool::WorkerPool::new(workers))),
            pipeline_depth: depth,
            ..Self::default()
        }
    }

    /// The pool, if any, as a borrowed option (the form kernels accept).
    #[must_use]
    pub fn pool(&self) -> Option<&pool::WorkerPool> {
        self.pool.as_deref()
    }

    /// Effective inter-frame pipeline depth (`0` normalizes to `1`).
    #[must_use]
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline_depth.max(1)
    }

    /// Returns `self` with the given tail policy installed (builder
    /// form, for ablation cells).
    #[must_use]
    pub fn with_tail_policy(mut self, tail: ledger::TailPolicy) -> Self {
        self.tail = tail;
        self
    }

    /// The pipeline depth that will actually take effect: a depth > 1
    /// requires a pool with at least three lanes to host the stages, so
    /// anything less normalizes to `1` (the serial schedule). This is the
    /// single gate both `Sov::drive_with_plan` and the benches consult —
    /// piped mode without a worker pool falls back to serial instead of
    /// paying ring overhead with no overlap.
    #[must_use]
    pub fn effective_pipeline_depth(&self) -> usize {
        let depth = self.pipeline_depth();
        if depth > 1 && self.pool().is_some_and(|p| p.lanes() >= 3) {
            depth
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_context_has_no_pool() {
        let ctx = PerfContext::serial();
        assert!(ctx.pool().is_none());
    }

    #[test]
    fn worker_context_reports_lanes() {
        let ctx = PerfContext::with_workers(3);
        assert_eq!(ctx.pool().unwrap().lanes(), 3);
        assert_eq!(ctx.pipeline_depth(), 1, "no inter-frame pipelining");
    }

    #[test]
    fn pipeline_context_has_four_lanes_and_the_depth() {
        let ctx = PerfContext::with_pipeline(3);
        assert_eq!(ctx.pool().unwrap().lanes(), 4, "front-end lane included");
        assert_eq!(ctx.pipeline_depth(), 3);
        let ablate = PerfContext::with_pipeline_workers(4, 8);
        assert_eq!(ablate.pool().unwrap().lanes(), 8);
        assert_eq!(ablate.pipeline_depth(), 4);
        assert_eq!(PerfContext::serial().pipeline_depth(), 1, "0 → serial");
    }

    #[test]
    fn effective_depth_requires_three_lanes() {
        assert_eq!(PerfContext::serial().effective_pipeline_depth(), 1);
        let no_pool = PerfContext {
            pipeline_depth: 3,
            ..PerfContext::default()
        };
        assert_eq!(no_pool.effective_pipeline_depth(), 1, "no pool → serial");
        let narrow = PerfContext::with_pipeline_workers(3, 2);
        assert_eq!(narrow.effective_pipeline_depth(), 1, "2 lanes → serial");
        let zero = PerfContext::with_pipeline_workers(2, 0);
        assert!(zero.pool().is_none(), "0 workers → no pool");
        assert_eq!(zero.effective_pipeline_depth(), 1, "d2/w0 → serial");
        let wide = PerfContext::with_pipeline_workers(3, 3);
        assert_eq!(wide.effective_pipeline_depth(), 3);
        let tail = PerfContext::serial().with_tail_policy(ledger::TailPolicy::draining());
        assert!(tail.tail.drain && !tail.tail.shed);
    }

    #[test]
    fn occupancy_accumulates_and_resets() {
        let occ = LaneOccupancy::default();
        occ.record(LaneOccupancy::SENSING, Duration::from_millis(30));
        occ.record(LaneOccupancy::SENSING, Duration::from_millis(20));
        occ.record(LaneOccupancy::PLANNING, Duration::from_millis(10));
        assert_eq!(occ.fraction(LaneOccupancy::SENSING), 0.0, "no wall yet");
        occ.set_wall(Duration::from_millis(100));
        assert!((occ.fraction(LaneOccupancy::SENSING) - 0.5).abs() < 1e-12);
        assert!((occ.fraction(LaneOccupancy::PLANNING) - 0.1).abs() < 1e-12);
        assert_eq!(occ.fraction(LaneOccupancy::PERCEPTION), 0.0);
        occ.reset();
        assert_eq!(occ.busy(LaneOccupancy::SENSING), Duration::ZERO);
        assert_eq!(occ.wall(), Duration::ZERO);
    }
}
