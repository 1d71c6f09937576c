//! The workspace's one runtime: deterministic data parallelism inside a
//! frame (Sec. VI, Fig. 4) and task-level pipelining across frames
//! (Sec. IV, Fig. 5).
//!
//! The paper's LiDAR case study shows that the real bottleneck of the
//! perception stack is *within* a frame: irregular point-cloud kernels and
//! image processing dominated by memory traffic and redundant data
//! movement. Across frames, [`pipeline::StageNode`] is the one lane
//! protocol: a sequencer runs each stage inline or on a pool lane behind
//! the bounded SPSC rings of [`queue`], with one program for every
//! placement. Two sequencers use it: `Sov::drive_with_plan` and
//! [`pipeline::FramePipeline`], which overlaps sensing → perception →
//! planning over frame indices (Fig. 5). The rest of this crate supplies
//! the complementary layer — data parallelism *inside* each stage — plus the
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

use pipeline::Placement;
use std::sync::Arc;

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
    /// Inter-frame pipeline depth for `Sov::drive_with_plan`: `0` or `1`
    /// keeps today's serial frame schedule; `d > 1` overlaps up to `d`
    /// in-flight frames per stage node across the
    /// sensing/perception/planning stages. Requires a pool with at least
    /// three lanes to take effect (it silently — and bit-identically —
    /// falls back to serial otherwise); see
    /// [`PerfContext::stage_placement`].
    pub pipeline_depth: usize,
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
    /// three coarse stages, backed by a **four**-lane pool: the visual
    /// front-end (sensing), the detector (perception) and the MPC planner
    /// each run as a stage node on a worker lane, with the sequencer on
    /// the calling thread (see [`PerfContext::stage_placement`]).
    /// `with_pipeline(1)` is exactly the serial schedule.
    #[must_use]
    pub fn with_pipeline(depth: usize) -> Self {
        Self::with_pipeline_workers(depth, 4)
    }

    /// [`PerfContext::with_pipeline`] with an explicit pool size, for
    /// ablations over depth × workers. [`PerfContext::stage_placement`]
    /// maps the stages onto the pool: three lanes put the detector and
    /// planner nodes on lanes and keep the visual front-end inline on the
    /// sequencer; fewer than three cannot host the stages at all, so such
    /// contexts run every node inline — the serial schedule (every
    /// mapping bit-identical by construction). `workers == 0` means no
    /// pool at all — the pathological "piped but nothing to pipe onto"
    /// cell, which [`PerfContext::effective_pipeline_depth`] normalizes to
    /// serial.
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
    /// anything less normalizes to `1` (the serial schedule) instead of
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

    /// Where each drive stage node runs, indexed by the
    /// [`ledger::SENSING`], [`ledger::PERCEPTION`] and
    /// [`ledger::PLANNING`] constants. The one placement decision that
    /// both `Sov::drive_with_plan` and the benches consult: serial puts
    /// every node inline; a pipelined context with three lanes puts the
    /// detector and planner on lanes and keeps the front-end inline; four
    /// or more lanes put all three on lanes. Every mapping produces the
    /// same drive bit for bit.
    #[must_use]
    pub fn stage_placement(&self) -> [Placement; ledger::STAGES] {
        use Placement::{Inline, Lane};
        match (
            self.effective_pipeline_depth(),
            self.pool().map(pool::WorkerPool::lanes),
        ) {
            (1, _) => [Inline; ledger::STAGES],
            (_, Some(lanes)) if lanes >= 4 => [Lane; ledger::STAGES],
            _ => [Inline, Lane, Lane],
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
        use Placement::{Inline, Lane};
        assert_eq!(PerfContext::serial().effective_pipeline_depth(), 1);
        assert_eq!(PerfContext::serial().stage_placement(), [Inline; 3]);
        let no_pool = PerfContext {
            pipeline_depth: 3,
            ..PerfContext::default()
        };
        assert_eq!(no_pool.effective_pipeline_depth(), 1, "no pool → serial");
        let narrow = PerfContext::with_pipeline_workers(3, 2);
        assert_eq!(narrow.effective_pipeline_depth(), 1, "2 lanes → serial");
        assert_eq!(narrow.stage_placement(), [Inline; 3]);
        let zero = PerfContext::with_pipeline_workers(2, 0);
        assert!(zero.pool().is_none(), "0 workers → no pool");
        assert_eq!(zero.effective_pipeline_depth(), 1, "d2/w0 → serial");
        let wide = PerfContext::with_pipeline_workers(3, 3);
        assert_eq!(wide.effective_pipeline_depth(), 3);
        assert_eq!(
            wide.stage_placement(),
            [Inline, Lane, Lane],
            "front-end inline"
        );
        assert_eq!(PerfContext::with_pipeline(3).stage_placement(), [Lane; 3]);
        assert_eq!(
            PerfContext::with_workers(8).stage_placement(),
            [Inline; 3],
            "depth 1"
        );
        let tail = PerfContext::serial().with_tail_policy(ledger::TailPolicy::draining());
        assert!(tail.tail.drain && !tail.tail.shed);
    }
}
