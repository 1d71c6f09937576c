//! The workspace's one runtime: deterministic data parallelism inside a
//! frame (Sec. VI, Fig. 4) and task-level pipelining across frames
//! (Sec. IV, Fig. 5).
//!
//! The paper's LiDAR case study shows that the real bottleneck of the
//! perception stack is *within* a frame: irregular point-cloud kernels and
//! image processing dominated by memory traffic and redundant data
//! movement. Across frames, [`pipeline::FramePipeline`] overlaps sensing
//! → perception → planning over frame indices (the Fig. 5 replay, whose
//! stages last milliseconds): sensing and perception run on a scoped
//! thread each, planning on the calling thread, with frames moving over
//! `std::sync::mpsc` channels. The rest of this crate supplies the
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
//! accept an optional pool and arena (the `perf_matrix` chain passes
//! both). `sov-core` threads a [`PerfContext`] through
//! `Sov::drive_with_plan`: the drive takes its buffers from the context's
//! arena and runs every stage on the calling thread, timing each call
//! with [`pipeline::run_inline`] into the context's [`ledger`]. A drive's
//! simulated stages last microseconds, about the cost of one channel
//! hand-off, so a drive does not pipeline (DESIGN.md §9).

#![deny(missing_docs)]

pub mod arena;
pub mod ledger;
pub mod pipeline;
pub mod pool;

/// The performance context of a drive: the frame arena its buffers come
/// from, the latency ledger its stage calls are timed into, and the tail
/// policy. A drive runs on the calling thread whatever the context, and
/// no field ever changes a computed value except [`TailPolicy::shed`],
/// which sheds camera frames on purpose.
///
/// [`TailPolicy::shed`]: ledger::TailPolicy::shed
#[derive(Debug, Default)]
pub struct PerfContext {
    /// Reusable per-frame scratch buffers.
    pub arena: arena::FrameArena,
    /// Tail-latency telemetry of the most recent drive: one compute sample
    /// per front-end, detector and planner call, recorded allocation-free
    /// into the arena (see [`ledger::LatencyLedger`]). Write-only — never
    /// read back into any computed value.
    pub ledger: ledger::LatencyLedger,
    /// Deadline-driven tail policy (adaptive shedding); off by default.
    pub tail: ledger::TailPolicy,
}

impl PerfContext {
    /// Returns `self` with the given tail policy installed (builder
    /// form, for ablation cells).
    #[must_use]
    pub fn with_tail_policy(mut self, tail: ledger::TailPolicy) -> Self {
        self.tail = tail;
        self
    }
}
