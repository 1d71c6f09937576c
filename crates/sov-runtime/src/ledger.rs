//! End-to-end tail-latency attribution (COLA layer).
//!
//! The paper's Eq. 1 bounds *end-to-end* frame latency, but a bound is
//! only actionable if every nanosecond of a slow frame can be blamed on
//! something: stage compute, queue wait, or a stall of the next stage
//! waiting on this one. The COLA argument (PAPERS.md) is that L4 safety
//! hangs on the p99.9/max tail of exactly this decomposition — the median
//! tells you nothing about the one frame in a thousand that arrives late.
//!
//! [`LatencyLedger`] is the recording half: an allocation-free (arena
//! backed) log of per-stage and per-frame samples, written exclusively by
//! the thread that runs a drive. Every stage sample carries an exact
//! telescoping decomposition of its measured span:
//!
//! ```text
//! span = (t1 − t0)   queue-in:  input handed over → compute starts
//!      + (t2 − t1)   compute:   the stage's own work
//!      + (t3 − t2)   done-wait: result ready → the next stage takes it
//! ```
//!
//! with the done-wait further split into **stall** (the portion the
//! taking stage spent *blocked* waiting for this result — measured
//! against a pre-`recv` stamp) and queue-out (the result sat in its
//! channel while the taker did other work). All four stamps come from one
//! monotonic clock, so the components sum to the directly measured span
//! exactly; [`StageSample::residual_ns`] is the audit of that identity. A
//! drive runs every stage inline, so its samples are pure compute; only
//! the Fig. 5 replay (`FramePipeline::run`, which collects its samples
//! without a ledger) hands results between threads.
//!
//! The ledger is pure telemetry: it is written with interior mutability
//! from that thread only, never read back into any computed value, and
//! therefore cannot perturb the bit-identity invariant. [`TailPolicy`]
//! lives here too (the knob is runtime state), but the shedding
//! *mechanism* — deadline prediction and the shed decision — lives in
//! `sov-core`, where determinism is argued.

use crate::arena::FrameArena;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Number of attributed pipeline stages, indexed by [`SENSING`],
/// [`PERCEPTION`] and [`PLANNING`].
pub const STAGES: usize = 3;
/// Stage index of sensing (the visual front-end).
pub const SENSING: usize = 0;
/// Stage index of perception (the detector).
pub const PERCEPTION: usize = 1;
/// Stage index of planning (MPC).
pub const PLANNING: usize = 2;

/// One stage's latency decomposition for one frame.
///
/// Built from four monotonic stamps (`t0` input handed over, `t1` compute
/// start, `t2` compute end, `t3` taken by the next stage) plus the
/// blocked wait measured at the taking `recv`; see the module docs for
/// the telescoping identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSample {
    /// Frame index (camera frame for sensing/perception, control frame
    /// for planning).
    pub frame: u64,
    /// Stage index ([`SENSING`], [`PERCEPTION`] or [`PLANNING`]).
    pub stage: usize,
    /// Directly measured hand-in → take span (`t3 − t0`), ns.
    pub span_ns: u64,
    /// Queue wait: input wait before compute plus the result's wait in
    /// its channel while the taking stage was busy elsewhere, ns.
    pub queue_ns: u64,
    /// The stage's own compute time (`t2 − t1`), ns.
    pub compute_ns: u64,
    /// Time the taking stage spent *blocked* waiting for this result
    /// past its compute end, ns.
    pub stall_ns: u64,
}

impl StageSample {
    /// Builds a sample from the four stamps plus the taking stage's
    /// blocked wait past `t2` (`0` when nothing waits).
    ///
    /// An inline execution passes `t0 == t1` and `t2 == t3` (no queues,
    /// no stall), which degenerates to `span == compute` exactly.
    #[must_use]
    pub fn from_stamps(
        stage: usize,
        frame: u64,
        t0: Instant,
        t1: Instant,
        t2: Instant,
        t3: Instant,
        stall_ns: u64,
    ) -> Self {
        let span_ns = t3.saturating_duration_since(t0).as_nanos() as u64;
        let queue_in = t1.saturating_duration_since(t0).as_nanos() as u64;
        let compute_ns = t2.saturating_duration_since(t1).as_nanos() as u64;
        let done_wait = t3.saturating_duration_since(t2).as_nanos() as u64;
        // The stall cannot exceed the done-wait it is a part of.
        let stall_ns = stall_ns.min(done_wait);
        Self {
            frame,
            stage,
            span_ns,
            queue_ns: queue_in + (done_wait - stall_ns),
            compute_ns,
            stall_ns,
        }
    }

    /// Absolute difference between the measured span and the sum of its
    /// attributed components — zero when the decomposition is exact.
    #[must_use]
    pub fn residual_ns(&self) -> u64 {
        let sum = self.queue_ns + self.compute_ns + self.stall_ns;
        self.span_ns.abs_diff(sum)
    }
}

/// One control frame's end-to-end latency on the control-critical path:
/// the planner call of that frame, from dispatch to the command it
/// returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSample {
    /// Control frame index.
    pub frame: u64,
    /// Directly measured planner span, ns.
    pub total_ns: u64,
    /// Whether the vehicle was degraded (non-Nominal) at dispatch.
    pub degraded: bool,
}

impl FrameSample {
    /// Derives the control frame's sample from its planning-stage sample.
    #[must_use]
    pub fn from_stage(s: &StageSample, degraded: bool) -> Self {
        Self {
            frame: s.frame,
            total_ns: s.span_ns,
            degraded,
        }
    }
}

/// The deadline-driven tail-optimization knob, threaded through
/// [`crate::PerfContext`]. Off by default: the nominal schedule is the
/// reference every digest is recorded against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TailPolicy {
    /// Adaptive shedding: when the monitor predicts a *severe* overrun,
    /// the lowest-priority pending stage (the speculative camera frame)
    /// is dropped for that slot. Deterministic (driven only by modeled
    /// latencies) but **output-changing**: a shed drive differs from the
    /// nominal drive of the same seed.
    pub shed: bool,
}

impl TailPolicy {
    /// Adaptive shedding on.
    #[must_use]
    pub fn shedding() -> Self {
        Self { shed: true }
    }
}

/// Event counters accumulated by a [`LatencyLedger`] over one drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerCounters {
    /// Camera frames shed by the escalation policy.
    pub sheds: u64,
    /// Control ticks at which the deadline monitor predicted an Eq. 1
    /// overrun.
    pub overruns_predicted: u64,
}

/// The allocation-free latency ledger: sample buffers are borrowed from
/// the [`FrameArena`] at [`begin`](LatencyLedger::begin) and recycled at
/// [`finish`](LatencyLedger::finish), so a warm drive records its entire
/// tail breakdown without touching the heap (the same discipline as every
/// other per-frame buffer).
///
/// Written only from the drive's thread (interior
/// mutability, not `Sync` — the owning [`crate::PerfContext`] already is
/// not).
#[derive(Debug, Default)]
pub struct LatencyLedger {
    stages: RefCell<Vec<StageSample>>,
    frames: RefCell<Vec<FrameSample>>,
    sheds: Cell<u64>,
    overruns: Cell<u64>,
}

impl LatencyLedger {
    /// Starts a recording: clears counters and borrows sample buffers
    /// from `arena` when the ledger holds none (a prior
    /// [`finish`](Self::finish) handed them back).
    pub fn begin(&self, arena: &FrameArena) {
        let mut stages = self.stages.borrow_mut();
        let mut frames = self.frames.borrow_mut();
        if stages.capacity() == 0 {
            *stages = arena.take();
        }
        if frames.capacity() == 0 {
            *frames = arena.take();
        }
        stages.clear();
        frames.clear();
        self.sheds.set(0);
        self.overruns.set(0);
    }

    /// Records one stage sample.
    pub fn record_stage(&self, sample: StageSample) {
        self.stages.borrow_mut().push(sample);
    }

    /// Records one control frame's end-to-end sample.
    pub fn record_frame(&self, sample: FrameSample) {
        self.frames.borrow_mut().push(sample);
    }

    /// Notes a shed camera frame.
    pub fn note_shed(&self) {
        self.sheds.set(self.sheds.get() + 1);
    }

    /// Notes a predicted deadline overrun.
    pub fn note_overrun(&self) {
        self.overruns.set(self.overruns.get() + 1);
    }

    /// The event counters recorded since [`begin`](Self::begin).
    #[must_use]
    pub fn counters(&self) -> LedgerCounters {
        LedgerCounters {
            sheds: self.sheds.get(),
            overruns_predicted: self.overruns.get(),
        }
    }

    /// Read access to the recorded samples (stage samples, then frame
    /// samples), without moving them out.
    pub fn with_samples<R>(&self, f: impl FnOnce(&[StageSample], &[FrameSample]) -> R) -> R {
        f(&self.stages.borrow(), &self.frames.borrow())
    }

    /// Ends a recording: hands the sample buffers back to `arena` with
    /// their capacity intact, so the next [`begin`](Self::begin) is
    /// allocation-free.
    pub fn finish(&self, arena: &FrameArena) {
        arena.recycle(std::mem::take(&mut *self.stages.borrow_mut()));
        arena.recycle(std::mem::take(&mut *self.frames.borrow_mut()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn stamps(offsets_us: [u64; 4]) -> [Instant; 4] {
        let base = Instant::now();
        offsets_us.map(|us| base + Duration::from_micros(us))
    }

    #[test]
    fn stage_sample_decomposition_is_exact() {
        let [t0, t1, t2, t3] = stamps([0, 100, 350, 500]);
        let s = StageSample::from_stamps(1, 7, t0, t1, t2, t3, 60_000);
        assert_eq!(s.compute_ns, 250_000);
        assert_eq!(s.stall_ns, 60_000);
        assert_eq!(s.queue_ns, 100_000 + 90_000);
        assert_eq!(s.span_ns, 500_000);
        assert_eq!(s.residual_ns(), 0, "telescoping identity");
    }

    #[test]
    fn stall_is_clamped_to_the_done_wait() {
        let [t0, t1, t2, t3] = stamps([0, 10, 20, 30]);
        let s = StageSample::from_stamps(0, 0, t0, t1, t2, t3, u64::MAX);
        assert_eq!(s.stall_ns, 10_000);
        assert_eq!(s.residual_ns(), 0);
    }

    #[test]
    fn inline_sample_is_pure_compute() {
        let [t0, _, t2, _] = stamps([0, 0, 420, 0]);
        let s = StageSample::from_stamps(2, 3, t0, t0, t2, t2, 0);
        assert_eq!(s.compute_ns, s.span_ns);
        assert_eq!(s.queue_ns, 0);
        assert_eq!(s.stall_ns, 0);
        assert_eq!(s.residual_ns(), 0);
        let f = FrameSample::from_stage(&s, false);
        assert_eq!(f.total_ns, s.span_ns);
    }

    #[test]
    fn ledger_round_trip_is_allocation_free_once_warm() {
        let arena = FrameArena::new();
        let led = LatencyLedger::default();
        let [t0, t1, t2, t3] = stamps([0, 1, 2, 3]);
        // Warm-up recording allocates the two buffers.
        led.begin(&arena);
        led.record_stage(StageSample::from_stamps(0, 0, t0, t1, t2, t3, 0));
        led.record_frame(FrameSample {
            frame: 0,
            total_ns: 1,
            degraded: false,
        });
        led.note_shed();
        led.note_overrun();
        assert_eq!(
            led.counters(),
            LedgerCounters {
                sheds: 1,
                overruns_predicted: 1
            }
        );
        led.with_samples(|stages, frames| {
            assert_eq!(stages.len(), 1);
            assert_eq!(frames.len(), 1);
        });
        led.finish(&arena);
        arena.reset_stats();
        // Steady state: begin/record/finish touches only recycled buffers.
        led.begin(&arena);
        assert_eq!(led.counters(), LedgerCounters::default(), "begin resets");
        led.record_stage(StageSample::from_stamps(1, 1, t0, t1, t2, t3, 0));
        led.with_samples(|stages, frames| {
            assert_eq!(stages.len(), 1, "begin cleared the old samples");
            assert!(frames.is_empty());
        });
        led.finish(&arena);
        assert_eq!(
            arena.stats().allocations,
            0,
            "warm ledger must not allocate"
        );
    }

    #[test]
    fn tail_policy_constructors() {
        assert_eq!(TailPolicy::default(), TailPolicy { shed: false });
        assert!(TailPolicy::shedding().shed);
    }
}
