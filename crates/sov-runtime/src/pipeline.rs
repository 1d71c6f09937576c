//! Deterministic inter-frame software pipelining: overlap sensing,
//! perception, and planning across *successive frames*.
//!
//! The paper's Fig. 5 analysis serializes sensing → perception → planning
//! on each frame's critical path; [`FramePipeline`] keeps that per-frame
//! latency (Eq. 1) untouched while lifting *throughput* toward the
//! reciprocal of the slowest stage: while frame `N` is in planning, frame
//! `N + 1` is in perception and frame `N + 2` in sensing, each on a
//! dedicated lane of the [`WorkerPool`](crate::pool::WorkerPool) connected
//! by bounded SPSC rings ([`crate::queue`]).
//!
//! # Determinism
//!
//! Pipelining changes only *when* (in wall-clock time) each frame's stages
//! execute — never their inputs:
//!
//! * Every ring is FIFO, so each stage processes frames `0, 1, 2, …` in
//!   exactly serial order; stateful stage closures therefore observe the
//!   serial state sequence.
//! * `sense(k)` and `perceive(k)` depend only on the frame index `k` (plus
//!   capacity-only scratch, below); `plan(k)` additionally sees the
//!   *committed* output of frame `k − 1` — and the commit stage runs on
//!   the calling thread in frame order, so that feedback edge is the
//!   serial one by construction.
//!
//! The dataflow graph is thus identical for every pipeline depth and
//! worker count, and frame outputs are **byte-identical** to the serial
//! schedule (depth 1). The proptests in this module and the drive-level
//! tests in `sov-core` assert exactly that.
//!
//! # Allocation discipline
//!
//! Each lane owns a private [`FrameArena`] and every stage product
//! circulates back to its producer over a return ring: the
//! [`StageCtx::recycled`] value handed to `sense`/`perceive` is the
//! carcass of an earlier frame's product, to be overwritten in place. At
//! most `depth + 2` products per stage ever exist, so the steady state
//! allocates nothing. The contract mirrors [`FrameArena`]: recycled values
//! are **capacity-only scratch** — their contents must never influence a
//! stage's output (the depth-1 schedule hands back different carcasses
//! than depth 4, and outputs must still match bit for bit).
//!
//! # Back-pressure and drain
//!
//! Rings are bounded by the configured depth, so a slow stage stalls its
//! producer rather than queueing unboundedly. When the commit stage
//! returns [`FrameControl::Drain`] (e.g. the health monitor left
//! `Nominal`), the sensing lane stops admitting new frames, every frame
//! already in flight commits **in order**, and the remaining frames run
//! serially on the calling thread — degraded operation falls back to the
//! serial schedule instead of reordering frames.
//!
//! # Stage nodes
//!
//! A sequencer that owns its own event loop (`Sov::drive_with_plan`)
//! builds one [`StageNode`] per stage instead: a stateful stage closure
//! run inline at [`dispatch`](StageNode::dispatch) or on a pool lane
//! behind a job ring and a done ring of `depth` slots each, per its
//! [`Placement`]. [`take`](StageNode::take) returns results in dispatch
//! order either way and records their ledger samples, so one sequencer
//! program serves every mapping of stages to lanes; serial is the mapping
//! with every node inline. Lanes never talk to each other, and once
//! `depth` jobs are out `dispatch` first *parks* the oldest result on the
//! sequencer side: the sequencer never blocks on a send, and every
//! blocking receive waits on a lane that is computing.

use crate::arena::FrameArena;
use crate::ledger::{FrameAttribution, LatencyLedger, StageSample};
use crate::pool::WorkerPool;
use crate::queue::{ring, RingReceiver, RingSender};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Per-frame scratch handed to a pipeline stage.
///
/// Both fields are capacity-only: the stage must produce the same output
/// whether `recycled` is `None` (warm-up, serial fallback) or holds any
/// earlier frame's carcass, and whatever the arena hands out.
pub struct StageCtx<'a, T> {
    /// The stage lane's private arena for auxiliary scratch buffers.
    pub arena: &'a FrameArena,
    /// An earlier frame's product from this same stage, returned for
    /// in-place reuse; `None` during warm-up and after a drain.
    pub recycled: Option<T>,
}

/// Verdict returned by the commit stage for each frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameControl {
    /// Keep the pipeline full.
    Continue,
    /// Stop admitting new frames, commit everything in flight in order,
    /// then run the remaining frames serially (degradation fallback).
    Drain,
}

/// Telemetry from one [`FramePipeline::run`].
#[derive(Debug)]
pub struct PipelineRun {
    /// Frames committed (always equals the requested frame count).
    pub frames: u64,
    /// Frames that flowed through the concurrent (pipelined) path; the
    /// rest ran on the serial fallback.
    pub pipelined_frames: u64,
    /// Whether the commit stage ever requested a drain.
    pub drained: bool,
    /// Wall-clock time for the whole run.
    pub wall: Duration,
    /// Per-frame sense-start → commit latency, in frame order. Pipelining
    /// trades this *up* for throughput — report p99, not just p50 (COLA's
    /// tail-latency caveat).
    pub latencies: Vec<Duration>,
    /// Per-frame latency attribution, in frame order: per-stage compute
    /// plus ring-queue wait and commit-thread stall, summing exactly to
    /// each frame's measured sense-start → commit-end span (the COLA
    /// accounting — see [`FrameAttribution`]). Serial-path frames have
    /// zero queue and stall by construction.
    pub attribution: Vec<FrameAttribution>,
    /// `true` when a depth > 1 was requested but the run executed on the
    /// bit-identical serial fallback (no pool, or fewer than three
    /// lanes) — piped mode without workers must not pay ring overhead,
    /// and benches must not present fallback numbers as pipelined ones.
    pub serial_fallback: bool,
}

impl PipelineRun {
    /// Committed frames per wall-clock second.
    #[must_use]
    pub fn throughput_fps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.frames as f64 / secs
    }

    /// Occupancy of `stage` (0 = sense, 1 = perceive, 2 = plan+commit):
    /// its compute time summed over [`attribution`](Self::attribution) —
    /// busy time only, ring waits excluded — over the run's wall time,
    /// `0.0` for an empty run. The bottleneck stage's occupancy should
    /// approach 1 once the pipeline is full (Fig. 5's throughput argument).
    #[must_use]
    pub fn occupancy(&self, stage: usize) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        let busy_ns: u64 = self.attribution.iter().map(|a| a.compute_ns[stage]).sum();
        Duration::from_nanos(busy_ns).as_secs_f64() / wall
    }

    /// The `p`-th percentile (0.0–1.0, nearest-rank) of per-frame latency.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let rank =
            ((p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// A deterministic three-stage inter-frame pipeline executor.
///
/// Depth 1 *is* the serial schedule; any depth with fewer than three pool
/// lanes falls back to it. Both paths execute the identical closure
/// sequence per frame, so outputs match bit for bit (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramePipeline {
    depth: usize,
}

impl FramePipeline {
    /// Creates a pipeline executor with the given depth (ring capacity
    /// between adjacent stages).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "pipeline depth must be at least 1");
        Self { depth }
    }

    /// The configured depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Runs `frames` frames through sense → perceive → plan → commit.
    ///
    /// * `sense(k, ctx)` produces frame `k`'s sensor product from the
    ///   frame index alone (sensing lane).
    /// * `perceive(k, &s, ctx)` consumes it (perception lane).
    /// * `plan(k, &p, prev)` sees the perception product and the
    ///   *committed* output of frame `k − 1` (calling thread).
    /// * `commit(k, &o)` publishes the output and steers the pipeline
    ///   (calling thread — this is the sequencing stage).
    ///
    /// Requires `pool` with ≥ 3 lanes and depth > 1 to actually overlap;
    /// otherwise every frame runs on the bit-identical serial fallback.
    ///
    /// # Panics
    ///
    /// A panic in any stage reaches the caller: on the pipelined path the
    /// failing stage's rings close, the other lanes drain and exit, and
    /// the panic is re-raised here, leaving the pool usable.
    pub fn run<S, P, O, FS, FP, FL, FC>(
        &self,
        pool: Option<&WorkerPool>,
        frames: u64,
        mut sense: FS,
        mut perceive: FP,
        mut plan: FL,
        mut commit: FC,
    ) -> PipelineRun
    where
        S: Send,
        P: Send,
        FS: FnMut(u64, StageCtx<'_, S>) -> S + Send,
        FP: FnMut(u64, &S, StageCtx<'_, P>) -> P + Send,
        FL: FnMut(u64, &P, Option<&O>) -> O,
        FC: FnMut(u64, &O) -> FrameControl,
    {
        let started = Instant::now();
        let depth = self.depth;
        let pipelined = depth > 1 && frames > 0 && pool.is_some_and(|p| p.lanes() >= 3);
        let mut latencies: Vec<Duration> = Vec::with_capacity(frames as usize);
        let mut attribution: Vec<FrameAttribution> = Vec::with_capacity(frames as usize);
        let mut committed: u64 = 0;
        let mut pipelined_frames: u64 = 0;
        let mut drained = false;
        let mut prev: Option<O> = None;

        if pipelined {
            let pool = pool.expect("pipelined implies a pool");
            let stop = AtomicBool::new(false);
            // Forward rings bound the in-flight depth (back-pressure);
            // return rings circulate product carcasses back to their
            // producer. At most `depth + 2` products per stage ever exist,
            // so capacity `depth + 2` means return sends never block.
            // Forward payloads carry the frame's stage stamps so the
            // sequencing stage can attribute the full span: the sensing
            // ring adds (sense-start, sense-end); the perception ring
            // extends that to [a0, a1, b0, b1] (perceive-start/-end).
            let (s_tx, s_rx) = ring::<(u64, S, Instant, Instant)>(depth);
            let (s_ret_tx, s_ret_rx) = ring::<S>(depth + 2);
            let (p_tx, p_rx) = ring::<(u64, P, [Instant; 4])>(depth);
            let (p_ret_tx, p_ret_rx) = ring::<P>(depth + 2);
            let sense = &mut sense;
            let perceive = &mut perceive;
            let stop_ref = &stop;

            let (c, d, p_out) = pool.run_lanes(
                vec![
                    // Sensing lane: admits frames in order until told to
                    // drain. After priming `depth + 2` products it blocks
                    // on the return ring — the carcass of frame
                    // `k - depth - 2` is guaranteed to arrive because the
                    // downstream stages always make progress.
                    Box::new(move || {
                        let arena = FrameArena::new();
                        for k in 0..frames {
                            if stop_ref.load(Ordering::Acquire) {
                                break;
                            }
                            let recycled = if k >= depth as u64 + 2 {
                                match s_ret_rx.recv() {
                                    Some(s) => Some(s),
                                    None => break, // peer lane gone
                                }
                            } else {
                                s_ret_rx.try_recv()
                            };
                            let a0 = Instant::now();
                            let s = sense(
                                k,
                                StageCtx {
                                    arena: &arena,
                                    recycled,
                                },
                            );
                            let a1 = Instant::now();
                            if s_tx.send((k, s, a0, a1)).is_err() {
                                break;
                            }
                        }
                    }),
                    // Perception lane: strictly FIFO over the sensing ring.
                    Box::new(move || {
                        let arena = FrameArena::new();
                        let mut consumed: u64 = 0;
                        while let Some((k, s, a0, a1)) = s_rx.recv() {
                            let recycled = if consumed >= depth as u64 + 2 {
                                match p_ret_rx.recv() {
                                    Some(p) => Some(p),
                                    None => break,
                                }
                            } else {
                                p_ret_rx.try_recv()
                            };
                            let b0 = Instant::now();
                            let p = perceive(
                                k,
                                &s,
                                StageCtx {
                                    arena: &arena,
                                    recycled,
                                },
                            );
                            let b1 = Instant::now();
                            let _ = s_ret_tx.send(s);
                            if p_tx.send((k, p, [a0, a1, b0, b1])).is_err() {
                                break;
                            }
                            consumed += 1;
                        }
                    }),
                ],
                // Plan + commit on the calling thread: the sequencing
                // stage. Frames commit in FIFO (= serial) order, and each
                // plan sees the committed output of the previous frame.
                || {
                    // Own the ring endpoints, so a `plan`/`commit` panic
                    // drops them while unwinding: the closed rings release
                    // the lanes, and `run_lanes` re-raises the panic
                    // instead of waiting on a lane blocked in `send`.
                    let (p_rx, p_ret_tx) = (p_rx, p_ret_tx);
                    let mut committed: u64 = 0;
                    let mut drained = false;
                    let mut prev: Option<O> = None;
                    loop {
                        // Pre-recv stamp: time spent blocked here past the
                        // frame's perceive-end is attributed as stall, the
                        // earlier ring residency as queue wait.
                        let t_r = Instant::now();
                        let Some((k, p, st)) = p_rx.recv() else { break };
                        let c0 = Instant::now();
                        let o = plan(k, &p, prev.as_ref());
                        let _ = p_ret_tx.send(p);
                        latencies.push(st[0].elapsed());
                        let verdict = commit(k, &o);
                        let c1 = Instant::now();
                        attribution.push(FrameAttribution::from_stamps(
                            k, st[0], st[1], st[2], st[3], t_r, c0, c1,
                        ));
                        prev = Some(o);
                        committed += 1;
                        if verdict == FrameControl::Drain && !drained {
                            drained = true;
                            stop.store(true, Ordering::Release);
                        }
                    }
                    (committed, drained, prev)
                },
            );
            committed = c;
            pipelined_frames = c;
            drained = d;
            prev = p_out;
        }

        // Serial path: all frames when not pipelined, or the post-drain
        // tail. Identical closure sequence per frame → bit-identical.
        let s_arena = FrameArena::new();
        let p_arena = FrameArena::new();
        let mut s_prev: Option<S> = None;
        let mut p_prev: Option<P> = None;
        for k in committed..frames {
            let t0 = Instant::now();
            let s = sense(
                k,
                StageCtx {
                    arena: &s_arena,
                    recycled: s_prev.take(),
                },
            );
            let t1 = Instant::now();
            let p = perceive(
                k,
                &s,
                StageCtx {
                    arena: &p_arena,
                    recycled: p_prev.take(),
                },
            );
            let t2 = Instant::now();
            s_prev = Some(s);
            let o = plan(k, &p, prev.as_ref());
            p_prev = Some(p);
            latencies.push(t0.elapsed());
            if commit(k, &o) == FrameControl::Drain {
                drained = true;
            }
            let t3 = Instant::now();
            // Degenerate stamps: stages abut, so queue and stall collapse
            // to zero and the components sum to the span exactly.
            attribution.push(FrameAttribution::from_stamps(k, t0, t1, t1, t2, t2, t2, t3));
            prev = Some(o);
        }

        // The fallback loop above always finishes the remaining
        // `committed..frames` range, so every requested frame committed.
        PipelineRun {
            frames,
            pipelined_frames,
            drained,
            wall: started.elapsed(),
            latencies,
            attribution,
            serial_fallback: depth > 1 && frames > 0 && !pipelined,
        }
    }
}

/// Where a [`StageNode`] runs its stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// On the sequencer, inside [`StageNode::dispatch`].
    Inline,
    /// On a pool lane, behind a job ring and a done ring.
    Lane,
}

/// A lane node's worker loop, to run on a pool lane through
/// [`WorkerPool::run_lanes`] for as long as the node is alive.
pub type LaneBody<'env> = Box<dyn FnOnce() + Send + 'env>;

/// One stage result: frame, output, and the dispatch, compute-start and
/// compute-end stamps of its ledger sample.
type Done<Out> = (u64, Out, [Instant; 3]);

enum Exec<'env, In, Out> {
    Inline(Box<dyn FnMut(In) -> Out + Send + 'env>),
    Lane {
        jobs: RingSender<(u64, In, Instant)>,
        done: RingReceiver<Done<Out>>,
        /// Jobs sent whose results are still on the lane side.
        out: usize,
    },
}

/// One pipeline stage as the sequencer sees it (module docs, "Stage
/// nodes"): a stateful stage closure run inline or on a pool lane, with
/// results taken back in dispatch order and attributed in the ledger.
pub struct StageNode<'env, In, Out> {
    /// Stage index of the ledger samples (a [`crate::ledger`] constant).
    stage: usize,
    depth: usize,
    ledger: &'env LatencyLedger,
    exec: Exec<'env, In, Out>,
    /// Results already on the sequencer side — inline results and lane
    /// results parked by `dispatch` — with the stall spent parking them.
    parked: VecDeque<(Done<Out>, u64)>,
}

/// Blocks for a lane's next result; returns it with its absorb stamp and
/// the stall: the blocked time past the lane's compute end (a result
/// that was already waiting stalls nothing).
fn wait<Out>(done: &RingReceiver<Done<Out>>) -> (Done<Out>, Instant, u64) {
    let t_r = Instant::now();
    let d = done.recv().expect("stage lane exited");
    let t3 = Instant::now();
    let stall_ns = t3.saturating_duration_since(t_r.max(d.2[2])).as_nanos() as u64;
    (d, t3, stall_ns)
}

impl<'env, In: Send + 'env, Out: Send + 'env> StageNode<'env, In, Out> {
    /// Builds a node for `stage` running where `placement` says, with
    /// `depth` jobs in flight at most; `stage_index` tags its samples in
    /// `ledger`. A lane node also returns its [`LaneBody`], which must be
    /// running on a pool lane before the node's results are taken.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new<F>(
        stage_index: usize,
        placement: Placement,
        depth: usize,
        ledger: &'env LatencyLedger,
        mut stage: F,
    ) -> (Self, Option<LaneBody<'env>>)
    where
        F: FnMut(In) -> Out + Send + 'env,
    {
        assert!(depth > 0, "a stage node needs depth at least 1");
        let (exec, body) = match placement {
            Placement::Inline => (Exec::Inline(Box::new(stage)), None),
            Placement::Lane => {
                let (jobs, job_rx) = ring::<(u64, In, Instant)>(depth);
                let (done_tx, done) = ring::<Done<Out>>(depth);
                let body: LaneBody<'env> = Box::new(move || {
                    while let Some((frame, input, t0)) = job_rx.recv() {
                        let t1 = Instant::now();
                        let out = stage(input);
                        if done_tx
                            .send((frame, out, [t0, t1, Instant::now()]))
                            .is_err()
                        {
                            break;
                        }
                    }
                });
                (Exec::Lane { jobs, done, out: 0 }, Some(body))
            }
        };
        let node = Self {
            stage: stage_index,
            depth,
            ledger,
            exec,
            parked: VecDeque::with_capacity(depth),
        };
        (node, body)
    }

    /// Hands `input` (frame `frame`) to the stage: runs it now when
    /// inline; otherwise sends it to the lane, first parking the oldest
    /// lane result when `depth` jobs are already out.
    ///
    /// # Panics
    ///
    /// Panics if the node's lane has exited (its stage panicked).
    pub fn dispatch(&mut self, frame: u64, input: In) {
        match &mut self.exec {
            Exec::Inline(stage) => {
                let t0 = Instant::now();
                let out = stage(input);
                self.parked
                    .push_back(((frame, out, [t0, t0, Instant::now()]), 0));
            }
            Exec::Lane { jobs, done, out } => {
                if *out == self.depth {
                    let (d, _, stall_ns) = wait(done);
                    *out -= 1;
                    self.parked.push_back((d, stall_ns));
                }
                if jobs.send((frame, input, Instant::now())).is_err() {
                    panic!("stage lane exited");
                }
                *out += 1;
            }
        }
    }

    /// The oldest result not yet taken, in dispatch order, with its ledger
    /// sample (already recorded). With `block`, waits for the lane when
    /// the result is still being computed; without, returns `None` unless
    /// it is ready. `None` always when nothing is outstanding, so
    /// `while let Some(..) = node.take(true)` drains the node.
    ///
    /// Inline results are pure compute (`t0 == t1`, `t2 == t3`, no stall);
    /// a lane result is absorbed (`t3`) when taken, parked or not.
    ///
    /// # Panics
    ///
    /// Panics if a blocking take finds the node's lane gone.
    pub fn take(&mut self, block: bool) -> Option<(Out, StageSample)> {
        let ((frame, out, [t0, t1, t2]), t3, stall_ns) =
            match (self.parked.pop_front(), &mut self.exec) {
                (Some((d, _)), Exec::Inline(_)) => {
                    let t2 = d.2[2];
                    (d, t2, 0)
                }
                (Some((d, stall_ns)), Exec::Lane { .. }) => (d, Instant::now(), stall_ns),
                (None, Exec::Lane { done, out, .. }) if *out > 0 => {
                    let taken = if block {
                        wait(done)
                    } else {
                        (done.try_recv()?, Instant::now(), 0)
                    };
                    *out -= 1;
                    taken
                }
                (None, _) => return None,
            };
        let sample = StageSample::from_stamps(self.stage, frame, t0, t1, t2, t3, stall_ns);
        self.ledger.record_stage(sample);
        Some((out, sample))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, Arc};

    /// Deterministic workload exercising all four stages: `sense` fills a
    /// buffer from `k`, `perceive` folds it, `plan` mixes in the previous
    /// committed output (the feedback edge), `commit` records checksums.
    fn checksums(pool: Option<&WorkerPool>, depth: usize, frames: u64) -> (Vec<u64>, PipelineRun) {
        let mut out = Vec::new();
        let run = FramePipeline::new(depth).run(
            pool,
            frames,
            |k, ctx: StageCtx<'_, Vec<u64>>| {
                let mut buf = ctx.recycled.unwrap_or_else(|| ctx.arena.take());
                buf.clear();
                buf.extend((0..64).map(|i| (k + 1).wrapping_mul(0x9E37_79B9).rotate_left(i)));
                buf
            },
            |k, s, ctx: StageCtx<'_, Vec<u64>>| {
                let mut buf = ctx.recycled.unwrap_or_else(|| ctx.arena.take());
                buf.clear();
                buf.push(
                    s.iter()
                        .fold(k, |h, v| (h ^ v).wrapping_mul(0x0100_0000_01b3)),
                );
                buf
            },
            |k, p, prev: Option<&u64>| p[0] ^ prev.copied().unwrap_or(k),
            |_, o| {
                out.push(*o);
                FrameControl::Continue
            },
        );
        (out, run)
    }

    #[test]
    fn depth_one_is_the_serial_schedule() {
        let pool = WorkerPool::new(4);
        let (serial, run) = checksums(None, 1, 40);
        let (d1, run1) = checksums(Some(&pool), 1, 40);
        assert_eq!(serial, d1);
        assert_eq!(run.pipelined_frames, 0);
        assert_eq!(run1.pipelined_frames, 0, "depth 1 never spins up lanes");
    }

    #[test]
    fn outputs_are_identical_across_depths_and_lane_counts() {
        let (reference, _) = checksums(None, 1, 60);
        for lanes in [1, 2, 3, 4, 8] {
            let pool = WorkerPool::new(lanes);
            for depth in 1..=4 {
                let (out, run) = checksums(Some(&pool), depth, 60);
                assert_eq!(out, reference, "depth {depth}, lanes {lanes}");
                assert_eq!(run.frames, 60);
                assert_eq!(run.latencies.len(), 60);
                if depth > 1 && lanes >= 3 {
                    assert_eq!(run.pipelined_frames, 60, "depth {depth}, lanes {lanes}");
                }
            }
        }
    }

    #[test]
    fn too_few_lanes_falls_back_to_serial() {
        let pool = WorkerPool::new(2);
        let (out, run) = checksums(Some(&pool), 4, 20);
        let (reference, reference_run) = checksums(None, 1, 20);
        assert_eq!(out, reference);
        assert_eq!(run.pipelined_frames, 0, "2 lanes cannot host 3 stages");
        assert!(run.serial_fallback, "depth 4 on 2 lanes is a fallback run");
        assert!(!reference_run.serial_fallback, "depth 1 is not a fallback");
    }

    #[test]
    fn attribution_components_sum_to_span_on_both_paths() {
        let pool = WorkerPool::new(4);
        for (pool_opt, depth) in [(None, 1usize), (Some(&pool), 3)] {
            let (_, run) = checksums(pool_opt, depth, 40);
            assert_eq!(run.attribution.len(), 40, "one attribution per frame");
            for (i, a) in run.attribution.iter().enumerate() {
                assert_eq!(a.frame, i as u64, "frame order preserved");
                let tolerance = if pool_opt.is_some() { 1_000 } else { 0 };
                assert!(
                    a.residual_ns() <= tolerance,
                    "frame {i} (depth {depth}): residual {} ns exceeds {tolerance}",
                    a.residual_ns()
                );
            }
            if pool_opt.is_none() {
                for a in &run.attribution {
                    assert_eq!(a.queue_ns, 0, "serial frames never queue");
                    assert_eq!(a.stall_ns, 0, "serial frames never stall");
                }
            }
        }
    }

    #[test]
    fn drain_commits_in_flight_frames_in_order_then_serializes() {
        let pool = WorkerPool::new(3);
        let (reference, _) = checksums(None, 1, 50);
        for depth in 2..=4 {
            let mut out = Vec::new();
            let run = FramePipeline::new(depth).run(
                Some(&pool),
                50,
                |k, _ctx: StageCtx<'_, u64>| k.wrapping_mul(0x9E37_79B9),
                |k, s, _ctx: StageCtx<'_, u64>| (k ^ s).wrapping_mul(0x0100_0000_01b3),
                |k, p, prev: Option<&u64>| p ^ prev.copied().unwrap_or(k),
                |k, o| {
                    out.push(*o);
                    if k == 7 {
                        FrameControl::Drain
                    } else {
                        FrameControl::Continue
                    }
                },
            );
            // Same stage closures as `checksums` but on u64 products; the
            // reference uses Vec products, so recompute a u64 reference.
            let mut expect = Vec::new();
            let mut prev: Option<u64> = None;
            for k in 0..50u64 {
                let s = k.wrapping_mul(0x9E37_79B9);
                let p = (k ^ s).wrapping_mul(0x0100_0000_01b3);
                let o = p ^ prev.unwrap_or(k);
                expect.push(o);
                prev = Some(o);
            }
            assert_eq!(out, expect, "depth {depth}: drain must not reorder");
            assert!(run.drained);
            assert_eq!(run.frames, 50, "every frame still commits");
            assert!(
                run.pipelined_frames >= 8 && run.pipelined_frames <= 50,
                "in-flight frames commit through the pipeline (got {})",
                run.pipelined_frames
            );
            let _ = reference; // silence when depths loop changes
        }
    }

    #[test]
    fn back_pressure_bounds_the_in_flight_frames() {
        let pool = WorkerPool::new(3);
        for depth in [2usize, 3] {
            let sensed = AtomicU64::new(0);
            let committed = AtomicU64::new(0);
            let max_ahead = AtomicU64::new(0);
            FramePipeline::new(depth).run(
                Some(&pool),
                80,
                |k, _ctx: StageCtx<'_, u64>| {
                    let ahead = sensed.fetch_add(1, Ordering::SeqCst) + 1
                        - committed.load(Ordering::SeqCst);
                    max_ahead.fetch_max(ahead, Ordering::SeqCst);
                    k
                },
                |_, s, _ctx: StageCtx<'_, u64>| *s,
                |_, p, _| *p,
                |_, _| {
                    committed.fetch_add(1, Ordering::SeqCst);
                    FrameControl::Continue
                },
            );
            let bound = 2 * depth as u64 + 3;
            assert!(
                max_ahead.load(Ordering::SeqCst) <= bound,
                "depth {depth}: sensing ran {} frames ahead (bound {bound})",
                max_ahead.load(Ordering::SeqCst)
            );
        }
    }

    #[test]
    fn steady_state_recycles_products() {
        // After warm-up every sense/perceive call must receive a recycled
        // carcass on the serial path, and the pipelined path must reuse
        // buffer capacity (no per-frame growth).
        let mut misses = 0u64;
        FramePipeline::new(1).run(
            None,
            20,
            |_, ctx: StageCtx<'_, Vec<u64>>| {
                if ctx.recycled.is_none() {
                    misses += 1;
                }
                let mut buf = ctx.recycled.unwrap_or_default();
                buf.clear();
                buf.resize(32, 7);
                buf
            },
            |_, _, ctx: StageCtx<'_, Vec<u64>>| ctx.recycled.unwrap_or_default(),
            |_, _, _: Option<&u64>| 0,
            |_, _| FrameControl::Continue,
        );
        assert_eq!(
            misses, 1,
            "only the first frame allocates on the serial path"
        );
    }

    #[test]
    fn stage_busy_accumulates_on_both_paths() {
        let pool = WorkerPool::new(3);
        for pool_opt in [None, Some(&pool)] {
            let (_, run) = checksums(pool_opt, 3, 40);
            for stage in 0..3 {
                let busy_ns: u64 = run.attribution.iter().map(|a| a.compute_ns[stage]).sum();
                assert!(
                    busy_ns > 0,
                    "stage {stage} busy time recorded (pooled: {})",
                    pool_opt.is_some()
                );
                assert!(run.occupancy(stage) > 0.0);
                assert!(
                    Duration::from_nanos(busy_ns) <= run.wall.max(Duration::from_nanos(1)) * 2,
                    "busy cannot wildly exceed wall for a single lane"
                );
            }
        }
    }

    #[test]
    fn throughput_set_by_slowest_stage_latency_by_sum() {
        // Fig. 5 with 8 / 8 / 1 ms stages: depth 1 (serialized) commits a
        // frame every 17 ms; pipelined, one per slowest stage (8 ms),
        // while each frame still spends the 17 ms sum in flight. Sleeps
        // need no CPU, so the bounds hold on 1- and 2-core hosts.
        let pool = WorkerPool::new(3);
        let nap = |ms| std::thread::sleep(Duration::from_millis(ms));
        let run = |depth| {
            FramePipeline::new(depth).run(
                Some(&pool),
                30,
                |k, _ctx: StageCtx<'_, u64>| {
                    nap(8);
                    k
                },
                |_, s, _ctx: StageCtx<'_, u64>| {
                    nap(8);
                    *s
                },
                |_, p, _: Option<&u64>| {
                    nap(1);
                    *p
                },
                |_, _| FrameControl::Continue,
            )
        };
        let serial = run(1);
        for depth in [2, 4] {
            let piped = run(depth);
            assert_eq!(piped.pipelined_frames, 30, "depth {depth} overlaps");
            let speedup = piped.throughput_fps() / serial.throughput_fps();
            assert!(
                speedup >= 1.5,
                "depth {depth}: pipelining must lift throughput toward the \
                 slowest stage, got {speedup:.2}× over depth 1"
            );
            for (label, r) in [("depth 1", &serial), ("pipelined", &piped)] {
                let p50_ms = r.latency_percentile(0.5).as_secs_f64() * 1e3;
                assert!(
                    (17.0..25.0).contains(&p50_ms),
                    "{label} (depth {depth}): latency is the 17 ms stage sum, \
                     got p50 {p50_ms:.1} ms"
                );
            }
        }
    }

    #[test]
    fn a_stage_panic_reaches_the_caller_and_the_pool_survives() {
        let pool = Arc::new(WorkerPool::new(3));
        let (reference, _) = checksums(None, 1, 40);
        for (stage, name) in ["sense", "perceive", "plan", "commit"]
            .into_iter()
            .enumerate()
        {
            let lanes = Arc::clone(&pool);
            let (tx, rx) = mpsc::channel();
            // On a worker thread, so a deadlock fails the test instead of
            // hanging it.
            let runner = std::thread::spawn(move || {
                let boom = |at: usize, k: u64| {
                    assert!(at != stage || k != 5, "injected {name} fault");
                };
                let result = catch_unwind(AssertUnwindSafe(|| {
                    FramePipeline::new(2).run(
                        Some(&lanes),
                        200,
                        |k, _ctx: StageCtx<'_, u64>| {
                            boom(0, k);
                            k
                        },
                        |k, s, _ctx: StageCtx<'_, u64>| {
                            boom(1, k);
                            *s
                        },
                        |k, p, _: Option<&u64>| {
                            boom(2, k);
                            *p
                        },
                        |k, _| {
                            boom(3, k);
                            FrameControl::Continue
                        },
                    )
                }));
                let _ = tx.send(result.is_err());
            });
            let panicked = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("a {name} panic deadlocked the pipeline"));
            runner.join().expect("the runner catches the stage panic");
            assert!(panicked, "a {name} panic must reach the caller");
            let (out, run) = checksums(Some(&pool), 2, 40);
            assert_eq!(out, reference, "pool reusable after a {name} panic");
            assert_eq!(
                run.pipelined_frames, 40,
                "lanes still run after a {name} panic"
            );
        }
    }

    /// Drives one node through `jobs` dispatches of job `3k + 1`, mixing
    /// non-blocking and blocking takes and leaving results out between
    /// them, then drains it. Returns the outputs and samples in take order.
    fn run_node(
        placement: Placement,
        depth: usize,
        pool: &WorkerPool,
        jobs: u64,
        stage: impl FnMut(u64) -> u64 + Send,
    ) -> (Vec<u64>, Vec<StageSample>) {
        let ledger = LatencyLedger::default();
        let (node, body) = StageNode::new(0, placement, depth, &ledger, stage);
        let taken = pool.run_lanes(body.into_iter().collect(), move || {
            let mut node = node;
            let mut taken = Vec::new();
            for k in 0..jobs {
                node.dispatch(k, 3 * k + 1);
                if k % 3 != 0 {
                    taken.extend(node.take(k % 5 == 4));
                }
            }
            while let Some(t) = node.take(true) {
                taken.push(t);
            }
            taken
        });
        ledger.with_samples(|stages, _| assert_eq!(stages.len(), taken.len()));
        taken.into_iter().unzip()
    }

    /// A stateful stage: each output folds every earlier input.
    fn fold() -> impl FnMut(u64) -> u64 + Send {
        let mut state = 0u64;
        move |x| {
            state = state.wrapping_mul(0x9E37_79B9).wrapping_add(x);
            state
        }
    }

    #[test]
    fn node_outputs_and_samples_hold_for_both_placements_and_depths_1_to_4() {
        let pool = WorkerPool::new(2);
        let reference: Vec<u64> = (0..50u64).map(|k| 3 * k + 1).map(fold()).collect();
        for placement in [Placement::Inline, Placement::Lane] {
            for depth in 1..=4 {
                let (out, samples) = run_node(placement, depth, &pool, 50, fold());
                assert_eq!(out, reference, "{placement:?} at depth {depth}");
                for (k, s) in samples.iter().enumerate() {
                    assert_eq!(s.frame, k as u64, "dispatch order");
                    assert!(s.residual_ns() <= 1_000, "{placement:?}: {s:?}");
                    if placement == Placement::Inline {
                        assert_eq!((s.queue_ns, s.stall_ns), (0, 0), "inline never waits");
                        assert_eq!(s.compute_ns, s.span_ns);
                    }
                }
            }
        }
    }

    #[test]
    fn a_lane_node_stage_panic_reaches_the_caller_and_the_pool_survives() {
        let pool = Arc::new(WorkerPool::new(2));
        let lanes = Arc::clone(&pool);
        let (tx, rx) = mpsc::channel();
        // On a worker thread, so a deadlock fails the test instead of
        // hanging it.
        let runner = std::thread::spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_node(Placement::Lane, 2, &lanes, 200, |x| {
                    assert!(x != 3 * 5 + 1, "injected stage fault at job 5");
                    x
                })
            }));
            let _ = tx.send(result.is_err());
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("a stage panic deadlocked the node"));
        runner.join().expect("the runner catches the stage panic");
        assert!(panicked, "a stage panic must reach the caller");
        let (reused, _) = run_node(Placement::Lane, 2, &pool, 40, fold());
        assert_eq!(reused.len(), 40, "pool reusable after a stage panic");
    }

    #[test]
    fn zero_frames_is_a_no_op() {
        let pool = WorkerPool::new(4);
        let run = FramePipeline::new(3).run(
            Some(&pool),
            0,
            |_, _ctx: StageCtx<'_, u64>| unreachable!("no frames to sense"),
            |_, _, _ctx: StageCtx<'_, u64>| unreachable!(),
            |_, _, _: Option<&u64>| unreachable!(),
            |_, _: &u64| unreachable!(),
        );
        assert_eq!(run.frames, 0);
        assert!(run.latencies.is_empty());
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_depth_rejected() {
        let _ = FramePipeline::new(0);
    }
}
