//! Deterministic inter-frame software pipelining: overlap sensing,
//! perception, and planning across *successive frames*.
//!
//! The paper's Fig. 5 analysis serializes sensing → perception → planning
//! on each frame's critical path. Pipelining keeps that per-frame latency
//! (Eq. 1) while lifting *throughput* toward the reciprocal of the slowest
//! stage: while frame `N` is in planning, frame `N + 1` is in perception
//! and frame `N + 2` in sensing.
//!
//! # Stage nodes
//!
//! The runtime has one lane protocol, the [`StageNode`]: a stateful stage
//! closure run inline at [`dispatch`](StageNode::dispatch) or on a pool
//! lane behind a job ring and a done ring of `depth` slots each, per its
//! [`Placement`]. [`take`](StageNode::take) returns results in dispatch
//! order either way and records their ledger samples, so one sequencer
//! program serves every mapping of stages to lanes; serial is the mapping
//! with every node inline. Lanes never talk to each other, and once
//! `depth` jobs are out `dispatch` first *parks* the oldest result on the
//! sequencer side: the sequencer never blocks on a send, and every
//! blocking receive waits on a lane that is computing.
//!
//! Two sequencers drive nodes: `Sov::drive_with_plan` (front-end,
//! detector and planner, paced by the simulated event loop) and
//! [`FramePipeline::run`] (sense, perceive and plan over frame indices,
//! the Fig. 5 replay).
//!
//! # Determinism
//!
//! A node runs its jobs in dispatch order on every placement, and both
//! sequencers dispatch each stage's frames in frame order. A stateful
//! stage closure therefore observes the serial sequence of inputs
//! whatever the mapping, and outputs are **byte-identical** to the serial
//! schedule. The tests in this module and the drive-level tests in
//! `sov-core` assert exactly that.

use crate::ledger::{LatencyLedger, StageSample, PERCEPTION, PLANNING, SENSING};
use crate::pool::WorkerPool;
use crate::queue::{ring, RingReceiver, RingSender};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Telemetry from one [`FramePipeline::run`].
#[derive(Debug)]
pub struct PipelineRun {
    /// Frames planned (always equals the requested frame count).
    pub frames: u64,
    /// Where sensing and perception ran: on lanes, overlapping frames, or
    /// inline on the calling thread, the serial schedule.
    pub placement: Placement,
    /// Wall-clock time for the whole run.
    pub wall: Duration,
    /// Per-frame sense-start → plan-end latency, in frame order. Pipelining
    /// trades this *up* for throughput — report p99, not just p50 (COLA's
    /// tail-latency caveat).
    pub latencies: Vec<Duration>,
    /// The ledger samples the run's nodes recorded, one per stage and
    /// frame, in take order: each stage's compute, ring-queue wait and
    /// sequencer stall (the COLA split; see [`StageSample`]).
    pub samples: Vec<StageSample>,
}

impl PipelineRun {
    /// Planned frames per wall-clock second.
    #[must_use]
    pub fn throughput_fps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.frames as f64 / secs
    }

    /// Occupancy of `stage` ([`SENSING`], [`PERCEPTION`] or [`PLANNING`]):
    /// the compute time of its [`samples`](Self::samples) — busy time only,
    /// ring waits excluded — over the run's wall time, `0.0` for an empty
    /// run. The bottleneck stage's occupancy should approach 1 once the
    /// pipeline is full (Fig. 5's throughput argument).
    #[must_use]
    pub fn occupancy(&self, stage: usize) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        let busy_ns: u64 = self
            .samples
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.compute_ns)
            .sum();
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

/// A deterministic three-stage inter-frame pipeline: sensing and
/// perception as [`StageNode`]s, planning inline on the calling thread.
///
/// Depth 1 *is* the serial schedule, and so is any depth with fewer than
/// three pool lanes: both run every node inline. Every mapping executes
/// the same closure sequence per stage, so outputs match bit for bit
/// (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramePipeline {
    depth: usize,
}

impl FramePipeline {
    /// Creates a pipeline with the given depth: the most frames perception
    /// holds at once, queued, running or awaiting their plan.
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

    /// Runs `frames` frames through sense → perceive → plan.
    ///
    /// * `sense(k)` produces frame `k`'s sensor product from the frame
    ///   index alone.
    /// * `perceive(k, s)` consumes it.
    /// * `plan(k, p)` consumes the perception product on the calling
    ///   thread, in frame order; state carried from frame to frame (the
    ///   feedback edge) lives in the closure.
    ///
    /// Sensing and perception run on lanes when the depth is above 1 and
    /// `pool` has at least three lanes; otherwise every stage runs inline,
    /// the serial schedule.
    ///
    /// # Panics
    ///
    /// A panic in any stage reaches the caller: the sequencer's nodes
    /// close their rings as it unwinds, the lanes exit, and the panic is
    /// re-raised here, leaving the pool usable.
    pub fn run<S, P, FS, FP, FL>(
        &self,
        pool: Option<&WorkerPool>,
        frames: u64,
        mut sense: FS,
        mut perceive: FP,
        mut plan: FL,
    ) -> PipelineRun
    where
        S: Send,
        P: Send,
        FS: FnMut(u64) -> S + Send,
        FP: FnMut(u64, S) -> P + Send,
        FL: FnMut(u64, P) + Send,
    {
        let started = Instant::now();
        let (placement, depth) = if self.depth > 1 && pool.is_some_and(|p| p.lanes() >= 3) {
            (Placement::Lane, self.depth)
        } else {
            (Placement::Inline, 1)
        };
        let ledger = LatencyLedger::default();
        // A frame's latency runs from the start of its sensing, stamped
        // where sensing runs, to the end of its plan.
        let (sense, sense_lane) = StageNode::new(SENSING, placement, depth, &ledger, move |k| {
            (Instant::now(), sense(k))
        });
        let (perceive, perceive_lane) =
            StageNode::new(PERCEPTION, placement, depth, &ledger, move |(k, t0, s)| {
                (t0, perceive(k, s))
            });
        let (plan, _) = StageNode::new(PLANNING, Placement::Inline, 1, &ledger, move |(k, p)| {
            plan(k, p);
        });
        let sequencer = Sequencer {
            sense,
            perceive,
            plan,
            depth: depth as u64,
            frames,
            sensed: 0,
            forwarded: 0,
            planned: 0,
            latencies: Vec::with_capacity(frames as usize),
        };
        let lanes: Vec<LaneBody<'_>> = [sense_lane, perceive_lane].into_iter().flatten().collect();
        let latencies = match pool {
            Some(pool) => pool.run_lanes(lanes, move || sequencer.run()),
            None => sequencer.run(),
        };
        PipelineRun {
            frames,
            placement,
            wall: started.elapsed(),
            latencies,
            samples: ledger.with_samples(|stages, _| stages.to_vec()),
        }
    }
}

/// [`FramePipeline::run`]'s sequencer: keeps one frame in sensing,
/// forwards each sensing result to perception (up to `depth` frames
/// there), and plans in frame order.
struct Sequencer<'env, S, P> {
    sense: StageNode<'env, u64, (Instant, S)>,
    perceive: StageNode<'env, (u64, Instant, S), (Instant, P)>,
    plan: StageNode<'env, (u64, P), ()>,
    depth: u64,
    frames: u64,
    /// Frames dispatched to sensing.
    sensed: u64,
    /// Frames forwarded to perception.
    forwarded: u64,
    /// Frames planned.
    planned: u64,
    latencies: Vec<Duration>,
}

impl<'env, S: Send + 'env, P: Send + 'env> Sequencer<'env, S, P> {
    /// Runs every frame and returns the latencies. With every node inline
    /// each step finds its result ready, so the loop runs sense, perceive
    /// and plan of one frame before the next frame's sensing: the serial
    /// schedule.
    fn run(mut self) -> Vec<Duration> {
        self.top_up();
        while self.planned < self.frames {
            // While perception holds at most one frame, wait for sensing:
            // its result is forwarded the moment it is done, so perception
            // never idles behind the sequencer and sensing never runs ahead
            // of it. The price is that a long sensing frame `k + 1` holds
            // up the plan of frame `k`. Otherwise wait for the oldest
            // perception result.
            let waited = if self.forwarded < self.sensed && self.forwarded - self.planned <= 1 {
                self.forward(true)
            } else {
                self.plan_next(true)
            };
            debug_assert!(waited, "a blocking take always has a frame to wait for");
            // Then whatever else is done, feeding perception first.
            while self.forward(false) || self.plan_next(false) {}
            self.top_up();
        }
        self.latencies
    }

    /// Starts the next frame's sensing once the last one is forwarded.
    fn top_up(&mut self) {
        if self.sensed < self.frames && self.sensed == self.forwarded {
            self.sense.dispatch(self.sensed, self.sensed);
            self.sensed += 1;
        }
    }

    /// Forwards the oldest sensing result to perception, unless perception
    /// already holds `depth` frames; `false` when nothing was forwarded.
    fn forward(&mut self, block: bool) -> bool {
        if self.forwarded - self.planned == self.depth {
            return false;
        }
        let Some(((t0, s), _)) = self.sense.take(block) else {
            return false;
        };
        let k = self.forwarded;
        self.perceive.dispatch(k, (k, t0, s));
        self.forwarded += 1;
        // While an older frame awaits its plan, start the next sensing now
        // so that plan cannot hold up the sensing lane. Otherwise this
        // frame's plan comes first: inline it is already due, and planning
        // it before the next sensing is the serial order.
        if k > self.planned {
            self.top_up();
        }
        true
    }

    /// Plans the oldest perception result; `false` when none was taken.
    fn plan_next(&mut self, block: bool) -> bool {
        let Some(((t0, p), _)) = self.perceive.take(block) else {
            return false;
        };
        let k = self.planned;
        self.plan.dispatch(k, (k, p));
        self.plan.take(true);
        self.latencies.push(t0.elapsed());
        self.planned += 1;
        true
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
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};

    /// Deterministic workload exercising all three stages: `sense` fills a
    /// buffer from `k`, `perceive` folds it, and `plan` mixes in its
    /// previous output (the feedback edge) and records the checksum.
    fn checksums(pool: Option<&WorkerPool>, depth: usize, frames: u64) -> (Vec<u64>, PipelineRun) {
        let mut out = Vec::new();
        let mut prev: Option<u64> = None;
        let run = FramePipeline::new(depth).run(
            pool,
            frames,
            |k| -> Vec<u64> {
                (0..64)
                    .map(|i| (k + 1).wrapping_mul(0x9E37_79B9).rotate_left(i))
                    .collect()
            },
            |k, s| {
                s.iter()
                    .fold(k, |h, v| (h ^ v).wrapping_mul(0x0100_0000_01b3))
            },
            |k, p| {
                let o = p ^ prev.unwrap_or(k);
                prev = Some(o);
                out.push(o);
            },
        );
        (out, run)
    }

    #[test]
    fn outputs_are_identical_across_depths_and_lane_counts() {
        let (reference, serial) = checksums(None, 1, 60);
        assert_eq!(serial.placement, Placement::Inline);
        for lanes in [1, 2, 3, 4, 8] {
            let pool = WorkerPool::new(lanes);
            for depth in 1..=4 {
                let (out, run) = checksums(Some(&pool), depth, 60);
                let cell = format!("depth {depth}, lanes {lanes}");
                assert_eq!(out, reference, "{cell}");
                let piped = depth > 1 && lanes >= 3;
                let placement = if piped {
                    Placement::Lane
                } else {
                    Placement::Inline
                };
                assert_eq!(run.placement, placement, "{cell}");
                assert_eq!(run.frames, 60);
                assert_eq!(run.latencies.len(), 60);
                // One sample per stage and frame, each stage in frame order.
                for stage in [SENSING, PERCEPTION, PLANNING] {
                    let frames: Vec<u64> = run
                        .samples
                        .iter()
                        .filter(|s| s.stage == stage)
                        .map(|s| s.frame)
                        .collect();
                    assert_eq!(frames, (0..60).collect::<Vec<_>>(), "{cell}");
                    assert!(run.occupancy(stage) > 0.0, "{cell}: stage {stage}");
                }
                for s in &run.samples {
                    assert!(s.residual_ns() <= 1_000, "{cell}: {s:?}");
                    if !piped || s.stage == PLANNING {
                        assert_eq!((s.queue_ns, s.stall_ns), (0, 0), "inline never waits");
                    }
                }
            }
        }
    }

    #[test]
    fn back_pressure_bounds_the_in_flight_frames() {
        let pool = WorkerPool::new(3);
        for depth in [2usize, 3] {
            let sensed = AtomicU64::new(0);
            let planned = AtomicU64::new(0);
            let max_ahead = AtomicU64::new(0);
            FramePipeline::new(depth).run(
                Some(&pool),
                80,
                |k| {
                    let ahead =
                        sensed.fetch_add(1, Ordering::SeqCst) + 1 - planned.load(Ordering::SeqCst);
                    max_ahead.fetch_max(ahead, Ordering::SeqCst);
                    k
                },
                |_, s| s,
                |_, _| {
                    planned.fetch_add(1, Ordering::SeqCst);
                },
            );
            // One frame in sensing and at most `depth` in perception.
            let bound = depth as u64 + 1;
            assert!(
                max_ahead.load(Ordering::SeqCst) <= bound,
                "depth {depth}: sensing ran {} frames ahead (bound {bound})",
                max_ahead.load(Ordering::SeqCst)
            );
        }
    }

    #[test]
    fn throughput_set_by_slowest_stage_latency_by_sum() {
        // Fig. 5 with 8 / 8 / 1 ms stages: depth 1 (serialized) plans a
        // frame every 17 ms; pipelined, one per slowest stage (8 ms), while
        // each frame still spends the 17 ms sum in flight. Sleeps need no
        // CPU, so the bounds hold on 1- and 2-core hosts; the latency
        // bound is read from the run's own samples, so a loaded host that
        // stretches the sleeps cannot break it.
        let pool = WorkerPool::new(3);
        let nap = |ms| std::thread::sleep(Duration::from_millis(ms));
        let run = |depth| {
            FramePipeline::new(depth).run(
                Some(&pool),
                30,
                |k| {
                    nap(8);
                    k
                },
                |_, s| {
                    nap(8);
                    s
                },
                |_, _| nap(1),
            )
        };
        let serial = run(1);
        for depth in [2, 4] {
            let piped = run(depth);
            assert_eq!(piped.placement, Placement::Lane, "depth {depth} overlaps");
            let speedup = piped.throughput_fps() / serial.throughput_fps();
            assert!(
                speedup >= 1.5,
                "depth {depth}: pipelining must lift throughput toward the \
                 slowest stage, got {speedup:.2}× over depth 1"
            );
            for (label, r) in [("depth 1", &serial), ("pipelined", &piped)] {
                let p50_ms = r.latency_percentile(0.5).as_secs_f64() * 1e3;
                assert!(
                    p50_ms >= 17.0,
                    "{label} (depth {depth}): latency is at least the 17 ms \
                     stage sum, got p50 {p50_ms:.1} ms"
                );
                // What a frame spends beyond its three stages' compute:
                // ring waits and hand-offs, never a whole slowest stage.
                let mut compute_ns = [0u64; 30];
                for s in &r.samples {
                    compute_ns[s.frame as usize] += s.compute_ns;
                }
                let mut overhead_ms: Vec<f64> = r
                    .latencies
                    .iter()
                    .zip(compute_ns)
                    .map(|(l, c)| (l.as_nanos() as f64 - c as f64) / 1e6)
                    .collect();
                overhead_ms.sort_by(f64::total_cmp);
                let median = overhead_ms[overhead_ms.len() / 2];
                assert!(
                    median < 8.0,
                    "{label} (depth {depth}): median latency beyond the \
                     stages' compute is {median:.2} ms, a whole slowest stage"
                );
            }
        }
    }

    #[test]
    fn a_stage_panic_reaches_the_caller_and_the_pool_survives() {
        let pool = Arc::new(WorkerPool::new(3));
        let (reference, _) = checksums(None, 1, 40);
        for (stage, name) in ["sense", "perceive", "plan"].into_iter().enumerate() {
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
                        |k| {
                            boom(0, k);
                            k
                        },
                        |k, s| {
                            boom(1, k);
                            s
                        },
                        |k, _| boom(2, k),
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
                run.placement,
                Placement::Lane,
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
            |_| -> u64 { unreachable!("no frames to sense") },
            |_, _| -> u64 { unreachable!() },
            |_, _| unreachable!(),
        );
        assert_eq!(run.frames, 0);
        assert!(run.latencies.is_empty());
        assert!(run.samples.is_empty());
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_depth_rejected() {
        let _ = FramePipeline::new(0);
    }
}
