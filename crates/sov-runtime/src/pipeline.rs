//! Deterministic inter-frame software pipelining: overlap sensing,
//! perception, and planning across *successive frames*.
//!
//! The paper's Fig. 5 analysis serializes sensing → perception → planning
//! on each frame's critical path. Pipelining keeps that per-frame latency
//! (Eq. 1) while lifting *throughput* toward the reciprocal of the slowest
//! stage: while frame `N` is in planning, frame `N + 1` is in perception
//! and frame `N + 2` in sensing.
//!
//! # One thread per stage
//!
//! [`FramePipeline::run`] is the Fig. 5 replay. At depth 1 it is the
//! serial loop on the calling thread. Deeper, sensing and perception each
//! run on their own scoped thread and the calling thread plans; frames
//! move over `std::sync::mpsc` channels. A credit channel holding
//! `depth + 1` tokens bounds the frames in flight: sensing takes a token
//! before each frame and the calling thread returns one after each plan.
//! No stage waits on two channels, so the plan of frame `k` never waits
//! for frame `k + 1`'s sensing.
//!
//! `Sov::drive_with_plan` runs its front-end, detector and planner on the
//! calling thread instead: their simulated calls last microseconds, about
//! the cost of one channel hand-off, so threads never paid there
//! (DESIGN.md §9). It times each call with [`run_inline`], so this module
//! stays the one place that reads the clock for stage timings.
//!
//! # Stage samples
//!
//! Each frame of a replay yields one [`StageSample`] per stage, an exact
//! telescoping decomposition of the stage's measured span (the COLA
//! split, PAPERS.md):
//!
//! ```text
//! span = (t1 − t0)   queue-in:  input handed over → compute starts
//!      + (t2 − t1)   compute:   the stage's own work
//!      + (t3 − t2)   done-wait: result ready → the next stage takes it
//! ```
//!
//! with the done-wait further split into **stall** (the portion the
//! taking stage spent *blocked* waiting for this result, measured against
//! a pre-`recv` stamp) and queue-out (the result sat in its channel while
//! the taker did other work). All four stamps come from one monotonic
//! clock, so the components sum to the measured span exactly;
//! [`StageSample::residual_ns`] is the audit of that identity.
//!
//! # Determinism
//!
//! Each stage runs on one thread and receives its frames in frame order,
//! so a stateful stage closure observes the serial sequence of inputs at
//! every depth, and outputs are **byte-identical** to the serial schedule.
//! The tests in this module assert exactly that.

use std::sync::mpsc::{channel, Receiver};
use std::thread;
use std::time::{Duration, Instant};

/// Number of pipeline stages, indexed by [`SENSING`], [`PERCEPTION`] and
/// [`PLANNING`].
pub const STAGES: usize = 3;
/// Stage index of sensing (the visual front-end in a drive).
pub const SENSING: usize = 0;
/// Stage index of perception (the detector in a drive).
pub const PERCEPTION: usize = 1;
/// Stage index of planning (MPC in a drive).
pub const PLANNING: usize = 2;

/// One stage's latency decomposition for one replay frame.
///
/// Built from four monotonic stamps (`t0` input handed over, `t1` compute
/// start, `t2` compute end, `t3` taken by the next stage) plus the
/// blocked wait measured at the taking `recv`; see the module docs for
/// the telescoping identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSample {
    /// Frame index.
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
    /// A stage that starts at hand-over and is taken at once passes
    /// `t0 == t1` and `t2 == t3` (no queues, no stall), which degenerates
    /// to `span == compute` exactly.
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

/// Telemetry from one [`FramePipeline::run`].
#[derive(Debug)]
pub struct PipelineRun {
    /// Frames planned (always equals the requested frame count).
    pub frames: u64,
    /// Wall-clock time for the whole run.
    pub wall: Duration,
    /// Per-frame sense-start → plan-end latency, in frame order. Pipelining
    /// trades this *up* for throughput — report p99, not just p50 (COLA's
    /// tail-latency caveat).
    pub latencies: Vec<Duration>,
    /// Three samples per frame — sensing, perception, planning — in frame
    /// order: each stage's compute, channel-queue wait and the taking
    /// stage's stall (the COLA split; see [`StageSample`]). Adjacent
    /// stages share their hand-off stamps, so a frame's three spans sum
    /// exactly to its latency.
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
    /// channel waits excluded — over the run's wall time, `0.0` for an
    /// empty run. The bottleneck stage's occupancy should approach 1 once
    /// the pipeline is full (Fig. 5's throughput argument).
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
/// perception on a thread each, planning on the calling thread.
///
/// Depth 1 *is* the serial schedule. Every depth executes the same
/// closure sequence per stage, so outputs match bit for bit (module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramePipeline {
    depth: usize,
}

impl FramePipeline {
    /// Creates a pipeline with the given depth: the most frames held past
    /// sensing at once, queued, in perception or awaiting their plan.
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
    /// Above depth 1, sensing and perception run on their own scoped
    /// threads, with one frame in sensing and at most `depth` past it.
    ///
    /// # Panics
    ///
    /// A panic in any stage reaches the caller: the panicking stage drops
    /// its channel ends, the other stages see them closed and exit, and
    /// `std::thread::scope` re-raises the panic here.
    pub fn run<S, P, FS, FP, FL>(
        &self,
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
        FL: FnMut(u64, P),
    {
        let started = Instant::now();
        let mut latencies = Vec::with_capacity(frames as usize);
        let mut samples = Vec::with_capacity(3 * frames as usize);
        // Plans frame `k` and records it. `t` holds sensing's start and
        // end, perception's take and end, and planning's take; `stalls`
        // the blocked waits of perception's and planning's takes.
        let mut finish = |k: u64, p: P, t: [Instant; 5], stalls: [u64; 2]| {
            plan(k, p);
            let end = Instant::now();
            samples.extend([
                StageSample::from_stamps(SENSING, k, t[0], t[0], t[1], t[2], stalls[0]),
                StageSample::from_stamps(PERCEPTION, k, t[2], t[2], t[3], t[4], stalls[1]),
                StageSample::from_stamps(PLANNING, k, t[4], t[4], end, end, 0),
            ]);
            latencies.push(end - t[0]);
        };
        if self.depth == 1 {
            for k in 0..frames {
                let t0 = Instant::now();
                let s = sense(k);
                let t1 = Instant::now();
                let p = perceive(k, s);
                let t3 = Instant::now();
                finish(k, p, [t0, t1, t1, t3, t3], [0, 0]);
            }
        } else {
            thread::scope(|scope| {
                // Created inside the scope, so a panicking `plan` drops
                // them before the scope joins the stage threads.
                let (credit, credits) = channel();
                let (sensed_tx, sensed) = channel();
                let (perceived_tx, perceived) = channel();
                for _ in 0..=self.depth {
                    credit.send(()).expect("the receiver is alive");
                }
                scope.spawn(move || {
                    for k in 0..frames {
                        if credits.recv().is_err() {
                            return;
                        }
                        let t0 = Instant::now();
                        let s = sense(k);
                        if sensed_tx.send(((s, t0), Instant::now())).is_err() {
                            return;
                        }
                    }
                });
                scope.spawn(move || {
                    for k in 0..frames {
                        let Some(((s, t0), t1, t2, stall)) = take(&sensed) else {
                            return;
                        };
                        let p = perceive(k, s);
                        let t3 = Instant::now();
                        if perceived_tx.send(((p, [t0, t1, t2], stall), t3)).is_err() {
                            return;
                        }
                    }
                });
                for k in 0..frames {
                    let Some(((p, [t0, t1, t2], sense_stall), t3, t4, stall)) = take(&perceived)
                    else {
                        break;
                    };
                    finish(k, p, [t0, t1, t2, t3, t4], [sense_stall, stall]);
                    // Sensing has exited once it took its last credit.
                    let _ = credit.send(());
                }
            });
        }
        PipelineRun {
            frames,
            wall: started.elapsed(),
            latencies,
            samples,
        }
    }
}

/// Takes a stage's next result, sent with its compute-end stamp. Returns
/// it with that stamp, the hand-off stamp and the stall: the blocked wait
/// past the compute end (a result that was already waiting stalls
/// nothing). `None` once the sending stage has exited.
fn take<T>(results: &Receiver<(T, Instant)>) -> Option<(T, Instant, Instant, u64)> {
    let t_r = Instant::now();
    let (out, ready) = results.recv().ok()?;
    let taken = Instant::now();
    let stall_ns = taken.saturating_duration_since(t_r.max(ready)).as_nanos() as u64;
    Some((out, ready, taken, stall_ns))
}

/// Runs one stage call on the calling thread and returns its output with
/// the call's compute time. An inline call neither queues nor stalls, so
/// its time is all compute.
pub fn run_inline<Out>(stage: impl FnOnce() -> Out) -> (Out, Duration) {
    let t0 = Instant::now();
    let out = stage();
    (out, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

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
    }

    /// Deterministic workload exercising all three stages: `sense` fills a
    /// buffer from `k`, `perceive` folds it, and `plan` mixes in its
    /// previous output (the feedback edge) and records the checksum.
    fn checksums(depth: usize, frames: u64) -> (Vec<u64>, PipelineRun) {
        let mut out = Vec::new();
        let mut prev: Option<u64> = None;
        let run = FramePipeline::new(depth).run(
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
    fn outputs_are_identical_across_depths() {
        let (reference, _) = checksums(1, 60);
        for depth in 1..=4 {
            let (out, run) = checksums(depth, 60);
            assert_eq!(out, reference, "depth {depth}");
            assert_eq!(run.frames, 60);
            assert_eq!(run.latencies.len(), 60);
            // Three samples per frame, in stage and frame order.
            let order: Vec<(u64, usize)> = run.samples.iter().map(|s| (s.frame, s.stage)).collect();
            let expected: Vec<(u64, usize)> = (0..60)
                .flat_map(|k| [(k, SENSING), (k, PERCEPTION), (k, PLANNING)])
                .collect();
            assert_eq!(order, expected, "depth {depth}");
            for stage in [SENSING, PERCEPTION, PLANNING] {
                assert!(run.occupancy(stage) > 0.0, "depth {depth}: stage {stage}");
            }
            for (frame, latency) in run.samples.chunks(3).zip(&run.latencies) {
                let spans: u64 = frame.iter().map(|s| s.span_ns).sum();
                assert_eq!(u128::from(spans), latency.as_nanos(), "depth {depth}");
            }
            for s in &run.samples {
                assert_eq!(s.residual_ns(), 0, "depth {depth}: {s:?}");
                if depth == 1 || s.stage == PLANNING {
                    assert_eq!((s.queue_ns, s.stall_ns), (0, 0), "inline never waits");
                }
            }
        }
    }

    #[test]
    fn back_pressure_bounds_the_in_flight_frames() {
        for depth in [2usize, 3] {
            let sensed = AtomicU64::new(0);
            let planned = AtomicU64::new(0);
            let max_ahead = AtomicU64::new(0);
            FramePipeline::new(depth).run(
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
            // One frame in sensing and at most `depth` past it.
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
        let nap = |ms| std::thread::sleep(Duration::from_millis(ms));
        let run = |depth| {
            FramePipeline::new(depth).run(
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
                // channel waits and hand-offs, never a whole slowest stage.
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
    fn a_slow_sensing_frame_does_not_hold_back_the_previous_plan() {
        // Frame 0 is sensed and perceived in 4 ms while frame 1's sensing
        // takes 40 ms: planning frame 0 must not wait for it.
        let nap = |ms| std::thread::sleep(Duration::from_millis(ms));
        let run = FramePipeline::new(2).run(
            6,
            |k| nap(if k == 1 { 40 } else { 2 }),
            |_, ()| nap(2),
            |_, ()| {},
        );
        let first_ms = run.latencies[0].as_secs_f64() * 1e3;
        assert!(
            first_ms < 20.0,
            "frame 0 waited for frame 1's sensing: latency {first_ms:.1} ms"
        );
    }

    #[test]
    fn a_stage_panic_reaches_the_caller() {
        let (reference, _) = checksums(1, 40);
        for (stage, name) in ["sense", "perceive", "plan"].into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            // On a worker thread, so a deadlock fails the test instead of
            // hanging it.
            let runner = std::thread::spawn(move || {
                let boom = |at: usize, k: u64| {
                    assert!(at != stage || k != 5, "injected {name} fault");
                };
                let result = catch_unwind(AssertUnwindSafe(|| {
                    FramePipeline::new(2).run(
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
            let (out, _) = checksums(2, 40);
            assert_eq!(out, reference, "a re-run after a {name} panic");
        }
    }

    #[test]
    fn zero_frames_is_a_no_op() {
        for depth in [1, 3] {
            let run = FramePipeline::new(depth).run(
                0,
                |_| -> u64 { unreachable!("no frames to sense") },
                |_, _| -> u64 { unreachable!() },
                |_, _| unreachable!(),
            );
            assert_eq!(run.frames, 0);
            assert!(run.latencies.is_empty());
            assert!(run.samples.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_depth_rejected() {
        let _ = FramePipeline::new(0);
    }
}
