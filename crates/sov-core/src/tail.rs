//! Deadline monitoring and tail-latency reporting (the COLA layer).
//!
//! The paper's Eq. 1 bounds *end-to-end* frame latency, but a bound is
//! only as good as its tail: COLA (PAPERS.md) argues that L4 safety hangs
//! on p99.9/max under contention, faults, and degradation, not on the
//! median the kernel benches gate on. This module supplies the drive's
//! two pieces:
//!
//! * [`DeadlineMonitor`] — an EWMA-based overrun predictor over the
//!   *modeled* computing latency that `drive_loop` already draws
//!   deterministically per seed. Because its inputs never include a
//!   wall-clock reading, its verdicts — and the camera frames shedding
//!   drops on them — are the same on every run of a seed.
//! * [`TailReport`] — what `drive_loop` records into `DriveReport`: each
//!   front-end, detector and planner call's compute time, per stage, and
//!   the monitor's overrun count. The times are observational only: the
//!   report is excluded from `DriveReport` equality so wall-clock jitter
//!   cannot fail a determinism gate.

use sov_math::stats::Summary;
use sov_runtime::pipeline::STAGES;
use sov_sim::time::SimDuration;

/// Predicts Eq. 1 overruns from the modeled computing-latency stream.
///
/// Keeps an EWMA of the latency and of its absolute deviation; the
/// prediction for the next frame is `ewma + 2 · dev` — a cheap one-sided
/// tail estimate that reacts within a few frames to a fault-driven level
/// shift (StageOverrun, RPR delay spikes) while ignoring benign jitter.
///
/// Determinism: the monitor must only ever observe values that are
/// byte-identical from run to run (the modeled computing latency is;
/// wall-clock timings are NOT). Fed that way, its verdicts — and
/// therefore any shedding decision gated on them — are deterministic.
#[derive(Debug, Clone)]
pub struct DeadlineMonitor {
    deadline_ms: f64,
    ewma_ms: f64,
    dev_ms: f64,
    primed: bool,
}

impl DeadlineMonitor {
    /// Smoothing factor for the latency EWMA.
    const ALPHA: f64 = 0.2;
    /// Smoothing factor for the absolute-deviation EWMA.
    const BETA: f64 = 0.2;
    /// Escalation threshold: shedding kicks in only when the predicted
    /// latency exceeds the deadline by this factor.
    const SHED_FACTOR: f64 = 1.5;

    /// A monitor for the given Eq. 1 deadline (typically
    /// `HealthConfig::compute_deadline`).
    #[must_use]
    pub fn new(deadline: SimDuration) -> Self {
        Self {
            deadline_ms: deadline.as_millis_f64(),
            ewma_ms: 0.0,
            dev_ms: 0.0,
            primed: false,
        }
    }

    /// Feeds one frame's modeled computing latency (milliseconds).
    pub fn observe(&mut self, latency_ms: f64) {
        if !self.primed {
            self.primed = true;
            self.ewma_ms = latency_ms;
            self.dev_ms = 0.0;
            return;
        }
        let err = (latency_ms - self.ewma_ms).abs();
        self.ewma_ms += Self::ALPHA * (latency_ms - self.ewma_ms);
        self.dev_ms += Self::BETA * (err - self.dev_ms);
    }

    /// The one-sided tail estimate for the next frame: `ewma + 2 · dev`.
    #[must_use]
    pub fn predicted_ms(&self) -> f64 {
        self.ewma_ms + 2.0 * self.dev_ms
    }

    /// `true` when the predicted latency exceeds the Eq. 1 deadline
    /// (counted in [`TailReport::overruns_predicted`]).
    #[must_use]
    pub fn overrun_predicted(&self) -> bool {
        self.primed && self.predicted_ms() > self.deadline_ms
    }

    /// `true` when the predicted latency exceeds the deadline by the
    /// escalation factor — the trigger for shedding the lowest-priority
    /// pending stage (the next speculative camera frame).
    #[must_use]
    pub fn shed_predicted(&self) -> bool {
        self.primed && self.predicted_ms() > Self::SHED_FACTOR * self.deadline_ms
    }
}

/// Per-drive stage timings, recorded by `drive_loop` as it runs.
///
/// `stage_compute_ms` holds one sample per call, in milliseconds, per
/// stage (indexed by `sov_runtime::pipeline::{SENSING, PERCEPTION,
/// PLANNING}`): the front-end and detector once per processed camera
/// frame, the planner once per control frame. A drive runs every stage on
/// the calling thread, so no stage waits on a queue and every sample is
/// compute.
///
/// Excluded from `DriveReport` equality: the samples are wall-clock
/// measurements and differ from run to run.
#[derive(Debug, Clone, Default)]
pub struct TailReport {
    /// Per-stage compute times (sensing, perception, planning).
    pub stage_compute_ms: [Summary; STAGES],
    /// Control frames for which the monitor predicted an Eq. 1 overrun.
    /// Deterministic per seed: the monitor sees only modeled latencies.
    pub overruns_predicted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(deadline_ms: u64) -> DeadlineMonitor {
        DeadlineMonitor::new(SimDuration::from_millis(deadline_ms))
    }

    #[test]
    fn nominal_stream_predicts_no_overrun() {
        let mut m = monitor(300);
        for i in 0..100 {
            m.observe(160.0 + f64::from(i % 7));
        }
        assert!(m.predicted_ms() < 300.0);
        assert!(!m.overrun_predicted());
        assert!(!m.shed_predicted());
    }

    #[test]
    fn level_shift_trips_overrun_then_shed() {
        let mut m = monitor(300);
        for _ in 0..20 {
            m.observe(160.0);
        }
        let mut overrun_at = None;
        let mut shed_at = None;
        for i in 0..40 {
            m.observe(600.0);
            if m.overrun_predicted() && overrun_at.is_none() {
                overrun_at = Some(i);
            }
            if m.shed_predicted() && shed_at.is_none() {
                shed_at = Some(i);
            }
        }
        let overrun = overrun_at.expect("overrun predicted after level shift");
        let shed = shed_at.expect("shed predicted after sustained shift");
        assert!(overrun <= shed, "overrun is the earlier, milder trigger");
        assert!(overrun < 5, "predictor reacts within a few frames");
    }

    #[test]
    fn unprimed_monitor_never_fires() {
        let m = monitor(1);
        assert!(!m.overrun_predicted());
        assert!(!m.shed_predicted());
    }
}
