//! Deadline monitoring and tail-latency reporting (the COLA layer).
//!
//! The paper's Eq. 1 bounds *end-to-end* frame latency, but a bound is
//! only as good as its tail: COLA (PAPERS.md) argues that L4 safety hangs
//! on p99.9/max under contention, faults, and degradation, not on the
//! median the kernel benches gate on. This module supplies the two pieces
//! that sit on top of the [`LatencyLedger`](sov_runtime::ledger):
//!
//! * [`DeadlineMonitor`] — an EWMA-based overrun predictor over the
//!   *modeled* computing latency that `drive_loop` already draws
//!   deterministically per seed. Because its inputs never include a
//!   wall-clock reading, its verdicts — and the camera frames shedding
//!   drops on them — are the same on every run of a seed.
//! * [`TailReport`] — the per-drive tail breakdown surfaced through
//!   `DriveReport`: the control path's planner latency and each stage's
//!   compute time, summarized at p50/p99/p99.9/max. Observational only:
//!   it is excluded from `DriveReport` equality so wall-clock jitter
//!   cannot fail a determinism gate.

use sov_math::stats::Summary;
use sov_runtime::arena::FrameArena;
use sov_runtime::ledger::{LatencyLedger, STAGES};
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

/// Per-drive tail-latency breakdown, collected from the
/// [`LatencyLedger`] at drive end.
///
/// All durations are milliseconds. `total_ms` summarizes the *control
/// path* — the planner call of each planned frame; `stage_compute_ms`
/// breaks compute out per stage (0 = sensing, 1 = perception,
/// 2 = planning), where sensing/perception samples are per *camera*
/// frame. A drive runs every stage on the calling thread, so no stage
/// waits on a queue and every sample is compute.
///
/// Excluded from `DriveReport` equality: these are wall-clock
/// measurements and differ from run to run.
#[derive(Debug, Clone, Default)]
pub struct TailReport {
    /// Control-path frames sampled (== planned frames).
    pub frames: u64,
    /// Control-path latency: the planner call of each planned frame.
    pub total_ms: Summary,
    /// Per-stage compute summaries (sensing, perception, planning).
    pub stage_compute_ms: [Summary; STAGES],
    /// Control-path latency over frames planned in `Nominal` mode only.
    pub nominal_total_ms: Summary,
    /// Control-path latency over frames planned while degraded.
    pub degraded_total_ms: Summary,
    /// Camera frames shed by the escalation step.
    pub sheds: u64,
    /// Frames for which the monitor predicted an Eq. 1 overrun.
    pub overruns_predicted: u64,
}

impl TailReport {
    /// Builds the report from `ledger`'s samples, then recycles the
    /// ledger's buffers into `arena` (the drive is over).
    #[must_use]
    pub fn collect(ledger: &LatencyLedger, arena: &FrameArena) -> Self {
        const MS: f64 = 1e6;
        let mut out = ledger.with_samples(|stages, frames| {
            let mut r = Self {
                frames: frames.len() as u64,
                ..Self::default()
            };
            for s in stages {
                r.stage_compute_ms[s.stage].record(s.compute_ns as f64 / MS);
            }
            for f in frames {
                let total = f.total_ns as f64 / MS;
                r.total_ms.record(total);
                if f.degraded {
                    r.degraded_total_ms.record(total);
                } else {
                    r.nominal_total_ms.record(total);
                }
            }
            r
        });
        let c = ledger.counters();
        out.sheds = c.sheds;
        out.overruns_predicted = c.overruns_predicted;
        ledger.finish(arena);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sov_runtime::ledger::{FrameSample, StageSample};
    use std::time::Instant;

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

    #[test]
    fn collect_summarizes_and_recycles() {
        let arena = FrameArena::new();
        let ledger = LatencyLedger::default();
        ledger.begin(&arena);
        let base = Instant::now();
        let [t0, t2] = [0u64, 40].map(|us| base + std::time::Duration::from_micros(us));
        let plan = StageSample::from_stamps(2, 0, t0, t0, t2, t2, 0);
        ledger.record_stage(plan);
        let f = FrameSample::from_stage(&plan, false);
        ledger.record_frame(f);
        ledger.record_frame(FrameSample {
            degraded: true,
            frame: 1,
            ..f
        });
        ledger.note_overrun();
        let report = TailReport::collect(&ledger, &arena);
        assert_eq!(report.frames, 2);
        assert_eq!(report.total_ms.len(), 2);
        assert_eq!(report.nominal_total_ms.len(), 1);
        assert_eq!(report.degraded_total_ms.len(), 1);
        assert_eq!(report.stage_compute_ms[2].len(), 1);
        assert_eq!(report.stage_compute_ms[0].len(), 0);
        assert_eq!(report.sheds, 0);
        assert_eq!(report.overruns_predicted, 1);
        assert!((report.total_ms.max() - 0.04).abs() < 1e-12);
        assert!((report.stage_compute_ms[2].max() - 0.04).abs() < 1e-12);
        // Buffers went back to the arena; a second collect sees nothing.
        ledger.begin(&arena);
        let empty = TailReport::collect(&ledger, &arena);
        assert_eq!(empty.frames, 0);
    }
}
