//! Bounded-schedule model checking of the `sov-runtime` concurrency core
//! (DESIGN.md §13).
//!
//! One custom protocol carries the workspace's determinism and liveness
//! argument: **`WorkerPool`'s `Unit` (`sov_runtime::pool`)**, the atomic
//! chunk-claim / completion-barrier. It is re-expressed here as a
//! `sov_testkit::model` program and checked across every interleaving a
//! bounded enumeration reaches: no double-claim, no skipped chunk,
//! exactly-once completion signal, and the dispatching caller always
//! wakes — but passes the barrier only once every chunk has finished,
//! the condition `run_unit`'s lifetime erasure relies on. The Fig. 5
//! replay (`sov_runtime::pipeline`) hands frames over `std::sync::mpsc`
//! channels and needs no model of its own.
//!
//! The protocol also ships **deliberately broken variants** (a chunk
//! claim that is a non-atomic read-then-write, a barrier wait that treats
//! any wake as done) with tests asserting the checker *finds* each bug —
//! the guard that keeps this harness from rotting into always-green. The
//! checker's own lost-wakeup detection is covered by `sov-testkit`'s
//! `lost_wakeup_is_reported_as_deadlock`.
//!
//! Granularity: operations under a modeled lock collapse into the
//! acquiring step (sound — critical-section interiors are unobservable);
//! atomic RMWs are single steps. See the `sov_testkit::model` module
//! docs.

use sov_testkit::model::{Explorer, MCondvar, MLock, Model, Status, ThreadId, ViolationKind};

/// Schedules the pool protocol must explore violation-free.
const REQUIRED_CLEAN_SCHEDULES: usize = 10_000;

// ---------------------------------------------------------------------------
// The protocol: the WorkerPool Unit chunk-claim / completion-barrier.
// ---------------------------------------------------------------------------

/// Seeded bugs for [`PoolModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoolBug {
    /// The chunk claim's `fetch_add` decomposed into a read step and a
    /// write step: two lanes can read the same `next` and both run the
    /// same chunk.
    DoubleClaim,
    /// `Unit::wait` parks without re-checking the flag after waking (an
    /// `if` where the real code has a `while`): a spurious wakeup lets
    /// the caller pass the barrier while chunks still run.
    NoRecheck,
}

/// Program counters for each claiming thread in [`PoolModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoolPc {
    /// About to claim a chunk (`next.fetch_add(1)`).
    Claim,
    /// Double-claim variant only: has read `next`, not yet written back.
    ClaimWrite,
    /// Running claimed chunk (index stored per thread).
    Run,
    /// About to bump `finished` (`fetch_add(1, AcqRel)`).
    Finish,
    /// Last finisher: about to take the done lock and signal.
    Signal,
    /// Caller only: about to take the done lock and check the flag.
    WaitAcquire,
    /// Caller only: parked on the done condvar.
    WaitParked,
    /// Program finished.
    Exited,
}

/// Transcription of `Unit::participate` + `Unit::wait`: `workers`
/// spawned lanes plus the dispatching caller (which participates first,
/// then blocks on the completion barrier — exactly `run_unit`).
#[derive(Clone)]
struct PoolModel {
    bug: Option<PoolBug>,
    total: usize,
    next: usize,
    finished: usize,
    claims: Vec<u8>,
    done_flag: bool,
    signal_count: u8,
    done_lock: MLock,
    done_cv: MCondvar,
    pc: Vec<PoolPc>,
    /// Per-thread claimed chunk (Run state) or read of `next`
    /// (ClaimWrite state).
    scratch: Vec<usize>,
}

impl PoolModel {
    fn new(workers: usize, total: usize, bug: Option<PoolBug>) -> Self {
        Self {
            bug,
            total,
            next: 0,
            finished: 0,
            claims: vec![0; total],
            done_flag: false,
            signal_count: 0,
            done_lock: MLock::default(),
            done_cv: MCondvar::default(),
            pc: vec![PoolPc::Claim; workers + 1],
            scratch: vec![0; workers + 1],
        }
    }

    /// The caller is the last thread; workers exit after the chunks run
    /// dry, the caller falls through to the barrier wait.
    fn caller(&self) -> ThreadId {
        self.pc.len() - 1
    }

    fn after_claim(&mut self, t: ThreadId, chunk: usize) {
        if chunk >= self.total {
            self.pc[t] = if t == self.caller() {
                PoolPc::WaitAcquire
            } else {
                PoolPc::Exited
            };
        } else {
            self.scratch[t] = chunk;
            self.pc[t] = PoolPc::Run;
        }
    }
}

impl Model for PoolModel {
    fn threads(&self) -> usize {
        self.pc.len()
    }

    fn status(&self, t: ThreadId) -> Status {
        match self.pc[t] {
            PoolPc::Exited => Status::Done,
            PoolPc::WaitParked => Status::Waiting {
                woken: self.done_cv.waiting(t) == Some(true),
            },
            PoolPc::Signal | PoolPc::WaitAcquire => {
                if self.done_lock.free() {
                    Status::Runnable
                } else {
                    Status::Blocked
                }
            }
            PoolPc::Claim | PoolPc::ClaimWrite | PoolPc::Run | PoolPc::Finish => Status::Runnable,
        }
    }

    fn step(&mut self, t: ThreadId, _spurious: bool) {
        match self.pc[t] {
            PoolPc::Claim if self.bug == Some(PoolBug::DoubleClaim) => {
                self.scratch[t] = self.next;
                self.pc[t] = PoolPc::ClaimWrite;
            }
            PoolPc::Claim => {
                let chunk = self.next;
                self.next += 1;
                self.after_claim(t, chunk);
            }
            PoolPc::ClaimWrite => {
                let chunk = self.scratch[t];
                self.next = chunk + 1;
                self.after_claim(t, chunk);
            }
            PoolPc::Run => {
                self.claims[self.scratch[t]] += 1;
                self.pc[t] = PoolPc::Finish;
            }
            PoolPc::Finish => {
                self.finished += 1;
                self.pc[t] = if self.finished == self.total {
                    PoolPc::Signal
                } else {
                    PoolPc::Claim
                };
            }
            PoolPc::Signal => {
                self.done_lock.acquire(t);
                self.done_flag = true;
                self.signal_count += 1;
                self.done_cv.notify_all();
                self.done_lock.release(t);
                self.pc[t] = PoolPc::Claim;
            }
            PoolPc::WaitAcquire => {
                self.done_lock.acquire(t);
                if self.done_flag {
                    self.done_lock.release(t);
                    self.pc[t] = PoolPc::Exited;
                } else {
                    self.done_cv.wait(t);
                    self.done_lock.release(t);
                    self.pc[t] = PoolPc::WaitParked;
                }
            }
            PoolPc::WaitParked => {
                self.done_cv.unpark(t);
                self.pc[t] = if self.bug == Some(PoolBug::NoRecheck) {
                    PoolPc::Exited
                } else {
                    PoolPc::WaitAcquire
                };
            }
            PoolPc::Exited => unreachable!("stepped an exited thread"),
        }
    }

    fn invariant(&self) -> Result<(), String> {
        if let Some(chunk) = self.claims.iter().position(|&c| c > 1) {
            return Err(format!(
                "chunk {chunk} claimed {} times",
                self.claims[chunk]
            ));
        }
        if self.signal_count > 1 {
            return Err(format!(
                "completion barrier signalled {} times",
                self.signal_count
            ));
        }
        if self.finished > self.total {
            return Err(format!(
                "finished count {} exceeds {} chunks",
                self.finished, self.total
            ));
        }
        // `run_unit` erases the task's lifetime on the strength of this:
        // the caller returns only after every chunk's last dereference.
        if self.pc[self.caller()] == PoolPc::Exited && self.finished != self.total {
            return Err(format!(
                "caller passed the barrier with {} of {} chunks finished",
                self.finished, self.total
            ));
        }
        Ok(())
    }

    fn finished(&self) -> Result<(), String> {
        if let Some(chunk) = self.claims.iter().position(|&c| c != 1) {
            return Err(format!(
                "chunk {chunk} ran {} times (want exactly once)",
                self.claims[chunk]
            ));
        }
        if self.signal_count != 1 {
            return Err(format!(
                "completion signalled {} times (want exactly once)",
                self.signal_count
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------------

fn pool_explorer() -> Explorer {
    Explorer {
        max_preemptions: 3,
        max_spurious: 1,
        ..Explorer::default()
    }
}

#[test]
fn pool_unit_protocol_is_clean_across_ten_thousand_bounded_schedules() {
    let report = pool_explorer().explore(&PoolModel::new(2, 3, None));
    report.assert_clean();
    eprintln!(
        "pool model schedules: {} (max depth {})",
        report.schedules, report.max_depth
    );
    assert!(report.exhausted, "bounded space fully enumerated");
    assert!(
        report.schedules >= REQUIRED_CLEAN_SCHEDULES,
        "explored only {} schedules (< {REQUIRED_CLEAN_SCHEDULES})",
        report.schedules
    );
}

#[test]
fn seeded_double_claim_pool_is_flagged() {
    let report = pool_explorer().explore(&PoolModel::new(2, 3, Some(PoolBug::DoubleClaim)));
    let v = report.violation.expect("the double claim must be found");
    assert_eq!(v.kind, ViolationKind::Invariant, "{}", v.message);
    assert!(v.message.contains("claimed"), "{}", v.message);
}

#[test]
fn seeded_barrier_wait_without_recheck_is_flagged_under_spurious_wakeups() {
    let report = pool_explorer().explore(&PoolModel::new(2, 3, Some(PoolBug::NoRecheck)));
    let v = report
        .violation
        .expect("the missing re-check must be found");
    assert_eq!(v.kind, ViolationKind::Invariant, "{}", v.message);
    assert!(v.message.contains("passed the barrier"), "{}", v.message);
    assert!(
        v.trace.iter().any(|&(_, spurious)| spurious),
        "only a spurious wakeup reaches the bug"
    );
}
