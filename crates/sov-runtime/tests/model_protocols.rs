//! Bounded-schedule model checking of the `sov-runtime` concurrency core
//! (DESIGN.md §13).
//!
//! Three protocols carry the workspace's determinism and liveness
//! argument, and each is re-expressed here as a `sov_testkit::model`
//! program and checked across every interleaving a bounded enumeration
//! reaches:
//!
//! 1. **`SpscRing` (`sov_runtime::queue`)** — the mutex/condvar hand-off:
//!    FIFO order, the capacity bound, orderly shutdown (drain then
//!    `None`), no lost wakeup (absence of deadlock), and tolerance of
//!    spurious wakeups (the `while`-loop re-check).
//! 2. **`WorkerPool`'s `Unit` (`sov_runtime::pool`)** — the atomic
//!    chunk-claim / completion-barrier: no double-claim, no skipped
//!    chunk, exactly-once completion signal, and the dispatching caller
//!    always wakes.
//! 3. **The stage node (`sov_runtime::pipeline::StageNode`,
//!    DESIGN.md §9)** — a sequencer dispatching to a lane behind job and
//!    done rings of `depth` slots, parking the oldest result whenever
//!    `depth` jobs are out: no schedule deadlocks, whatever mix of
//!    blocking and non-blocking takes, and results arrive in dispatch
//!    order.
//!
//! Each protocol also ships **deliberately broken variants** (a queue
//! whose push skips its wakeup, a recv that skips the wake-up re-check, a
//! pool whose chunk claim is a non-atomic read-then-write, a node that
//! dispatches without parking) with tests asserting the checker *finds*
//! each bug — the
//! guard that keeps this harness from rotting into always-green.
//!
//! Granularity: operations under a modeled lock collapse into the
//! acquiring step (sound — critical-section interiors are unobservable);
//! atomic RMWs and ring operations are single steps. See the
//! `sov_testkit::model` module docs.

use std::collections::VecDeque;

use sov_testkit::model::{Explorer, MCondvar, MLock, Model, Status, ThreadId, ViolationKind};

/// Schedules the ring + pool acceptance tests must jointly explore
/// violation-free (ISSUE 8 acceptance bar).
const REQUIRED_CLEAN_SCHEDULES: usize = 10_000;

// ---------------------------------------------------------------------------
// Protocol 1: the SpscRing mutex/condvar hand-off.
// ---------------------------------------------------------------------------

/// Seeded bugs for [`RingModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RingBug {
    /// `send` forgets `not_empty.notify_one()` after pushing: a consumer
    /// already parked never learns the ring is non-empty — lost wakeup.
    LostWakeup,
    /// `recv` pops without re-checking the predicate after waking (an
    /// `if` where the real code has a `while`): a spurious wakeup makes
    /// it observe an empty ring and give up early.
    NoRecheck,
}

/// Program counters for the two ring threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RingPc {
    /// About to acquire the lock for a send/recv attempt.
    Attempt,
    /// Parked in a condvar wait set.
    Parked,
    /// Woken (or spuriously woken): about to reacquire and re-check.
    Reacquire,
    /// Producer only: about to run the sender's `Drop`.
    DropSender,
    /// Program finished.
    Finished,
}

/// Faithful transcription of `sov_runtime::queue`: one producer sending
/// `0..n` then dropping its handle, one consumer receiving until `None`.
#[derive(Clone)]
struct RingModel {
    bug: Option<RingBug>,
    cap: usize,
    n: u32,
    lock: MLock,
    not_empty: MCondvar,
    not_full: MCondvar,
    ring: VecDeque<u32>,
    sender_alive: bool,
    pc: [RingPc; 2],
    next_send: u32,
    received: Vec<u32>,
    /// Set by the NoRecheck variant when it pops from an empty ring.
    early_exit: bool,
}

const PRODUCER: ThreadId = 0;
const CONSUMER: ThreadId = 1;

impl RingModel {
    fn new(cap: usize, n: u32, bug: Option<RingBug>) -> Self {
        Self {
            bug,
            cap,
            n,
            lock: MLock::default(),
            not_empty: MCondvar::default(),
            not_full: MCondvar::default(),
            ring: VecDeque::new(),
            sender_alive: true,
            pc: [RingPc::Attempt; 2],
            next_send: 0,
            received: Vec::new(),
            early_exit: false,
        }
    }

    /// The body of `RingSender::send` once the lock is held (push +
    /// notify + unlock, or wait-entry). Mirrors queue.rs line for line.
    fn producer_critical(&mut self) {
        self.lock.acquire(PRODUCER);
        if self.ring.len() < self.cap {
            self.ring.push_back(self.next_send);
            if self.bug != Some(RingBug::LostWakeup) {
                self.not_empty.notify_one();
            }
            self.lock.release(PRODUCER);
            self.next_send += 1;
            self.pc[PRODUCER] = if self.next_send == self.n {
                RingPc::DropSender
            } else {
                RingPc::Attempt
            };
        } else {
            self.not_full.wait(PRODUCER);
            self.lock.release(PRODUCER);
            self.pc[PRODUCER] = RingPc::Parked;
        }
    }

    /// The body of `RingReceiver::recv` once the lock is held.
    /// `after_wake` distinguishes the re-check pass (where the NoRecheck
    /// variant pops blindly).
    fn consumer_critical(&mut self, after_wake: bool) {
        self.lock.acquire(CONSUMER);
        if after_wake && self.bug == Some(RingBug::NoRecheck) {
            // Buggy `if`-based recv: assume the wakeup implies an item.
            match self.ring.pop_front() {
                Some(v) => {
                    self.received.push(v);
                    self.not_full.notify_one();
                    self.pc[CONSUMER] = RingPc::Attempt;
                }
                None => {
                    // Treats "woke to an empty ring" as end-of-stream.
                    self.early_exit = self.sender_alive;
                    self.pc[CONSUMER] = RingPc::Finished;
                }
            }
            self.lock.release(CONSUMER);
            return;
        }
        if let Some(v) = self.ring.pop_front() {
            self.received.push(v);
            self.not_full.notify_one();
            self.lock.release(CONSUMER);
            self.pc[CONSUMER] = RingPc::Attempt;
        } else if !self.sender_alive {
            self.lock.release(CONSUMER);
            self.pc[CONSUMER] = RingPc::Finished;
        } else {
            self.not_empty.wait(CONSUMER);
            self.lock.release(CONSUMER);
            self.pc[CONSUMER] = RingPc::Parked;
        }
    }
}

impl Model for RingModel {
    fn threads(&self) -> usize {
        2
    }

    fn status(&self, t: ThreadId) -> Status {
        let cv = if t == PRODUCER {
            &self.not_full
        } else {
            &self.not_empty
        };
        match self.pc[t] {
            RingPc::Finished => Status::Done,
            RingPc::Parked => Status::Waiting {
                woken: cv.waiting(t) == Some(true),
            },
            RingPc::Attempt | RingPc::Reacquire | RingPc::DropSender => {
                if self.lock.free() {
                    Status::Runnable
                } else {
                    Status::Blocked
                }
            }
        }
    }

    fn step(&mut self, t: ThreadId, _spurious: bool) {
        match (t, self.pc[t]) {
            (PRODUCER, RingPc::Attempt | RingPc::Reacquire) => self.producer_critical(),
            (PRODUCER, RingPc::Parked) => {
                self.not_full.unpark(PRODUCER);
                self.pc[PRODUCER] = RingPc::Reacquire;
            }
            (PRODUCER, RingPc::DropSender) => {
                // `Drop for RingSender`: flag under the lock, then wake
                // any parked consumer so it can observe the closure.
                self.lock.acquire(PRODUCER);
                self.sender_alive = false;
                self.lock.release(PRODUCER);
                self.not_empty.notify_all();
                self.pc[PRODUCER] = RingPc::Finished;
            }
            (CONSUMER, RingPc::Attempt) => self.consumer_critical(false),
            (CONSUMER, RingPc::Reacquire) => self.consumer_critical(true),
            (CONSUMER, RingPc::Parked) => {
                self.not_empty.unpark(CONSUMER);
                self.pc[CONSUMER] = RingPc::Reacquire;
            }
            (t, pc) => unreachable!("stepped thread {t} at {pc:?}"),
        }
    }

    fn invariant(&self) -> Result<(), String> {
        if self.ring.len() > self.cap {
            return Err(format!(
                "capacity bound violated: {} items in a ring of {}",
                self.ring.len(),
                self.cap
            ));
        }
        if self.early_exit {
            return Err("recv returned None while the sender was alive".into());
        }
        Ok(())
    }

    fn finished(&self) -> Result<(), String> {
        let expected: Vec<u32> = (0..self.n).collect();
        if self.received == expected {
            Ok(())
        } else {
            Err(format!(
                "FIFO broken: received {:?}, expected {expected:?}",
                self.received
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol 2: the WorkerPool Unit chunk-claim / completion-barrier.
// ---------------------------------------------------------------------------

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
    double_claim_bug: bool,
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
    fn new(workers: usize, total: usize, double_claim_bug: bool) -> Self {
        Self {
            double_claim_bug,
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
            PoolPc::Claim if self.double_claim_bug => {
                // Broken variant: the fetch_add decomposed into a read
                // step and a write step — two lanes can read the same
                // `next` and both run the same chunk.
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
                self.pc[t] = PoolPc::WaitAcquire;
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
// Protocol 3: the stage node (`sov_runtime::pipeline::StageNode`,
// DESIGN.md §9).
// ---------------------------------------------------------------------------

/// A ring abstracted to the granularity RingModel already verified:
/// send/recv/close are single atomic transitions.
#[derive(Clone)]
struct MRing {
    cap: usize,
    buf: VecDeque<u32>,
    open: bool,
}

impl MRing {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            buf: VecDeque::new(),
            open: true,
        }
    }

    fn can_send(&self) -> bool {
        self.buf.len() < self.cap
    }

    /// Ready when an item is available or closure is observable.
    fn can_recv(&self) -> bool {
        !self.buf.is_empty() || !self.open
    }
}

/// The take the sequencer makes after dispatching job `i`: none, a
/// non-blocking take, or a blocking one. The first six dispatches take
/// nothing, so `depth` jobs are out at every dispatch from the third on —
/// the park path — and a dispatch that does not park can overfill the
/// lane; the rest mix both kinds of take with parked results.
fn take_after(i: u32) -> Option<bool> {
    match i {
        6 | 8 => Some(false),
        7 => Some(true),
        _ => None,
    }
}

/// Program counters for [`NodeModel`]: thread 0 is the sequencer, thread
/// 1 the lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodePc {
    /// Sequencer: parks the oldest lane result if `depth` jobs are out.
    Dispatch,
    /// Sequencer: sends the job to the lane.
    Send,
    /// Sequencer: one take after a dispatch (`true` = blocking).
    Take(bool),
    /// Sequencer: blocking takes until nothing is outstanding, then
    /// closes the job ring.
    Drain,
    /// Lane: receives a job.
    Recv,
    /// Lane: deposits the held job's result.
    Deposit,
    Exited,
}

/// One lane node driven by its sequencer: `n` dispatches at `depth`, each
/// followed by the [`take_after`] take, then a drain. The lane only
/// receives jobs and deposits results, so the graph stays live unless
/// the sequencer sends into a full job ring while the lane waits on a
/// full done ring — which the park step rules out.
#[derive(Clone)]
struct NodeModel {
    depth: usize,
    n: u32,
    /// Seeded bug: dispatch without the park step.
    skip_park: bool,
    jobs: MRing,
    done: MRing,
    pc: [NodePc; 2],
    sent: u32,
    /// Jobs sent whose results are still on the lane side.
    out: usize,
    parked: VecDeque<u32>,
    held: u32,
    taken: Vec<u32>,
}

impl NodeModel {
    fn new(depth: usize, n: u32, skip_park: bool) -> Self {
        Self {
            depth,
            n,
            skip_park,
            jobs: MRing::new(depth),
            done: MRing::new(depth),
            pc: [NodePc::Dispatch, NodePc::Recv],
            sent: 0,
            out: 0,
            parked: VecDeque::new(),
            held: 0,
            taken: Vec::new(),
        }
    }

    fn parks(&self) -> bool {
        !self.skip_park && self.out == self.depth
    }

    /// One `take`: parked results first, then the done ring.
    fn take(&mut self) {
        if let Some(v) = self.parked.pop_front() {
            self.taken.push(v);
        } else if let Some(v) = self.done.buf.pop_front() {
            self.out -= 1;
            self.taken.push(v);
        }
    }

    fn next(&self) -> NodePc {
        if self.sent < self.n {
            NodePc::Dispatch
        } else {
            NodePc::Drain
        }
    }
}

impl Model for NodeModel {
    fn threads(&self) -> usize {
        2
    }

    fn status(&self, t: ThreadId) -> Status {
        // A blocking take waits only for a result still on the lane.
        let take_ready = !self.parked.is_empty() || self.out == 0 || self.done.can_recv();
        let ready = match self.pc[t] {
            NodePc::Exited => return Status::Done,
            NodePc::Dispatch => !self.parks() || self.done.can_recv(),
            NodePc::Send => self.jobs.can_send(),
            NodePc::Take(block) => !block || take_ready,
            NodePc::Drain => take_ready,
            NodePc::Recv => self.jobs.can_recv(),
            NodePc::Deposit => self.done.can_send(),
        };
        if ready {
            Status::Runnable
        } else {
            Status::Blocked
        }
    }

    fn step(&mut self, t: ThreadId, _spurious: bool) {
        match self.pc[t] {
            NodePc::Dispatch => {
                if self.parks() {
                    let v = self.done.buf.pop_front().expect("status gated");
                    self.out -= 1;
                    self.parked.push_back(v);
                }
                self.pc[0] = NodePc::Send;
            }
            NodePc::Send => {
                self.jobs.buf.push_back(self.sent);
                self.out += 1;
                self.sent += 1;
                self.pc[0] = take_after(self.sent - 1).map_or_else(|| self.next(), NodePc::Take);
            }
            NodePc::Take(_) => {
                self.take();
                self.pc[0] = self.next();
            }
            NodePc::Drain if self.parked.is_empty() && self.out == 0 => {
                self.jobs.open = false;
                self.pc[0] = NodePc::Exited;
            }
            NodePc::Drain => self.take(),
            NodePc::Recv => match self.jobs.buf.pop_front() {
                Some(v) => {
                    self.held = v;
                    self.pc[1] = NodePc::Deposit;
                }
                None => {
                    self.done.open = false;
                    self.pc[1] = NodePc::Exited;
                }
            },
            NodePc::Deposit => {
                self.done.buf.push_back(self.held);
                self.pc[1] = NodePc::Recv;
            }
            NodePc::Exited => unreachable!("stepped an exited thread"),
        }
    }

    fn invariant(&self) -> Result<(), String> {
        let lane_side =
            self.jobs.buf.len() + self.done.buf.len() + usize::from(self.pc[1] == NodePc::Deposit);
        if lane_side != self.out || (!self.skip_park && self.out > self.depth) {
            return Err(format!(
                "{lane_side} jobs on the lane side, {} counted",
                self.out
            ));
        }
        Ok(())
    }

    fn finished(&self) -> Result<(), String> {
        if self.taken == (0..self.n).collect::<Vec<_>>() {
            Ok(())
        } else {
            Err(format!(
                "node reordered or dropped results: {:?}",
                self.taken
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------------

fn ring_explorer() -> Explorer {
    Explorer {
        max_preemptions: 4,
        max_spurious: 1,
        ..Explorer::default()
    }
}

fn pool_explorer() -> Explorer {
    Explorer {
        max_preemptions: 3,
        max_spurious: 1,
        ..Explorer::default()
    }
}

#[test]
fn spsc_ring_protocol_is_clean_across_all_bounded_schedules() {
    let report = ring_explorer().explore(&RingModel::new(2, 4, None));
    report.assert_clean();
    assert!(report.exhausted, "bounded space fully enumerated");
    assert!(
        report.schedules > 1_000,
        "explored only {} schedules",
        report.schedules
    );
}

#[test]
fn pool_unit_protocol_is_clean_across_all_bounded_schedules() {
    let report = pool_explorer().explore(&PoolModel::new(2, 3, false));
    report.assert_clean();
    assert!(report.exhausted, "bounded space fully enumerated");
    assert!(
        report.schedules > 1_000,
        "explored only {} schedules",
        report.schedules
    );
}

/// The ISSUE 8 acceptance bar: ring + pool jointly explore ≥ 10k
/// distinct schedules with zero violations.
#[test]
fn ring_and_pool_jointly_clear_ten_thousand_clean_schedules() {
    let ring = ring_explorer().explore(&RingModel::new(2, 4, None));
    let pool = pool_explorer().explore(&PoolModel::new(2, 3, false));
    ring.assert_clean();
    pool.assert_clean();
    let total = ring.schedules + pool.schedules;
    eprintln!(
        "model schedules: ring {} + pool {} = {total} (max depth {} / {})",
        ring.schedules, pool.schedules, ring.max_depth, pool.max_depth
    );
    assert!(
        total >= REQUIRED_CLEAN_SCHEDULES,
        "ring {} + pool {} = {total} schedules < {REQUIRED_CLEAN_SCHEDULES}",
        ring.schedules,
        pool.schedules
    );
}

#[test]
fn stage_node_never_deadlocks_and_takes_in_dispatch_order() {
    // depth 2, 10 dispatches; blocking and non-blocking takes interleave
    // with parked results on every bounded schedule.
    let report = Explorer {
        max_preemptions: 3,
        ..Explorer::default()
    }
    .explore(&NodeModel::new(2, 10, false));
    report.assert_clean();
    eprintln!("node model schedules: {}", report.schedules);
    assert!(report.exhausted, "bounded space fully enumerated");
    assert!(report.schedules > 100, "schedules: {}", report.schedules);
}

#[test]
fn seeded_lost_wakeup_queue_is_flagged_as_deadlock() {
    let report = ring_explorer().explore(&RingModel::new(2, 4, Some(RingBug::LostWakeup)));
    let v = report.violation.expect("the lost wakeup must be found");
    assert_eq!(v.kind, ViolationKind::Deadlock, "{}", v.message);
    assert!(!v.trace.is_empty(), "violation carries a replayable trace");
}

#[test]
fn seeded_recv_without_recheck_is_flagged_under_spurious_wakeups() {
    let report = ring_explorer().explore(&RingModel::new(2, 4, Some(RingBug::NoRecheck)));
    let v = report
        .violation
        .expect("the missing re-check must be found");
    assert!(
        matches!(v.kind, ViolationKind::Invariant | ViolationKind::Final),
        "unexpected kind {:?}: {}",
        v.kind,
        v.message
    );
}

#[test]
fn seeded_double_claim_pool_is_flagged() {
    let report = pool_explorer().explore(&PoolModel::new(2, 3, true));
    let v = report.violation.expect("the double claim must be found");
    assert_eq!(v.kind, ViolationKind::Invariant, "{}", v.message);
    assert!(v.message.contains("claimed"), "{}", v.message);
}

#[test]
fn seeded_dispatch_without_park_is_flagged_as_deadlock() {
    // Without the park step a slow lane lets the sequencer send into a
    // full job ring while the lane waits on a full done ring.
    let report = Explorer {
        max_preemptions: 3,
        ..Explorer::default()
    }
    .explore(&NodeModel::new(2, 10, true));
    let v = report.violation.expect("the wedge must be found");
    assert_eq!(v.kind, ViolationKind::Deadlock, "{}", v.message);
}
