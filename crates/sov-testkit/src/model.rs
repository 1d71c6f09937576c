//! A loom-style bounded-schedule model checker (offline stand-in).
//!
//! The workspace's house invariant — byte-identical reports for any
//! worker/depth schedule — ultimately rests on one small custom
//! concurrency protocol in `sov-runtime`: the `WorkerPool` atomic
//! chunk-claim/completion-barrier (the Fig. 5 replay uses only
//! `std::sync::mpsc` channels). Proptests exercise such protocols under
//! whatever schedules the OS happens to produce; this module checks them
//! under **every** schedule a bounded enumeration can reach.
//!
//! The design mirrors `loom` at a coarser granularity:
//!
//! * A protocol is re-expressed as a [`Model`]: a `Clone`-able state
//!   machine with one program counter per **virtual thread**. Every call
//!   to [`Model::step`] is one *atomic* transition (one lock hand-off,
//!   one atomic RMW, one ring operation); the points between steps are
//!   the explicit yield points.
//! * [`Explorer`] enumerates interleavings by depth-first search over
//!   which enabled thread steps next, snapshotting (cloning) the state at
//!   each branch so shared schedule prefixes are executed once. The
//!   search is bounded by a **preemption bound** (switching away from a
//!   thread that could still run costs one preemption; unforced switches
//!   beyond the bound are pruned — the Musuvathi/Qadeer heuristic: almost
//!   all concurrency bugs manifest within two or three preemptions) and a
//!   **spurious-wakeup budget** ([`MCondvar`] waiters may be woken without
//!   a notify, exactly as POSIX permits).
//! * After every step the model's [`Model::invariant`] runs; when all
//!   threads finish, [`Model::finished`] checks end-to-end properties
//!   (FIFO order, exactly-once claims, …). A state where no thread can
//!   make progress without relying on a spurious wakeup is reported as a
//!   **deadlock** (this is how a lost wakeup surfaces); an execution
//!   exceeding the step budget is reported as a **livelock**.
//!
//! Granularity note: operations performed while *holding* a modeled mutex
//! are collapsed into the acquiring/releasing steps. This is a sound
//! reduction — other threads cannot observe intermediate states of a
//! critical section — and it keeps the schedule space small enough to
//! enumerate tens of thousands of interleavings in a debug test run.
//! `notify_one` wakes the longest-waiting unwoken waiter (FIFO); the
//! protocols checked here never have more than one waiter per condvar, so
//! the simplification loses no schedules.

/// Index of a virtual thread within a [`Model`].
pub type ThreadId = usize;

/// One scheduling decision: which thread stepped, and whether the step
/// was a spurious condvar wakeup injected by the explorer.
pub type Choice = (ThreadId, bool);

/// Scheduling status of one virtual thread, derived from model state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Can take a normal step right now.
    Runnable,
    /// Cannot progress until another thread changes shared state (e.g.
    /// blocked acquiring a held lock, or sending into a full ring).
    Blocked,
    /// Parked in a condvar wait set. `woken` is true once a notify has
    /// marked this waiter; an unwoken waiter can only proceed via a
    /// spurious wakeup.
    Waiting {
        /// Whether a notify has already marked this waiter.
        woken: bool,
    },
    /// Finished its program.
    Done,
}

/// A protocol re-expressed as an explorable state machine.
///
/// Implementations must be cheap to `Clone` (the explorer snapshots at
/// every branch) and **deterministic**: `step` may depend only on the
/// model state and its arguments.
pub trait Model: Clone {
    /// Number of virtual threads (fixed for the model's lifetime).
    fn threads(&self) -> usize;

    /// Scheduling status of thread `t`. Must be a pure read.
    fn status(&self, t: ThreadId) -> Status;

    /// Executes one atomic step of thread `t`.
    ///
    /// Called only when `status(t)` is `Runnable` or `Waiting { .. }`;
    /// `spurious` is true when the explorer is injecting a spurious
    /// wakeup into an unwoken waiter.
    fn step(&mut self, t: ThreadId, spurious: bool);

    /// Safety invariant, checked after every step.
    ///
    /// # Errors
    ///
    /// Describes the violated invariant.
    fn invariant(&self) -> Result<(), String> {
        Ok(())
    }

    /// End-of-execution check, run once every thread is `Done`.
    ///
    /// # Errors
    ///
    /// Describes the violated end-to-end property.
    fn finished(&self) -> Result<(), String> {
        Ok(())
    }
}

/// What went wrong in a flagged execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// [`Model::invariant`] failed after a step.
    Invariant,
    /// No thread could progress without a spurious wakeup, and not all
    /// were done — a deadlock or lost wakeup.
    Deadlock,
    /// The execution exceeded the per-schedule step budget.
    Livelock,
    /// [`Model::finished`] failed at the end of a complete execution.
    Final,
}

/// A violating execution: the kind, a description, and the exact
/// schedule (replayable choice sequence) that reached it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Classification of the failure.
    pub kind: ViolationKind,
    /// Human-readable description from the model.
    pub message: String,
    /// The schedule that produced it, in order.
    pub trace: Vec<Choice>,
}

/// Result of an exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of distinct complete schedules executed (a violating
    /// schedule counts as complete).
    pub schedules: usize,
    /// First violation found, if any (the search stops at the first).
    pub violation: Option<Violation>,
    /// True when the bounded space was fully enumerated; false when the
    /// `max_schedules` cap stopped the search early.
    pub exhausted: bool,
    /// Longest schedule (in steps) reached.
    pub max_depth: usize,
}

impl Report {
    /// Panics with the violation trace if one was found — the assertion
    /// form used by protocol tests.
    ///
    /// # Panics
    ///
    /// Panics if the report carries a violation.
    pub fn assert_clean(&self) {
        if let Some(v) = &self.violation {
            panic!(
                "model violation ({:?}) after {} schedules: {}\n  trace: {:?}",
                v.kind, self.schedules, v.message, v.trace
            );
        }
    }
}

/// Bounded-DFS schedule explorer. See the module docs for the bounds.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Maximum unforced context switches per schedule.
    pub max_preemptions: usize,
    /// Maximum spurious condvar wakeups injected per schedule.
    pub max_spurious: usize,
    /// Step budget per schedule (livelock guard).
    pub max_steps: usize,
    /// Cap on complete schedules before stopping the search.
    pub max_schedules: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Self {
            max_preemptions: 3,
            max_spurious: 1,
            max_steps: 2_000,
            max_schedules: 100_000,
        }
    }
}

struct Search<M: Model> {
    bounds: Explorer,
    report: Report,
    trace: Vec<Choice>,
    _marker: std::marker::PhantomData<M>,
}

impl Explorer {
    /// Explores every schedule of `initial` within the bounds, stopping
    /// at the first violation or at `max_schedules`.
    pub fn explore<M: Model>(&self, initial: &M) -> Report {
        let mut search = Search {
            bounds: *self,
            report: Report {
                schedules: 0,
                violation: None,
                exhausted: true,
                max_depth: 0,
            },
            trace: Vec::new(),
            _marker: std::marker::PhantomData,
        };
        search.dfs(initial, None, 0, 0);
        search.report
    }
}

impl<M: Model> Search<M> {
    /// Returns false to cut the whole search (violation found or capped).
    fn dfs(
        &mut self,
        state: &M,
        last: Option<ThreadId>,
        preemptions: usize,
        spurious: usize,
    ) -> bool {
        if self.report.violation.is_some() {
            return false;
        }
        if self.report.schedules >= self.bounds.max_schedules {
            self.report.exhausted = false;
            return false;
        }
        let depth = self.trace.len();
        self.report.max_depth = self.report.max_depth.max(depth);

        let n = state.threads();
        let statuses: Vec<Status> = (0..n).map(|t| state.status(t)).collect();
        if statuses.iter().all(|s| *s == Status::Done) {
            self.report.schedules += 1;
            if let Err(message) = state.finished() {
                self.fail(ViolationKind::Final, message);
                return false;
            }
            return true;
        }
        if depth >= self.bounds.max_steps {
            self.report.schedules += 1;
            self.fail(
                ViolationKind::Livelock,
                format!("no completion within {} steps", self.bounds.max_steps),
            );
            return false;
        }

        // Normal transitions: runnable threads and notified waiters.
        let enabled: Vec<ThreadId> = (0..n)
            .filter(|&t| {
                matches!(
                    statuses[t],
                    Status::Runnable | Status::Waiting { woken: true }
                )
            })
            .collect();
        // Spurious transitions: unwoken waiters, while budget remains.
        let spurious_ok = spurious < self.bounds.max_spurious;
        let sleepers: Vec<ThreadId> = (0..n)
            .filter(|&t| spurious_ok && statuses[t] == Status::Waiting { woken: false })
            .collect();

        if enabled.is_empty() {
            // Progress must never depend on a spurious wakeup: declare
            // deadlock even if injecting one could move things along.
            self.report.schedules += 1;
            self.fail(
                ViolationKind::Deadlock,
                format!("no runnable thread (statuses: {statuses:?})"),
            );
            return false;
        }

        // Prefer continuing the last-run thread (a free transition), then
        // preempting switches, then spurious wakeups.
        let mut choices: Vec<(ThreadId, bool, usize)> = Vec::new();
        let last_enabled = last.is_some_and(|l| enabled.contains(&l));
        for &t in &enabled {
            let cost = usize::from(last_enabled && last != Some(t));
            choices.push((t, false, cost));
        }
        for &t in &sleepers {
            let cost = usize::from(last_enabled);
            choices.push((t, true, cost));
        }
        choices.sort_by_key(|&(t, sp, cost)| (cost, sp, t));

        for (t, sp, cost) in choices {
            if preemptions + cost > self.bounds.max_preemptions {
                continue;
            }
            let mut next = state.clone();
            next.step(t, sp);
            self.trace.push((t, sp));
            if let Err(message) = next.invariant() {
                self.report.schedules += 1;
                self.fail(ViolationKind::Invariant, message);
                return false;
            }
            let keep_going = self.dfs(
                &next,
                Some(t),
                preemptions + cost,
                spurious + usize::from(sp),
            );
            self.trace.pop();
            if !keep_going && (self.report.violation.is_some() || !self.report.exhausted) {
                return false;
            }
        }
        true
    }

    fn fail(&mut self, kind: ViolationKind, message: String) {
        self.report.violation = Some(Violation {
            kind,
            message,
            trace: self.trace.clone(),
        });
    }
}

/// A modeled mutex: ownership only, no queue (contenders show up as
/// `Blocked` and retry when the explorer schedules them).
#[derive(Debug, Clone, Default)]
pub struct MLock {
    owner: Option<ThreadId>,
}

impl MLock {
    /// Whether the lock is free to acquire.
    #[must_use]
    pub fn free(&self) -> bool {
        self.owner.is_none()
    }

    /// Acquires for `t`.
    ///
    /// # Panics
    ///
    /// Panics if the lock is already held (the model must gate the step
    /// on [`MLock::free`] via its `status`).
    pub fn acquire(&mut self, t: ThreadId) {
        assert!(
            self.owner.is_none(),
            "lock already held by {:?}",
            self.owner
        );
        self.owner = Some(t);
    }

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not the holder.
    pub fn release(&mut self, t: ThreadId) {
        assert_eq!(self.owner, Some(t), "release by non-owner");
        self.owner = None;
    }
}

/// A modeled condition variable: a FIFO wait set with per-waiter woken
/// flags. Spurious wakeups are injected by the [`Explorer`], not here.
#[derive(Debug, Clone, Default)]
pub struct MCondvar {
    waiters: Vec<(ThreadId, bool)>,
}

impl MCondvar {
    /// Parks `t` (the model must also release the associated lock in the
    /// same atomic step, mirroring `Condvar::wait`).
    pub fn wait(&mut self, t: ThreadId) {
        debug_assert!(!self.waiters.iter().any(|&(w, _)| w == t));
        self.waiters.push((t, false));
    }

    /// Marks the longest-waiting unwoken waiter as woken.
    pub fn notify_one(&mut self) {
        if let Some(w) = self.waiters.iter_mut().find(|(_, woken)| !*woken) {
            w.1 = true;
        }
    }

    /// Marks every waiter as woken.
    pub fn notify_all(&mut self) {
        for w in &mut self.waiters {
            w.1 = true;
        }
    }

    /// Whether `t` is parked, and if so whether it has been woken.
    #[must_use]
    pub fn waiting(&self, t: ThreadId) -> Option<bool> {
        self.waiters
            .iter()
            .find(|&&(w, _)| w == t)
            .map(|&(_, woken)| woken)
    }

    /// Removes `t` from the wait set (it is waking up, notified or
    /// spuriously).
    pub fn unpark(&mut self, t: ThreadId) {
        self.waiters.retain(|&(w, _)| w != t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads increment a shared counter with a non-atomic
    /// read-modify-write (read one step, write the next). The classic
    /// lost-update race: the checker must find the interleaving where
    /// both reads happen before either write.
    #[derive(Clone)]
    struct RacyCounter {
        atomic: bool,
        counter: u32,
        stage: [u8; 2], // 0 = about to read, 1 = about to write, 2 = done
        scratch: [u32; 2],
    }

    impl RacyCounter {
        fn new(atomic: bool) -> Self {
            Self {
                atomic,
                counter: 0,
                stage: [0; 2],
                scratch: [0; 2],
            }
        }
    }

    impl Model for RacyCounter {
        fn threads(&self) -> usize {
            2
        }

        fn status(&self, t: ThreadId) -> Status {
            if self.stage[t] == 2 {
                Status::Done
            } else {
                Status::Runnable
            }
        }

        fn step(&mut self, t: ThreadId, _spurious: bool) {
            if self.atomic {
                self.counter += 1;
                self.stage[t] = 2;
            } else if self.stage[t] == 0 {
                self.scratch[t] = self.counter;
                self.stage[t] = 1;
            } else {
                self.counter = self.scratch[t] + 1;
                self.stage[t] = 2;
            }
        }

        fn finished(&self) -> Result<(), String> {
            if self.counter == 2 {
                Ok(())
            } else {
                Err(format!("lost update: counter == {}", self.counter))
            }
        }
    }

    #[test]
    fn finds_the_lost_update_race() {
        let report = Explorer::default().explore(&RacyCounter::new(false));
        let v = report.violation.expect("the race must be found");
        assert_eq!(v.kind, ViolationKind::Final);
        assert!(v.message.contains("lost update"));
        assert!(!v.trace.is_empty(), "trace replays the schedule");
    }

    #[test]
    fn atomic_counter_is_clean_and_exhausts() {
        let report = Explorer::default().explore(&RacyCounter::new(true));
        report.assert_clean();
        assert!(report.exhausted);
        // Two single-step threads under a preemption bound ≥ 1: both
        // orders are explored.
        assert_eq!(report.schedules, 2);
    }

    /// One thread waits on a condvar; the notifier either notifies or
    /// forgets to (lost wakeup → deadlock).
    #[derive(Clone)]
    struct WaitNotify {
        notify: bool,
        lock: MLock,
        cv: MCondvar,
        flag: bool,
        pc: [u8; 2], // waiter, notifier
    }

    impl WaitNotify {
        fn new(notify: bool) -> Self {
            Self {
                notify,
                lock: MLock::default(),
                cv: MCondvar::default(),
                flag: false,
                pc: [0; 2],
            }
        }
    }

    impl Model for WaitNotify {
        fn threads(&self) -> usize {
            2
        }

        fn status(&self, t: ThreadId) -> Status {
            match (t, self.pc[t]) {
                (_, 9) => Status::Done,
                // Waiter: 0 = acquire, 1 = parked, 2 = reacquire.
                (0, 0) | (0, 2) | (1, 0) if self.lock.free() => Status::Runnable,
                (0, 0) | (0, 2) | (1, 0) => Status::Blocked,
                (0, 1) => Status::Waiting {
                    woken: self.cv.waiting(0) == Some(true),
                },
                _ => unreachable!("pc out of range"),
            }
        }

        fn step(&mut self, t: ThreadId, _spurious: bool) {
            match (t, self.pc[t]) {
                (0, 0) | (0, 2) => {
                    // Acquire; with the lock held, check the predicate
                    // (collapsed into one step — see module docs).
                    self.lock.acquire(0);
                    if self.flag {
                        self.lock.release(0);
                        self.pc[0] = 9;
                    } else {
                        self.cv.wait(0);
                        self.lock.release(0);
                        self.pc[0] = 1;
                    }
                }
                (0, 1) => {
                    self.cv.unpark(0);
                    self.pc[0] = 2;
                }
                (1, 0) => {
                    self.lock.acquire(1);
                    self.flag = true;
                    if self.notify {
                        self.cv.notify_one();
                    }
                    self.lock.release(1);
                    self.pc[1] = 9;
                }
                _ => unreachable!("stepped a done thread"),
            }
        }
    }

    #[test]
    fn lost_wakeup_is_reported_as_deadlock() {
        let bounds = Explorer {
            max_spurious: 0, // correctness must not rely on spurious wakes
            ..Explorer::default()
        };
        let report = bounds.explore(&WaitNotify::new(false));
        let v = report.violation.expect("lost wakeup must be found");
        assert_eq!(v.kind, ViolationKind::Deadlock);
    }

    #[test]
    fn wait_notify_protocol_is_clean_with_spurious_wakeups() {
        let bounds = Explorer {
            max_spurious: 2,
            ..Explorer::default()
        };
        let report = bounds.explore(&WaitNotify::new(true));
        report.assert_clean();
        assert!(report.exhausted);
        assert!(report.schedules >= 3, "schedules: {}", report.schedules);
    }

    #[test]
    fn schedule_cap_reports_non_exhaustion() {
        let bounds = Explorer {
            max_schedules: 1,
            ..Explorer::default()
        };
        let report = bounds.explore(&RacyCounter::new(true));
        assert!(!report.exhausted);
        assert_eq!(report.schedules, 1);
    }
}
