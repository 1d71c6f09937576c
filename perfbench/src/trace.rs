//! In-memory span recorder for the traced run.
//!
//! The benchmark records one span around each call it makes into a
//! layer's public functions. Spans stay in memory until the run ends;
//! then they are aggregated into per-layer busy times and written out as
//! Chrome trace-event JSON (open it in `chrome://tracing` or Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `fleet.dispatch`.
    pub name: &'static str,
    /// Id shared by every span of one unit of work (0 = set-up).
    pub unit: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub t0_ns: u64,
    /// End time.
    pub t1_ns: u64,
    /// True when the duration comes from a report the program produced
    /// (laid out back to back inside its parent) rather than from the
    /// benchmark's own clock.
    pub derived: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.t1_ns - self.t0_ns
    }
}

/// Inclusive and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Sum of span durations (ns).
    pub dur_ns: i64,
    /// Sum of span durations minus their children's (ns).
    pub self_ns: i64,
}

/// Append-only span store with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
    /// Where the next derived child of the innermost open span starts.
    cursor_ns: u64,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            unit: 0,
            cursor_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Tags every span opened from now on with unit id `unit`.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let t0 = self.now_ns();
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent: self.open.last().copied(),
            t0_ns: t0,
            t1_ns: t0,
            derived: false,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        self.cursor_ns = t0;
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].t1_ns = self.now_ns();
    }

    /// Adds a child of the innermost open span whose duration the program
    /// reported; children are laid out back to back from the parent's
    /// start.
    pub fn derived(&mut self, name: &'static str, dur_ns: u64) {
        let parent = *self
            .open
            .last()
            .expect("a derived span needs an open parent");
        let t0 = self.cursor_ns;
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent: Some(parent),
            t0_ns: t0,
            t1_ns: t0 + dur_ns,
            derived: true,
        });
        self.cursor_ns = t0 + dur_ns;
    }

    /// Duration of a closed span in seconds.
    pub fn dur_s(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 * 1e-9
    }

    /// Per-name inclusive and self times over every recorded span.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0i64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns() as i64;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.dur_ns += s.dur_ns() as i64;
            t.self_ns += s.dur_ns() as i64 - child;
        }
        out
    }

    /// Chrome trace-event JSON of every span ("X" complete events, times
    /// in microseconds).
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128 + 256);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let _ = write!(
            out,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"args\": {{\"name\": \"perfbench\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n{{\"name\": \"{}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
                 \"unit\": {}, \"derived\": {}}}}}",
                s.name,
                s.t0_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.unit,
                s.derived,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// What a workload records through: a recorder in the traced run,
/// nothing in the untraced one.
pub struct Tracer<'a>(Option<&'a mut Recorder>);

impl<'a> Tracer<'a> {
    /// Records into `rec`.
    pub fn on(rec: &'a mut Recorder) -> Self {
        Self(Some(rec))
    }

    /// Records nothing.
    pub fn off() -> Self {
        Self(None)
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self.0.as_deref_mut() {
            None => f(),
            Some(rec) => {
                let id = rec.open(name);
                let out = f();
                rec.close(id);
                out
            }
        }
    }

    /// Opens a span to be closed with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        self.0.as_deref_mut().map(|rec| rec.open(name))
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let (Some(rec), Some(id)) = (self.0.as_deref_mut(), id) {
            rec.close(id);
        }
    }

    /// See [`Recorder::derived`].
    pub fn derived(&mut self, name: &'static str, dur_ns: u64) {
        if let Some(rec) = self.0.as_deref_mut() {
            rec.derived(name, dur_ns);
        }
    }
}
