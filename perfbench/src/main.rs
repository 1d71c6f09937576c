//! `perfbench`: the repository benchmark.
//!
//! Drives the sov crates through their public API from outside, one
//! workload per process:
//!
//! ```text
//! perfbench --workload drive-mix|fleet-peak|perception-frame --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` sets the workload up several times, times untraced units
//! of work for `S` seconds and prints the end-to-end metrics. `--trace 1`
//! runs every unit twice, traced and untraced in alternating order,
//! records one span per call into a layer, writes the spans to
//! `perfbench/out/` and prints the per-layer metrics the workload
//! exercises. A workload without a pool runs each cycle of units on the
//! next allowed CPU (see `cpu`). Either way the outputs are checked
//! against a reference computed in the same run, and the last line of
//! stdout is one JSON object: `{"correct": .., "attempted": ..,
//! "failed": .., "digest": "..", "metrics": {"<name>": <value>, ..}}`.
//! `run.py` checks the names against `BENCHMARK.json` and adds the units.

mod cpu;
mod drive_mix;
mod fleet_peak;
mod perception_frame;
mod trace;

use sov_runtime::pool::{for_chunks, WorkerPool};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};
use trace::{Recorder, Totals, Tracer};

/// Fewest set-ups per untraced run; `setup_s` is their median. The first
/// one is measured; the others are spread over the measurement (or start
/// its cycles, see `Workload::FRESH_CYCLES`), so that the median sees the
/// host as the units do.
const SETUP_REPS: usize = 5;
/// Fewest units a run measures, so that ten samples lie beyond p90. Peak
/// RSS is read once this many units have run, so that it covers a fixed
/// amount of work however fast the units are.
const MIN_UNITS: u64 = 100;
/// Fewest traced units (each has an untraced twin).
const MIN_TRACED_UNITS: u64 = 50;
/// Errors echoed to stderr per run.
const MAX_LOGGED_ERRORS: usize = 5;

/// Samples of the fork-join probe; each times `FORK_JOIN_BATCH` calls.
const FORK_JOIN_SAMPLES: usize = 400;
const FORK_JOIN_BATCH: u32 = 25;

/// FNV-style fold shared by every output digest.
pub fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0100_0000_01b3)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Outcome of a workload's output check.
#[derive(Debug, Default)]
pub struct Checks {
    /// Comparisons made.
    pub attempted: u64,
    /// One message per failed comparison.
    pub failures: Vec<String>,
    /// Digest of the deterministic fields that were compared.
    pub digest: u64,
}

/// One benchmark workload, driven through the program's public API.
pub trait Workload: Sized {
    /// Units in one balanced pass over the input mix; runs end on a
    /// multiple of it.
    const CYCLE: u64 = 1;

    /// Whether every cycle starts from a fresh set-up, for a workload
    /// whose state evolves from unit to unit: then every cycle runs the
    /// same units however fast they are. Untraced, those set-ups are the
    /// set-up samples.
    const FRESH_CYCLES: bool = false;

    /// Generates inputs, constructs the system and warms it up.
    fn setup(seed: u64, tr: &mut Tracer) -> Self;

    /// Runs unit `i`. In the traced run both twins of a unit get the same
    /// `i` and do the same work.
    fn unit(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String>;

    /// Checks the last unit's outputs, outside the timed region.
    fn after_unit(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Work completed by `unit` calls since set-up, in the workload's
    /// throughput unit.
    fn work_done(&self) -> u64;

    /// Compares outputs against a reference computed in this run.
    fn check(&mut self) -> Checks;

    /// Takes over the traced counters of the instance that a fresh set-up
    /// replaces.
    fn inherit(&mut self, _old: Self) {}

    /// The workload's own pool, if it has one.
    fn pool(&self) -> Option<&WorkerPool>;

    /// Per-layer counters, as means per traced unit.
    fn counters(&self) -> Vec<(&'static str, f64)>;
}

/// Operations attempted and failed in one run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    logged: usize,
}

impl Tally {
    fn fail(&mut self, error: &str) {
        self.failed += 1;
        if self.logged < MAX_LOGGED_ERRORS {
            self.logged += 1;
            eprintln!("perfbench: failed: {error}");
        }
    }

    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(&e);
        }
    }

    fn checks(&mut self, checks: &Checks) {
        self.attempted += checks.attempted;
        for e in &checks.failures {
            self.fail(e);
        }
    }
}

/// Linear-interpolated percentile of `sorted` (ascending), `p` in [0, 1].
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median cost of one `for_chunks` over one empty chunk per lane, in µs.
fn fork_join_us(pool: Option<&WorkerPool>) -> f64 {
    let mut items = vec![0u8; pool.map_or(1, WorkerPool::lanes)];
    let mut call = || {
        for_chunks(pool, &mut items, 1, |_, c| {
            black_box(c);
        })
    };
    for _ in 0..FORK_JOIN_BATCH * 4 {
        call();
    }
    let samples = (0..FORK_JOIN_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..FORK_JOIN_BATCH {
                call();
            }
            t0.elapsed().as_secs_f64() * 1e6 / f64::from(FORK_JOIN_BATCH)
        })
        .collect();
    percentile(&sorted(samples), 0.5)
}

struct Outcome {
    tally: Tally,
    digest: u64,
    metrics: BTreeMap<String, f64>,
}

fn timed_setup<W: Workload>(seed: u64) -> (W, f64) {
    let t0 = Instant::now();
    let w = W::setup(seed, &mut Tracer::off());
    (w, t0.elapsed().as_secs_f64())
}

fn measure<W: Workload>(seed: u64, budget: Duration) -> Outcome {
    let start = Instant::now();
    let (mut w, setup_s) = timed_setup::<W>(seed);
    let mut setups = vec![setup_s];
    let budget_s = budget.as_secs_f64();
    let mut tally = Tally::default();
    let mut lat_ms = Vec::with_capacity(4096);
    let (mut busy_s, mut rss_mb) = (0.0, 0.0);
    let rotation = cpu::Rotation::new(w.pool().is_none(), W::CYCLE);
    let (mut i, mut work) = (0, 0);
    while i % W::CYCLE != 0 || i < MIN_UNITS || busy_s < budget_s {
        if W::FRESH_CYCLES && i > 0 && i % W::CYCLE == 0 {
            work += w.work_done();
            let (fresh, setup_s) = timed_setup::<W>(seed);
            w = fresh;
            setups.push(setup_s);
        }
        rotation.before_unit(i);
        let t0 = Instant::now();
        let result = w.unit(i, &mut Tracer::off());
        let unit_s = t0.elapsed().as_secs_f64();
        busy_s += unit_s;
        lat_ms.push(unit_s * 1e3);
        tally.record(result.and_then(|()| w.after_unit()));
        i += 1;
        if i == MIN_UNITS {
            rss_mb = peak_rss_mb();
        }
        // Set-up `k` runs once `k / SETUP_REPS` of the budget is measured,
        // but not before peak RSS is read.
        let due = busy_s * SETUP_REPS as f64 >= budget_s * setups.len() as f64;
        if !W::FRESH_CYCLES && i >= MIN_UNITS && setups.len() < SETUP_REPS && due {
            setups.push(timed_setup::<W>(seed).1);
        }
    }
    drop(rotation);
    work += w.work_done();
    let checks = w.check();
    tally.checks(&checks);
    drop(w);
    while setups.len() < SETUP_REPS {
        setups.push(timed_setup::<W>(seed).1);
    }
    let wall_s = start.elapsed().as_secs_f64();
    eprintln!(
        "perfbench: {} units, {busy_s:.2} s in units, {wall_s:.2} s in all, {work} work items; \
         set-ups {setups:.3?} s",
        lat_ms.len(),
    );
    let lat = sorted(lat_ms);
    let metrics = [
        ("throughput_per_s", work as f64 / busy_s),
        ("latency_p50_ms", percentile(&lat, 0.5)),
        ("latency_p90_ms", percentile(&lat, 0.9)),
        ("setup_s", percentile(&sorted(setups), 0.5)),
        ("peak_rss_mb", rss_mb),
    ];
    Outcome {
        tally,
        digest: checks.digest,
        metrics: metrics.map(|(k, v)| (k.to_owned(), v)).into(),
    }
}

/// Per-layer metrics of one span name. Set-up is traced once: world
/// generation plus the harness's rest add up to `trace.setup_s`. Inside
/// units, every span's self time is its layer's busy time, per unit; with
/// the harness's own `trace.unit_self_s` they add up to `trace.unit_s`.
/// `core.drive`'s self time is the event loop, and its whole time is
/// reported too.
fn span_metrics(span: &str, t: Totals, units: f64) -> Vec<(String, f64)> {
    let s = |ns: i64| ns as f64 * 1e-9;
    let (total, own, per) = match span {
        "bench.setup" => ("trace.setup_s", "trace.setup_self_s", 1.0),
        "bench.unit" => ("trace.unit_s", "trace.unit_self_s", units),
        "core.drive" => ("core.drive_s", "core.loop_self_s", units),
        "world.generate" => return vec![("world.generate_s".to_owned(), s(t.dur_ns))],
        _ => return vec![(format!("{span}_s"), s(t.self_ns) / units)],
    };
    vec![
        (total.to_owned(), s(t.dur_ns) / per),
        (own.to_owned(), s(t.self_ns) / per),
    ]
}

fn traced<W: Workload>(seed: u64, budget: Duration, trace_path: &str) -> Outcome {
    let mut rec = Recorder::new();
    let setup = rec.open("bench.setup");
    let mut w = W::setup(seed, &mut Tracer::on(&mut rec));
    rec.close(setup);
    let mut tally = Tally::default();
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let rotation = cpu::Rotation::new(w.pool().is_none(), W::CYCLE);
    let mut k = 0;
    while k % W::CYCLE != 0 || k < MIN_TRACED_UNITS || start.elapsed() < budget {
        if W::FRESH_CYCLES && k > 0 && k % W::CYCLE == 0 {
            let mut fresh = W::setup(seed, &mut Tracer::off());
            fresh.inherit(w);
            w = fresh;
        }
        rotation.before_unit(k);
        // Alternate which twin goes first so neither always runs warm.
        for on in [k % 2 == 0, k % 2 != 0] {
            let result = if on {
                rec.set_unit(k + 1);
                let id = rec.open("bench.unit");
                let result = w.unit(k, &mut Tracer::on(&mut rec));
                rec.close(id);
                on_ms.push(rec.dur_s(id) * 1e3);
                result
            } else {
                let t0 = Instant::now();
                let result = w.unit(k, &mut Tracer::off());
                off_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                result
            };
            tally.record(result.and_then(|()| w.after_unit()));
        }
        k += 1;
    }
    drop(rotation);
    let fork_join = fork_join_us(w.pool());
    let checks = w.check();
    tally.checks(&checks);

    let units = on_ms.len() as f64;
    let mut metrics: BTreeMap<String, f64> = rec
        .totals()
        .into_iter()
        .flat_map(|(span, t)| span_metrics(span, t, units))
        .collect();
    metrics.extend(w.counters().into_iter().map(|(k, v)| (k.to_owned(), v)));
    metrics.insert("trace.units".to_owned(), units);
    metrics.insert(
        "trace.overhead_ratio".to_owned(),
        percentile(&sorted(on_ms), 0.5) / percentile(&sorted(off_ms), 0.5),
    );
    metrics.insert("runtime.fork_join_us".to_owned(), fork_join);

    match std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::write(trace_path, rec.chrome_json()))
    {
        Ok(()) => eprintln!("perfbench: wrote {trace_path}"),
        Err(e) => tally.record(Err(format!("writing {trace_path}: {e}"))),
    }
    Outcome {
        tally,
        digest: checks.digest,
        metrics,
    }
}

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: perfbench --workload drive-mix|fleet-peak|perception-frame \
                 [--seed N] [--seconds S] [--trace 0|1]";
    let parse = |flag: &str, default: u64| {
        arg(&args, flag).map_or(Some(default), |v| v.parse::<u64>().ok())
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace @ (0 | 1))) = (
        arg(&args, "--workload"),
        parse("--seed", 42),
        parse("--seconds", 10),
        parse("--trace", 0),
    ) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let budget = Duration::from_secs(seconds);
    let trace_path = format!("perfbench/out/trace-{workload}-seed{seed}.json");
    let outcome = match (workload, trace) {
        ("drive-mix", 0) => measure::<drive_mix::DriveMix>(seed, budget),
        ("fleet-peak", 0) => measure::<fleet_peak::FleetPeak>(seed, budget),
        ("perception-frame", 0) => measure::<perception_frame::PerceptionFrame>(seed, budget),
        ("drive-mix", _) => traced::<drive_mix::DriveMix>(seed, budget, &trace_path),
        ("fleet-peak", _) => traced::<fleet_peak::FleetPeak>(seed, budget, &trace_path),
        ("perception-frame", _) => {
            traced::<perception_frame::PerceptionFrame>(seed, budget, &trace_path)
        }
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let Outcome {
        tally,
        digest,
        metrics,
    } = outcome;
    let mut json = String::new();
    for (name, value) in &metrics {
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {value}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": \"{digest:016x}\", \"metrics\": {{{json}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
    );
}
