//! Safety-invariant fuzzing across generated scenarios × the fault
//! matrix.
//!
//! `ScenarioGen` turns seeds into worlds — intersections, pedestrian
//! crossings, occluded obstacles, multi-vehicle traffic, GPS canyons,
//! low-texture stretches — and every world is driven under the nominal
//! plan plus each `FaultKind` (active t = 4 s … 14 s at default
//! intensity). Every drive carries the per-tick `SafetyInvariants`
//! checker; the output is a coverage/outcome matrix over scenario class
//! × fault class × degradation mode reached × invariant verdict.
//!
//! Scenarios shard across the deterministic `WorkerPool` — one scenario
//! = one job, ordered merge — so the matrix is identical for any
//! `--workers` lane count (the DESIGN.md §8 argument; `--smoke` proves
//! it by recomputing single-laned and comparing the serialized JSON).
//!
//! On any violation the harness shrinks to the minimal failing
//! `(scenario_seed, fault_seed, frame)` triple — it re-drives with
//! `max_frames = frame + 1` to confirm the prefix reproduces — and
//! prints a one-line repro:
//!
//! ```text
//! scenario_matrix --repro <scenario_seed> <fault_seed> <frame>
//! ```
//!
//! `--seed N` picks the base seed (default 42); `--json PATH` writes the
//! matrix (deterministic: no wall-clock values). Each matrix row carries a
//! `report_digest` folded, in scenario order, from the digest of every
//! drive in the row, so the JSON changes whenever any drive's report
//! does — not only when an aggregate moves. Exits non-zero on any
//! invariant violation or collision.

use sov_bench::{digest_report, mix};
use sov_core::config::VehicleConfig;
use sov_core::sov::{DriveOutcome, DriveReport, Sov};
use sov_fault::{FaultKind, FaultPlan};
use sov_runtime::pool::WorkerPool;
use sov_sim::time::SimTime;
use sov_world::generate::{ScenarioClass, ScenarioGen};
use sov_world::scenario::Scenario;

const FRAMES: u64 = 300;
const FAULT_START_S: u64 = 4;
const FAULT_END_S: u64 = 14;
const FULL_PER_CLASS: u64 = 34; // 34 × 6 classes = 204 scenarios
const SMOKE_PER_CLASS: u64 = 2;

/// One drive of the matrix: a generated scenario under one fault plan.
struct Cell {
    fault: String,
    outcome: DriveOutcome,
    /// Deepest degradation mode reached (index into
    /// `DegradationMode::ALL`).
    deepest_mode: usize,
    violations: u64,
    min_gap_m: f64,
    /// [`digest_report`] of the drive.
    digest: u64,
}

/// A confirmed-minimal failing triple.
struct Repro {
    scenario_seed: u64,
    fault_seed: u64,
    fault: String,
    frame: u64,
    invariant: &'static str,
    confirmed: bool,
}

/// One scenario's row of cells (nominal + every fault kind).
struct ScenRun {
    class: ScenarioClass,
    cells: Vec<Cell>,
    repros: Vec<Repro>,
}

/// The fault plan for a cell. `fault_seed == 0` is the nominal plan;
/// otherwise the seed must equal `derive_seed(scenario_seed, kind_code)`
/// so the triple alone reconstructs the drive.
fn plan_for(fault_seed: u64, kind: Option<FaultKind>) -> FaultPlan {
    match kind {
        None => FaultPlan::nominal(),
        Some(k) => FaultPlan::new(fault_seed).with(
            k,
            SimTime::from_millis(FAULT_START_S * 1000),
            SimTime::from_millis(FAULT_END_S * 1000),
        ),
    }
}

fn fault_seed_for(scenario_seed: u64, kind_idx: usize) -> u64 {
    ScenarioGen::derive_seed(scenario_seed, kind_idx as u64 + 1)
}

fn drive(scenario: &Scenario, frames: u64, plan: &FaultPlan) -> DriveReport {
    let mut sov = Sov::new(VehicleConfig::perceptin_pod(), scenario.seed);
    sov.drive_with_plan(scenario, frames, plan)
        .expect("frames > 0")
}

fn deepest_mode(rep: &DriveReport) -> usize {
    rep.mode_ticks
        .iter()
        .enumerate()
        .rev()
        .find(|(_, &ticks)| ticks > 0)
        .map_or(0, |(i, _)| i)
}

/// Drives one generated scenario through the whole fault row, shrinking
/// any violation to its minimal frame triple.
fn run_scenario(scenario_seed: u64) -> ScenRun {
    let generated = ScenarioGen::generate(scenario_seed);
    let scenario = &generated.scenario;
    let mut cells = Vec::with_capacity(1 + FaultKind::ALL.len());
    let mut repros = Vec::new();
    let row: Vec<(Option<FaultKind>, u64)> = std::iter::once((None, 0u64))
        .chain(
            FaultKind::ALL
                .iter()
                .enumerate()
                .map(|(i, &k)| (Some(k), fault_seed_for(scenario_seed, i))),
        )
        .collect();
    for (kind, fault_seed) in row {
        let plan = plan_for(fault_seed, kind);
        let rep = drive(scenario, FRAMES, &plan);
        let fault = kind.map_or_else(|| "nominal".to_string(), |k| k.to_string());
        let first = rep
            .safety
            .first
            .as_ref()
            .map(|v| (v.frame, v.invariant.name()));
        if let Some((frame, invariant)) = first {
            // Shrink: the violating prefix alone must reproduce the
            // same first violation — that is what makes the triple
            // minimal and the repro one line.
            let short = drive(scenario, frame + 1, &plan);
            let confirmed = short.safety.first.as_ref().map(|v| (v.frame, v.invariant))
                == rep.safety.first.as_ref().map(|v| (v.frame, v.invariant));
            repros.push(Repro {
                scenario_seed,
                fault_seed,
                fault: fault.clone(),
                frame,
                invariant,
                confirmed,
            });
        }
        cells.push(Cell {
            fault,
            outcome: rep.outcome,
            deepest_mode: deepest_mode(&rep),
            violations: rep.safety.violations,
            min_gap_m: rep.min_obstacle_gap_m,
            digest: digest_report(&rep),
        });
    }
    ScenRun {
        class: generated.class,
        cells,
        repros,
    }
}

/// The scenario seed list: `per_class` seeds of every class, derived
/// from the base seed by rejection sampling so each seed alone
/// round-trips to its world (`ScenarioGen::generate(seed)`).
fn seed_list(base: u64, per_class: u64) -> Vec<u64> {
    let mut seeds = Vec::new();
    for i in 0..per_class {
        for class in ScenarioClass::ALL {
            seeds.push(ScenarioGen::seed_for_class(class, base, i));
        }
    }
    seeds
}

/// Runs the whole matrix sharded across `lanes` worker lanes. One
/// scenario = one job with chunk size 1; the pool's ordered merge makes
/// the result vector — and everything derived from it — identical for
/// any lane count.
fn run_matrix(seeds: &[u64], lanes: usize) -> Vec<ScenRun> {
    if lanes <= 1 {
        return seeds.iter().map(|&s| run_scenario(s)).collect();
    }
    let pool = WorkerPool::new(lanes);
    pool.parallel_map(seeds, 1, |_, &s| run_scenario(s))
}

/// Aggregated matrix row: scenario class × fault class.
#[derive(Default)]
struct Agg {
    runs: u64,
    completed: u64,
    stopped: u64,
    collisions: u64,
    /// Runs whose deepest degradation mode was ALL[i].
    deepest: [u64; 4],
    violations: u64,
    min_gap_m: f64,
    /// The row's drive digests, folded in scenario order.
    report_digest: u64,
}

impl Agg {
    fn new() -> Self {
        Self {
            min_gap_m: f64::INFINITY,
            ..Self::default()
        }
    }
}

fn aggregate(runs: &[ScenRun]) -> Vec<(String, String, Agg)> {
    // Fixed row order: class-major, fault-minor, as generated.
    let mut rows: Vec<(String, String, Agg)> = Vec::new();
    for class in ScenarioClass::ALL {
        for fault in std::iter::once("nominal".to_string())
            .chain(FaultKind::ALL.iter().map(ToString::to_string))
        {
            rows.push((class.name().to_string(), fault, Agg::new()));
        }
    }
    for run in runs {
        for cell in &run.cells {
            let row = rows
                .iter_mut()
                .find(|(c, f, _)| c == run.class.name() && *f == cell.fault)
                .expect("row preallocated");
            let a = &mut row.2;
            a.runs += 1;
            match cell.outcome {
                DriveOutcome::Completed => a.completed += 1,
                DriveOutcome::Stopped => a.stopped += 1,
                DriveOutcome::Collision => a.collisions += 1,
            }
            a.deepest[cell.deepest_mode] += 1;
            a.violations += cell.violations;
            if cell.min_gap_m.is_finite() {
                a.min_gap_m = a.min_gap_m.min(cell.min_gap_m);
            }
            a.report_digest = mix(a.report_digest, cell.digest);
        }
    }
    rows
}

fn json_report(base: u64, seeds: &[u64], runs: &[ScenRun]) -> String {
    let rows = aggregate(runs);
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"base_seed\": {base},\n  \"frames\": {FRAMES},\n  \"fault_window_s\": [{FAULT_START_S}, {FAULT_END_S}],\n"
    ));
    out.push_str(&format!(
        "  \"scenarios\": {},\n  \"fault_cells_per_scenario\": {},\n",
        seeds.len(),
        1 + FaultKind::ALL.len()
    ));
    let seed_strs: Vec<String> = seeds.iter().map(u64::to_string).collect();
    out.push_str(&format!(
        "  \"scenario_seeds\": [{}],\n",
        seed_strs.join(", ")
    ));
    out.push_str("  \"matrix\": [\n");
    let row_strs: Vec<String> = rows
        .iter()
        .map(|(class, fault, a)| {
            let verdict = if a.violations == 0 && a.collisions == 0 {
                "ok"
            } else {
                "violated"
            };
            format!(
                concat!(
                    "    {{\"class\": \"{}\", \"fault\": \"{}\", \"runs\": {}, ",
                    "\"outcomes\": {{\"completed\": {}, \"stopped\": {}, \"collision\": {}}}, ",
                    "\"deepest_mode\": {{\"nominal\": {}, \"degraded-localization\": {}, ",
                    "\"reactive-only\": {}, \"safe-stop\": {}}}, ",
                    "\"invariant_violations\": {}, \"verdict\": \"{}\", \"min_gap_m\": {}, ",
                    "\"report_digest\": \"{:016x}\"}}"
                ),
                class,
                fault,
                a.runs,
                a.completed,
                a.stopped,
                a.collisions,
                a.deepest[0],
                a.deepest[1],
                a.deepest[2],
                a.deepest[3],
                a.violations,
                verdict,
                if a.min_gap_m.is_finite() {
                    format!("{:.3}", a.min_gap_m)
                } else {
                    "null".to_string()
                },
                a.report_digest,
            )
        })
        .collect();
    out.push_str(&row_strs.join(",\n"));
    out.push_str("\n  ],\n  \"violations\": [\n");
    let viol_strs: Vec<String> = runs
        .iter()
        .flat_map(|r| r.repros.iter())
        .map(|v| {
            format!(
                concat!(
                    "    {{\"scenario_seed\": {}, \"fault_seed\": {}, \"fault\": \"{}\", ",
                    "\"frame\": {}, \"invariant\": \"{}\", \"prefix_confirmed\": {}, ",
                    "\"repro\": \"scenario_matrix --repro {} {} {}\"}}"
                ),
                v.scenario_seed,
                v.fault_seed,
                v.fault,
                v.frame,
                v.invariant,
                v.confirmed,
                v.scenario_seed,
                v.fault_seed,
                v.frame,
            )
        })
        .collect();
    out.push_str(&viol_strs.join(",\n"));
    out.push_str(if viol_strs.is_empty() {
        "  ],\n"
    } else {
        "\n  ],\n"
    });
    let total_violations: u64 = rows.iter().map(|(_, _, a)| a.violations).sum();
    let total_collisions: u64 = rows.iter().map(|(_, _, a)| a.collisions).sum();
    out.push_str(&format!(
        "  \"total_invariant_violations\": {total_violations},\n  \"total_collisions\": {total_collisions}\n}}\n"
    ));
    out
}

/// Re-drives a recorded minimal triple and reports whether the
/// violation reproduces. The fault kind is recovered from the fault
/// seed (it is `derive_seed(scenario_seed, kind_index + 1)`).
fn repro(scenario_seed: u64, fault_seed: u64, frame: u64) -> bool {
    let kind = if fault_seed == 0 {
        None
    } else {
        FaultKind::ALL
            .iter()
            .enumerate()
            .find(|&(i, _)| fault_seed_for(scenario_seed, i) == fault_seed)
            .map(|(_, &k)| k)
    };
    if kind.is_none() && fault_seed != 0 {
        println!("fault seed {fault_seed} does not belong to scenario seed {scenario_seed}");
        return false;
    }
    let generated = ScenarioGen::generate(scenario_seed);
    println!(
        "scenario seed {scenario_seed} → class {}, fault {}",
        generated.class.name(),
        kind.map_or_else(|| "nominal".to_string(), |k| k.to_string()),
    );
    let rep = drive(&generated.scenario, frame + 1, &plan_for(fault_seed, kind));
    println!(
        "drove {} frames: outcome {:?}, distance {:.1} m, min frontal gap {:.3} m, deepest mode {}",
        rep.frames,
        rep.outcome,
        rep.distance_m,
        rep.min_obstacle_gap_m,
        deepest_mode(&rep),
    );
    match &rep.safety.first {
        Some(v) => {
            println!(
                "reproduced: {} at frame {} (gap {:.2} m, speed {:.2} m/s)",
                v.invariant, v.frame, v.gap_m, v.speed_mps
            );
            true
        }
        None => {
            println!("no violation within {} frames", frame + 1);
            false
        }
    }
}

fn main() {
    sov_bench::banner(
        "Scenario matrix",
        "Generated scenarios × fault matrix, safety invariants per frame",
    );
    let base = sov_bench::seed_from_args();
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());
    let workers: usize = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(8)
        });
    if let Some(i) = args.iter().position(|a| a == "--repro") {
        let parse = |j: usize| args.get(i + j).and_then(|s| s.parse::<u64>().ok());
        let (Some(s), Some(f), Some(fr)) = (parse(1), parse(2), parse(3)) else {
            eprintln!("usage: scenario_matrix --repro <scenario_seed> <fault_seed> <frame>");
            std::process::exit(2);
        };
        std::process::exit(i32::from(!repro(s, f, fr)));
    }

    let per_class = if smoke {
        SMOKE_PER_CLASS
    } else {
        FULL_PER_CLASS
    };
    let seeds = seed_list(base, per_class);
    println!(
        "{} scenarios ({} per class) × {} fault cells = {} drives of {} frames, {} worker lane(s)",
        seeds.len(),
        per_class,
        1 + FaultKind::ALL.len(),
        seeds.len() * (1 + FaultKind::ALL.len()),
        FRAMES,
        workers,
    );
    let runs = run_matrix(&seeds, workers);
    let json = json_report(base, &seeds, &runs);

    if smoke {
        // Lane-count invariance, proven: the single-laned matrix must
        // serialize to the identical report.
        sov_bench::section("worker-lane invariance");
        let serial = json_report(base, &seeds, &run_matrix(&seeds, 1));
        if serial == json {
            println!("JSON identical for 1 and {workers} lane(s): PASS");
        } else {
            println!("JSON diverged between 1 and {workers} lane(s): FAIL");
            std::process::exit(1);
        }
    }

    sov_bench::section("matrix (scenario class × fault)");
    println!(
        "{:<20} | {:<16} | {:>4} | {:>4} {:>4} {:>4} | {:>4} {:>4} {:>4} {:>4} | {:>5} | {:>7}",
        "class",
        "fault",
        "runs",
        "cmpl",
        "stop",
        "coll",
        "nom",
        "dloc",
        "rct",
        "sstp",
        "viol",
        "min gap"
    );
    println!(
        "{:-<20}-+-{:-<16}-+-{:->4}-+-{:-<14}-+-{:-<19}-+-{:->5}-+-{:->7}",
        "", "", "", "", "", "", ""
    );
    for (class, fault, a) in aggregate(&runs) {
        println!(
            "{:<20} | {:<16} | {:>4} | {:>4} {:>4} {:>4} | {:>4} {:>4} {:>4} {:>4} | {:>5} | {:>7.2}",
            class,
            fault,
            a.runs,
            a.completed,
            a.stopped,
            a.collisions,
            a.deepest[0],
            a.deepest[1],
            a.deepest[2],
            a.deepest[3],
            a.violations,
            a.min_gap_m,
        );
    }

    let mut failed = false;
    let repro_lines: Vec<String> = runs
        .iter()
        .flat_map(|r| r.repros.iter())
        .map(|v| {
            format!(
                "{} on {} seed {}: frame {} — repro: scenario_matrix --repro {} {} {}{}",
                v.invariant,
                v.fault,
                v.scenario_seed,
                v.frame,
                v.scenario_seed,
                v.fault_seed,
                v.frame,
                if v.confirmed {
                    ""
                } else {
                    " [PREFIX DID NOT CONFIRM]"
                },
            )
        })
        .collect();
    let collisions: u64 = runs
        .iter()
        .flat_map(|r| r.cells.iter())
        .filter(|c| c.outcome == DriveOutcome::Collision)
        .count() as u64;
    if !repro_lines.is_empty() {
        failed = true;
        sov_bench::section("violations (minimal triples)");
        for line in &repro_lines {
            println!("{line}");
        }
    }
    if collisions > 0 {
        failed = true;
        println!("\n{collisions} drive(s) ended in collision");
    }

    if let Some(path) = json_path {
        std::fs::write(&path, &json).expect("write JSON report");
        println!("\nwrote {path}");
    }

    if failed {
        std::process::exit(1);
    }
    println!(
        "\nall {} drives upheld every safety invariant; failures cost availability, never safety.",
        seeds.len() * (1 + FaultKind::ALL.len())
    );
}
