//! Fault-injection characterization: every fault kind × deployment
//! scenario, against the nominal baseline.
//!
//! For each scenario the harness first drives the nominal plan, then
//! re-drives with each [`FaultKind`] active over t = 4 s … 14 s at its
//! default intensity, and reports outcome, degraded-mode residency,
//! recovery latency, and distance retained vs nominal. The sweep is the
//! executable form of the paper's safety argument: **no single-modality
//! fault may produce a collision** — the worst allowed outcome is lost
//! availability (a slower or stopped vehicle).
//!
//! Every field is simulated, so a fixed seed reproduces the JSON byte for
//! byte.
//!
//! `--seed N` picks the seed (default 42); `--json PATH` additionally
//! writes the matrix as JSON.

use sov_core::config::VehicleConfig;
use sov_core::health::DegradationMode;
use sov_core::sov::{DriveOutcome, DriveReport, Sov};
use sov_fault::{FaultKind, FaultPlan};
use sov_sim::time::SimTime;
use sov_world::scenario::Scenario;

const FRAMES: u64 = 300;
const FAULT_START_S: u64 = 4;
const FAULT_END_S: u64 = 14;

struct Run {
    scenario: &'static str,
    fault: String,
    report: DriveReport,
}

fn drive(scenario: &Scenario, seed: u64, plan: &FaultPlan) -> DriveReport {
    let mut sov = Sov::new(VehicleConfig::perceptin_pod(), seed);
    sov.drive_with_plan(scenario, FRAMES, plan)
        .expect("FRAMES > 0")
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Computing-latency tail columns (p50/p99/p99.9/max, ms). The deep
/// tail is where COLA locates the Level-4 safety breakers; a fault that
/// barely moves the mean can still stretch p99.9 by hundreds of ms.
fn tail(rep: &DriveReport) -> (f64, f64, f64, f64) {
    let mut c = rep.computing.clone();
    (c.median(), c.p99(), c.p999(), c.max())
}

fn run_json(r: &Run, nominal_distance: f64) -> String {
    let rep = &r.report;
    let recovery = if !rep.recovery_ms.is_empty() {
        format!("{:.3}", rep.recovery_ms.mean())
    } else {
        "null".to_string()
    };
    let (p50, p99, p999, max) = tail(rep);
    format!(
        concat!(
            "    {{\"scenario\": \"{}\", \"fault\": \"{}\", \"outcome\": \"{:?}\", ",
            "\"distance_m\": {:.3}, \"distance_vs_nominal\": {:.4}, ",
            "\"min_gap_m\": {:.3}, \"mode_ticks\": [{}, {}, {}, {}], ",
            "\"mode_transitions\": {}, \"recovery_ms_mean\": {}, ",
            "\"deadline_misses\": {}, \"can_frames_lost\": {}, ",
            "\"override_engagements\": {}, ",
            "\"computing_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}, ",
            "\"p999\": {:.3}, \"max\": {:.3}}}}}"
        ),
        json_escape(r.scenario),
        json_escape(&r.fault),
        rep.outcome,
        rep.distance_m,
        rep.distance_m / nominal_distance.max(1e-9),
        if rep.min_obstacle_gap_m.is_finite() {
            rep.min_obstacle_gap_m
        } else {
            -1.0
        },
        rep.mode_ticks[0],
        rep.mode_ticks[1],
        rep.mode_ticks[2],
        rep.mode_ticks[3],
        rep.mode_transitions,
        recovery,
        rep.deadline_misses,
        rep.can_frames_lost,
        rep.override_engagements,
        p50,
        p99,
        p999,
        max,
    )
}

fn main() {
    sov_bench::banner(
        "Fault matrix",
        "Sensor/compute faults × scenarios, vs nominal",
    );
    let seed = sov_bench::seed_from_args();
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());

    let scenarios: Vec<(&'static str, Scenario)> = vec![
        ("fishers-indiana", Scenario::fishers_indiana(seed)),
        ("shenzhen-two-lane", Scenario::shenzhen_two_lane(seed)),
    ];
    let window = (
        SimTime::from_millis(FAULT_START_S * 1000),
        SimTime::from_millis(FAULT_END_S * 1000),
    );

    let mut runs: Vec<Run> = Vec::new();
    let mut nominal_distance: Vec<f64> = Vec::new();
    let mut safety_violations: Vec<String> = Vec::new();

    for (name, scenario) in &scenarios {
        sov_bench::section(name);
        println!(
            "{:<16} | {:>9} | {:>8} | {:>7} | {:>5} {:>5} {:>5} {:>5} | {:>9} | {:>7} {:>7} | {:>6}",
            "fault",
            "outcome",
            "dist (m)",
            "vs nom",
            "nom",
            "dloc",
            "react",
            "stop",
            "recov(ms)",
            "p99.9ms",
            "max ms",
            "misc"
        );
        println!(
            "{:-<16}-+-{:->9}-+-{:->8}-+-{:->7}-+-{:-<23}-+-{:->9}-+-{:-<15}-+-{:->6}",
            "", "", "", "", "", "", "", ""
        );
        let baseline = drive(scenario, seed, &FaultPlan::nominal());
        let base_dist = baseline.distance_m;
        nominal_distance.push(base_dist);
        let print_row = |fault: &str, rep: &DriveReport, misc: String| {
            let recovery = if !rep.recovery_ms.is_empty() {
                format!("{:.0}", rep.recovery_ms.mean())
            } else {
                "—".to_string()
            };
            let (_, _, p999, max) = tail(rep);
            println!(
                "{:<16} | {:>9} | {:>8.0} | {:>6.0}% | {:>5} {:>5} {:>5} {:>5} | {:>9} | {:>7.0} {:>7.0} | {:>6}",
                fault,
                format!("{:?}", rep.outcome),
                rep.distance_m,
                100.0 * rep.distance_m / base_dist.max(1e-9),
                rep.mode_ticks[0],
                rep.mode_ticks[1],
                rep.mode_ticks[2],
                rep.mode_ticks[3],
                recovery,
                p999,
                max,
                misc,
            );
        };
        print_row("nominal", &baseline, String::new());
        runs.push(Run {
            scenario: name,
            fault: "nominal".into(),
            report: baseline,
        });

        for kind in FaultKind::ALL {
            let plan = FaultPlan::new(seed).with(kind, window.0, window.1);
            let rep = drive(scenario, seed, &plan);
            let misc = match kind {
                FaultKind::CanFrameLoss => format!("{} lost", rep.can_frames_lost),
                FaultKind::StageOverrun | FaultKind::RprDelaySpike => {
                    format!("{} miss", rep.deadline_misses)
                }
                _ => String::new(),
            };
            if rep.outcome == DriveOutcome::Collision {
                safety_violations.push(format!("{kind} on {name}"));
            }
            print_row(&kind.to_string(), &rep, misc);
            runs.push(Run {
                scenario: name,
                fault: kind.to_string(),
                report: rep,
            });
        }
    }

    // The two acceptance demonstrations of the degradation design.
    sov_bench::section("acceptance");
    let gps = runs
        .iter()
        .find(|r| r.scenario == "fishers-indiana" && r.fault == "gps-outage")
        .expect("swept above");
    let dloc = gps.report.mode_ticks[DegradationMode::DegradedLocalization as usize];
    println!(
        "gps-outage      → {} DegradedLocalization ticks, outcome {:?}: {}",
        dloc,
        gps.report.outcome,
        if dloc > 0 && gps.report.outcome != DriveOutcome::Collision {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let cam = runs
        .iter()
        .find(|r| r.scenario == "fishers-indiana" && r.fault == "camera-stall")
        .expect("swept above");
    let react = cam.report.mode_ticks[DegradationMode::ReactiveOnly as usize];
    println!(
        "camera-stall    → {} ReactiveOnly ticks, outcome {:?}: {}",
        react,
        cam.report.outcome,
        if react > 0 && cam.report.outcome != DriveOutcome::Collision {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let acceptance_ok = dloc > 0
        && react > 0
        && gps.report.outcome != DriveOutcome::Collision
        && cam.report.outcome != DriveOutcome::Collision;

    if let Some(path) = json_path {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"seed\": {seed},\n  \"frames\": {FRAMES},\n"));
        out.push_str(&format!(
            "  \"fault_window_s\": [{FAULT_START_S}, {FAULT_END_S}],\n  \"runs\": [\n"
        ));
        let rows: Vec<String> = runs
            .iter()
            .map(|r| {
                let idx = scenarios
                    .iter()
                    .position(|(n, _)| *n == r.scenario)
                    .expect("known");
                run_json(r, nominal_distance[idx])
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        std::fs::write(&path, out).expect("write JSON report");
        println!("\nwrote {path}");
    }

    if !safety_violations.is_empty() {
        println!("\nSAFETY VIOLATIONS: {}", safety_violations.join(", "));
        std::process::exit(1);
    }
    if !acceptance_ok {
        std::process::exit(1);
    }
    println!("\nno fault produced a collision: failures cost availability, never safety.");
}
