//! Fleet-scale serving throughput matrix (DESIGN.md §14–§15).
//!
//! Drives the sharded `sov-fleet` workload — seeded Poisson demand over
//! the street grid, deterministic nearest-available dispatch, per-vehicle
//! battery/charging state — across fleet size × dispatch mode × worker
//! lanes and reports serving throughput with the tail of the rider
//! experience:
//!
//! * **rides/sec** (wall-clock), the real-time factor, and a per-phase
//!   wall-time quad (arrivals / dispatch / advance / merge) per cell;
//! * **dispatch work counters**: distance evaluations, route-cache
//!   hits/misses, commit-conflict fallback searches, stall requeues —
//!   deterministic (worker-invariant), so they are gateable;
//! * **wait and travel time** at p50/p99/p99.9/max via `Summary`;
//! * **fleet economics**: utilization, charging fraction, energy and
//!   pro-rated TCO per ride, and the Eq. 2 driving time lost to the
//!   autonomy load.
//!
//! Three deterministic gates (all fatal):
//!
//! 1. **Byte-identity** — every cell's [`FleetReport`] must equal the
//!    first cell's (the linear-scan serial reference when both modes are
//!    swept), compared before any percentile query (percentiles sort in
//!    place, which `PartialEq` would see). This is the DESIGN.md §8
//!    argument applied to the fleet tick across dispatch modes, worker
//!    counts, and the spatial index.
//! 2. **Work-counter invariance** — within a (fleet, mode) group the
//!    [`DispatchStats`] must be identical for every worker count.
//! 3. **Evaluation reduction** — on the largest fleet the indexed
//!    dispatcher must perform ≤ ½ the distance evaluations of the linear
//!    scan (the ISSUE's ≥ 2× floor), counted deterministically.
//!
//! Wall-clock fields (`wall_s`, `rides_per_sec`, `realtime_factor`,
//! `phase_s`) are measured as-is and vary run to run; every simulated
//! field is deterministic and checksum-witnessed. The throughput gate —
//! the widest-swept indexed cell must beat the serial indexed cell on the
//! largest fleet — is enforced only when `host_cores >= 3`; a sequential
//! host cannot overlap the lanes it does not have, so there it prints a
//! warning instead.
//!
//! Every fleet row prints its report checksum. `--json PATH` writes the
//! matrix (the committed baseline is `BENCH_fleet.json`) together with
//! `smoke_checksum`, the checksum of the `--smoke` fleet (400 vehicles ×
//! 600 ticks) at the same seed, which `scripts/check.sh` requires its
//! smoke runs to print. `--smoke` shrinks the sweep for CI; `--seed N`
//! reseeds the demand stream; `--dispatch linear|indexed|both` picks the
//! mode axis (default `both`: one linear serial reference cell plus the
//! indexed worker sweep).

use sov_bench::{quad, quad_json};
use sov_fleet::sim::{DispatchMode, DispatchStats, FleetConfig, FleetReport, FleetSim};
use sov_runtime::pool::WorkerPool;
use std::time::Instant;

/// Full sweep: `(fleet size, ticks)`. The largest cell serves ≥ 100k ride
/// requests (4000 vehicles × 6000 s at the calibrated demand rate) — the
/// scale claim the committed baseline witnesses.
const FULL_FLEETS: [(u32, u64); 3] = [(100, 4000), (1000, 4000), (4000, 6000)];
const FULL_WORKERS: [usize; 4] = [0, 2, 4, 8];

/// CI smoke sweep: one small fleet, serial vs one pool.
const SMOKE_FLEETS: [(u32, u64); 1] = [(400, 600)];
const SMOKE_WORKERS: [usize; 2] = [0, 2];

fn mode_name(mode: DispatchMode) -> &'static str {
    match mode {
        DispatchMode::Linear => "linear",
        DispatchMode::Indexed => "indexed",
    }
}

/// One timed run of the matrix. `workers == 0` is the serial reference.
struct Cell {
    mode: DispatchMode,
    workers: usize,
    wall_s: f64,
    /// Wall time per tick phase: `[arrivals, dispatch, advance, merge]`.
    phase_s: [f64; 4],
    rides_per_sec: f64,
    realtime_factor: f64,
    stats: DispatchStats,
    matches_reference: bool,
}

/// The deterministic per-fleet facts, read off the reference report
/// (identical in every cell by the byte-identity gate).
struct FleetRow {
    fleet: u32,
    ticks: u64,
    report: FleetReport,
    /// Wait/travel `[p50, p99, p99.9, max]` in seconds, taken from
    /// clones so the gated report keeps its pre-sort state.
    wait: [f64; 4],
    travel: [f64; 4],
    cells: Vec<Cell>,
}

impl FleetRow {
    /// Serial distance evaluations for `mode`, if that mode was swept.
    fn evals(&self, mode: DispatchMode) -> Option<u64> {
        self.cells
            .iter()
            .find(|c| c.mode == mode)
            .map(|c| c.stats.distance_evals)
    }
}

fn phase_json(p: [f64; 4]) -> String {
    format!(
        "{{\"arrivals\": {:.3}, \"dispatch\": {:.3}, \"advance\": {:.3}, \"merge\": {:.3}}}",
        p[0], p[1], p[2], p[3]
    )
}

fn run_cell(cfg: &FleetConfig, workers: usize) -> (FleetReport, DispatchStats, f64, [f64; 4]) {
    let pool = (workers > 0).then(|| WorkerPool::new(workers));
    let mut sim = FleetSim::new(cfg.clone());
    let mut phase_s = [0.0f64; 4];
    let t0 = Instant::now();
    for _ in 0..cfg.ticks {
        let t = Instant::now();
        sim.phase_arrivals();
        phase_s[0] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        sim.phase_dispatch(pool.as_ref());
        phase_s[1] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        sim.phase_advance(pool.as_ref());
        phase_s[2] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        sim.phase_merge();
        phase_s[3] += t.elapsed().as_secs_f64();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    (sim.report(), sim.dispatch_stats(), wall_s, phase_s)
}

fn config(seed: u64, fleet: u32, ticks: u64, dispatch: DispatchMode) -> FleetConfig {
    FleetConfig {
        seed,
        ticks,
        dispatch,
        ..FleetConfig::perceptin_fleet(fleet)
    }
}

fn run_fleet(seed: u64, fleet: u32, ticks: u64, sweeps: &[(DispatchMode, Vec<usize>)]) -> FleetRow {
    let mut cells = Vec::new();
    let mut reference: Option<FleetReport> = None;
    for (mode, workers) in sweeps {
        let cfg = config(seed, fleet, ticks, *mode);
        for &w in workers {
            let (report, stats, wall_s, phase_s) = run_cell(&cfg, w);
            // Byte-identity gate: compare before any percentile query.
            let matches_reference = reference.as_ref().is_none_or(|r| *r == report);
            cells.push(Cell {
                mode: *mode,
                workers: w,
                wall_s,
                phase_s,
                rides_per_sec: report.rides_completed as f64 / wall_s,
                realtime_factor: ticks as f64 * cfg.tick_s / wall_s,
                stats,
                matches_reference,
            });
            if reference.is_none() {
                reference = Some(report);
            }
        }
    }
    let report = reference.expect("at least one cell swept");
    let wait = quad(&mut report.wait_s.clone());
    let travel = quad(&mut report.travel_s.clone());
    FleetRow {
        fleet,
        ticks,
        report,
        wait,
        travel,
        cells,
    }
}

/// The throughput gate cell for a fleet: the indexed cell with workers =
/// 4 when swept, otherwise the widest sharded indexed cell.
fn gate_cell(row: &FleetRow) -> Option<&Cell> {
    let indexed = || row.cells.iter().filter(|c| c.mode == DispatchMode::Indexed);
    indexed().find(|c| c.workers == 4).or_else(|| {
        indexed()
            .filter(|c| c.workers > 0)
            .max_by_key(|c| c.workers)
    })
}

fn main() {
    sov_bench::banner(
        "Fleet matrix",
        "Sharded ride serving: fleet × dispatch mode × workers, byte-identical reports",
    );
    let args: Vec<String> = std::env::args().collect();
    let seed = sov_bench::seed_from_args();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());
    let dispatch_arg = args
        .iter()
        .position(|a| a == "--dispatch")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "both".to_string());
    let host_cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);

    let (fleets, workers): (&[(u32, u64)], &[usize]) = if smoke {
        (&SMOKE_FLEETS, &SMOKE_WORKERS)
    } else {
        (&FULL_FLEETS, &FULL_WORKERS)
    };
    // The mode axis. `both` sweeps one linear serial cell (the reference
    // every other cell must match bit for bit) plus the indexed worker
    // sweep; `linear`/`indexed` sweep one mode across all worker counts
    // (the linear sweep is check.sh's index-off determinism run).
    let sweeps: Vec<(DispatchMode, Vec<usize>)> = match dispatch_arg.as_str() {
        "linear" => vec![(DispatchMode::Linear, workers.to_vec())],
        "indexed" => vec![(DispatchMode::Indexed, workers.to_vec())],
        "both" => vec![
            (DispatchMode::Linear, vec![0]),
            (DispatchMode::Indexed, workers.to_vec()),
        ],
        other => {
            eprintln!("unknown --dispatch {other} (expected linear|indexed|both)");
            std::process::exit(2);
        }
    };
    println!(
        "sweeping {} fleet size(s) × dispatch {dispatch_arg} × {} worker count(s) on {host_cores} core(s), seed {seed}",
        fleets.len(),
        workers.len(),
    );

    let rows: Vec<FleetRow> = fleets
        .iter()
        .map(|&(fleet, ticks)| run_fleet(seed, fleet, ticks, &sweeps))
        .collect();

    let mut identical = true;
    let mut stats_invariant = true;
    for row in &rows {
        sov_bench::section(&format!(
            "fleet {} × {} ticks — {} requests, {} rides, util {:.2}, wait p50/p99 {:.0}/{:.0} s, checksum {:016x}",
            row.fleet,
            row.ticks,
            row.report.requests,
            row.report.rides_completed,
            row.report.utilization,
            row.wait[0],
            row.wait[1],
            row.report.checksum,
        ));
        println!(
            "{:>8} | {:>7} | {:>8} | {:>9} | {:>8} | {:>11} | {:>10} | {:>5}",
            "mode", "workers", "wall s", "rides/s", "sim×", "dist evals", "dispatch s", "ident"
        );
        for c in &row.cells {
            if !c.matches_reference {
                identical = false;
            }
            println!(
                "{:>8} | {:>7} | {:>8.2} | {:>9.1} | {:>7.0}× | {:>11} | {:>10.3} | {:>5}{}",
                mode_name(c.mode),
                c.workers,
                c.wall_s,
                c.rides_per_sec,
                c.realtime_factor,
                c.stats.distance_evals,
                c.phase_s[1],
                c.matches_reference,
                if c.matches_reference {
                    ""
                } else {
                    "  REPORT DIVERGED FROM REFERENCE"
                },
            );
        }
        // Work counters must not see the pool: within a mode, every
        // worker count produces identical stats.
        for (mode, _) in &sweeps {
            let group: Vec<&Cell> = row.cells.iter().filter(|c| c.mode == *mode).collect();
            if let Some((first, rest)) = group.split_first() {
                for c in rest {
                    if c.stats != first.stats {
                        stats_invariant = false;
                        println!(
                            "STATS DIVERGED: fleet {} {} workers {} vs {}",
                            row.fleet,
                            mode_name(*mode),
                            c.workers,
                            first.workers,
                        );
                    }
                }
            }
        }
        let s = &row.cells.first().expect("cells never empty").stats;
        println!(
            "dispatch: {} assigned, {} requeued, {} fallback searches, route cache {}/{} hit/miss",
            s.dispatched, s.requeues, s.fallback_searches, s.route_cache_hits, s.route_cache_misses,
        );
        println!(
            "economics: {:.3} kWh/ride, ${:.2}/ride, {:.2} h Eq. 2 driving time lost, charging {:.3}",
            row.report.energy_per_ride_kwh,
            row.report.cost_per_ride_usd,
            row.report.autonomy_time_lost_h,
            row.report.charging_fraction,
        );
    }

    // --- acceptance -------------------------------------------------------
    let widest = rows.last().expect("at least one fleet swept");
    sov_bench::section("acceptance");
    println!(
        "all reports byte-identical to the reference cell: {}",
        if identical { "PASS" } else { "FAIL" },
    );
    println!(
        "dispatch work counters identical across worker counts: {}",
        if stats_invariant { "PASS" } else { "FAIL" },
    );
    // Evaluation-reduction gate: deterministic, so enforced on any host —
    // but only meaningful when both modes were swept.
    let evals = widest
        .evals(DispatchMode::Linear)
        .zip(widest.evals(DispatchMode::Indexed));
    let evals_ok = evals.is_none_or(|(lin, idx)| idx * 2 <= lin);
    if let Some((lin, idx)) = evals {
        println!(
            "dispatch evals on fleet {}: linear {lin} vs indexed {idx} ({:.1}× fewer, need ≥ 2×): {}",
            widest.fleet,
            lin as f64 / idx.max(1) as f64,
            if evals_ok { "PASS" } else { "FAIL" },
        );
    }
    let gate = gate_cell(widest);
    let serial_ix = widest
        .cells
        .iter()
        .find(|c| c.mode == DispatchMode::Indexed && c.workers == 0);
    let gate_ok = match (gate, serial_ix) {
        (Some(g), Some(s)) => g.rides_per_sec > s.rides_per_sec,
        _ => true,
    };
    if let (Some(g), Some(s)) = (gate, serial_ix) {
        if host_cores >= 3 {
            println!(
                "throughput gate: fleet {} indexed workers {} at {:.1} rides/s > serial {:.1}: {}",
                widest.fleet,
                g.workers,
                g.rides_per_sec,
                s.rides_per_sec,
                if gate_ok { "PASS" } else { "FAIL" },
            );
        } else {
            // One visible line, not a failure: without at least three cores
            // the sharded tick cannot overlap its chunks, so the wall-clock
            // half is informational. The deterministic gates above still
            // bind.
            println!(
                "warning: host_cores = {host_cores} < 3 — throughput gate informational only \
                 (workers {} at {:.1} rides/s vs serial {:.1})",
                g.workers, g.rides_per_sec, s.rides_per_sec,
            );
        }
    }

    if let Some(path) = json_path {
        let (smoke_fleet, smoke_ticks) = SMOKE_FLEETS[0];
        let smoke_checksum = FleetSim::new(config(
            seed,
            smoke_fleet,
            smoke_ticks,
            DispatchMode::Indexed,
        ))
        .run(None)
        .checksum;
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"seed\": {seed},\n  \"host_cores\": {host_cores},\n  \"smoke\": {smoke},\n  \"dispatch\": \"{dispatch_arg}\",\n  \"smoke_checksum\": \"{smoke_checksum:016x}\",\n"
        ));
        out.push_str(concat!(
            "  \"caveats\": [\n",
            "    \"wall_s, rides_per_sec, realtime_factor and phase_s are wall-clock and vary run to run\",\n",
            "    \"every simulated field is deterministic: byte-identical across dispatch modes and worker counts, witnessed by the checksum\",\n",
            "    \"dispatch work counters (distance_evals, cache hits/misses, fallbacks, requeues) are deterministic and worker-invariant\",\n",
            "    \"the throughput gate is enforced only when host_cores >= 3\",\n",
            "    \"smoke_checksum is the checksum of the --smoke fleet (400 vehicles x 600 ticks), which check.sh requires each smoke run to print\"\n",
            "  ],\n"
        ));
        out.push_str("  \"fleets\": [\n");
        let fleet_rows: Vec<String> = rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r
                    .cells
                    .iter()
                    .map(|c| {
                        format!(
                            concat!(
                                "      {{\"mode\": \"{}\", \"workers\": {}, \"wall_s\": {:.3}, ",
                                "\"rides_per_sec\": {:.1}, \"realtime_factor\": {:.1}, ",
                                "\"phase_s\": {}, ",
                                "\"distance_evals\": {}, \"dispatched\": {}, \"requeues\": {}, ",
                                "\"fallback_searches\": {}, \"route_cache_hits\": {}, ",
                                "\"route_cache_misses\": {}, ",
                                "\"matches_reference\": {}}}"
                            ),
                            mode_name(c.mode),
                            c.workers,
                            c.wall_s,
                            c.rides_per_sec,
                            c.realtime_factor,
                            phase_json(c.phase_s),
                            c.stats.distance_evals,
                            c.stats.dispatched,
                            c.stats.requeues,
                            c.stats.fallback_searches,
                            c.stats.route_cache_hits,
                            c.stats.route_cache_misses,
                            c.matches_reference,
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        "    {{\"fleet\": {}, \"ticks\": {}, \"requests\": {}, ",
                        "\"rides_completed\": {}, \"rides_in_progress\": {}, ",
                        "\"rides_unserved\": {}, \"peak_queue\": {}, ",
                        "\"wait_s\": {}, \"travel_s\": {}, ",
                        "\"utilization\": {:.4}, \"charging_fraction\": {:.4}, ",
                        "\"distance_km\": {:.1}, \"energy_kwh\": {:.2}, ",
                        "\"energy_per_ride_kwh\": {:.4}, \"cost_per_ride_usd\": {:.3}, ",
                        "\"autonomy_time_lost_h\": {:.3}, \"checksum\": \"{:016x}\",\n",
                        "     \"cells\": [\n{}\n     ]}}"
                    ),
                    r.fleet,
                    r.ticks,
                    r.report.requests,
                    r.report.rides_completed,
                    r.report.rides_in_progress,
                    r.report.rides_unserved,
                    r.report.peak_queue,
                    quad_json(r.wait),
                    quad_json(r.travel),
                    r.report.utilization,
                    r.report.charging_fraction,
                    r.report.distance_km,
                    r.report.energy_kwh,
                    r.report.energy_per_ride_kwh,
                    r.report.cost_per_ride_usd,
                    r.report.autonomy_time_lost_h,
                    r.report.checksum,
                    cells.join(",\n"),
                )
            })
            .collect();
        out.push_str(&fleet_rows.join(",\n"));
        out.push_str("\n  ],\n");
        if let Some((lin, idx)) = evals {
            out.push_str(&format!(
                concat!(
                    "  \"dispatch_evals_gate\": {{\"fleet\": {}, \"linear\": {}, ",
                    "\"indexed\": {}, \"reduction\": {:.2}, \"pass\": {}}},\n"
                ),
                widest.fleet,
                lin,
                idx,
                lin as f64 / idx.max(1) as f64,
                evals_ok,
            ));
        }
        if let (Some(g), Some(s)) = (gate, serial_ix) {
            out.push_str(&format!(
                concat!(
                    "  \"throughput_gate\": {{\"fleet\": {}, \"workers\": {}, ",
                    "\"serial_rides_per_sec\": {:.1}, \"sharded_rides_per_sec\": {:.1}, ",
                    "\"sharded_beats_serial\": {}, \"enforced\": {}}},\n"
                ),
                widest.fleet,
                g.workers,
                s.rides_per_sec,
                g.rides_per_sec,
                gate_ok,
                host_cores >= 3,
            ));
        }
        out.push_str(&format!(
            "  \"stats_worker_invariant\": {stats_invariant},\n  \"reports_identical\": {identical}\n}}\n"
        ));
        std::fs::write(&path, out).expect("write JSON report");
        println!("\nwrote {path}");
    }

    if !identical {
        eprintln!("determinism violation: fleet report diverged from the reference cell");
        std::process::exit(1);
    }
    if !stats_invariant {
        eprintln!("determinism violation: dispatch work counters saw the worker pool");
        std::process::exit(1);
    }
    if !evals_ok {
        eprintln!("perf gate: indexed dispatch must cut distance evaluations at least 2x");
        std::process::exit(1);
    }
    if host_cores >= 3 && !gate_ok {
        eprintln!("throughput gate: sharded fleet tick must beat serial on a multicore host");
        std::process::exit(1);
    }
    println!(
        "\nall {} cells byte-identical to their reference.",
        rows.iter().map(|r| r.cells.len()).sum::<usize>()
    );
}
