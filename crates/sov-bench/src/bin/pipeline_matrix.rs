//! Inter-frame software-pipelining ablation (DESIGN.md §9).
//!
//! Three views of the same trade, all checksum-gated:
//!
//! 1. **Replay cells** — the committed frame-latency model of the pod
//!    (`LatencyPipeline`) is replayed through [`FramePipeline`] with each
//!    stage sleeping its (scaled) modeled duration. Sleeping stands in for
//!    the sensor/DMA/accelerator waits that dominate the real stages, so
//!    the overlap is visible on any host — including single-core CI — and
//!    the measured throughput tracks the analytic model below.
//! 2. **Analytic model** — `FrameLatency::pipelined_throughput_fps` /
//!    `pipeline_speedup` averaged over the same replayed frames: the
//!    initiation-interval bound the replay cells should approach.
//! 3. **Drive cells** — real [`Sov::drive_with_plan`] runs at several
//!    pipeline depths × worker counts. The `fe` column reads
//!    [`PerfContext::stage_placement`]: workers ≥ 4 put the visual
//!    front-end node on its own lane, 3 workers keep it inline on the
//!    sequencer. These prove the headline invariant end to end (the
//!    [`DriveReport`]s must be **byte-identical** to serial) and report
//!    wall-clock as-is; on a host with fewer cores than lanes the overlap
//!    cannot pay, which the JSON records as a caveat instead of hiding.
//!
//! Pipelining trades per-frame latency *up* for throughput, so every cell
//! reports p50 **and** p99 (COLA's tail-latency caveat), never throughput
//! alone. Every concurrent cell additionally reports per-stage
//! **occupancy** (compute ÷ wall for sensing, perception, and planning,
//! summed over the stage samples of the ledger or the replay run) so an
//! idle stage is visible instead of averaged away — and, via the latency
//! ledger, the **attribution split** into compute, ring-queue wait, and
//! sequencer stall, each at p50/p99/p99.9/max: per control frame for
//! drives, per frame summed over its three stage samples for replays.
//!
//! A fourth view, the **tail cells**, runs the depth-3 drive under a
//! sustained compute overrun with the deadline-driven tail policy off,
//! with priority draining, and with draining + shedding. The gate: the
//! drained drive's p99.9 end-to-end latency must beat the undrained
//! drive's *without changing the report* (draining is pure reordering);
//! the improvement half is a warning, not a failure, when `host_cores`
//! < 3 — a sequential host cannot overlap the lanes it doesn't have.
//!
//! Flags: `--json PATH` writes the matrix (the committed baseline is
//! `BENCH_pipeline.json`); `--smoke` shrinks the run for CI; `--frames N`
//! overrides the replay frame count; `--seed N` reseeds the workload.

use sov_bench::{digest_report, mix, quad, quad_json};
use sov_core::config::VehicleConfig;
use sov_core::pipeline::{FrameLatency, LatencyPipeline};
use sov_core::sov::{DriveReport, Sov};
use sov_core::tail::TailReport;
use sov_fault::{FaultKind, FaultPlan};
use sov_math::stats::Summary;
use sov_runtime::ledger::{TailPolicy, SENSING};
use sov_runtime::pipeline::{FramePipeline, PipelineRun, Placement};
use sov_runtime::pool::WorkerPool;
use sov_runtime::PerfContext;
use sov_sim::time::SimTime;
use sov_world::scenario::Scenario;
use std::time::{Duration, Instant};

/// Modeled stage durations are divided by this before sleeping, keeping a
/// full matrix under ~10 s of wall clock without changing the ratios that
/// determine speedup.
const TIME_SCALE: f64 = 20.0;

/// Deterministic scene-complexity schedule for the replayed frames (a
/// slow ramp with a busy burst, independent of any scenario geometry).
fn complexity_at(k: u64) -> f64 {
    let phase = (k % 40) as f64 / 40.0;
    if phase < 0.75 {
        phase
    } else {
        0.9
    }
}

/// Replays the pod latency model and returns per-frame stage durations in
/// milliseconds, already divided by [`TIME_SCALE`].
fn replay_stages(seed: u64, frames: u64) -> (Vec<[f64; 3]>, Vec<FrameLatency>) {
    let config = VehicleConfig::perceptin_pod();
    let mut gen = LatencyPipeline::new(&config, seed);
    let mut stages = Vec::with_capacity(frames as usize);
    let mut frames_out = Vec::with_capacity(frames as usize);
    for k in 0..frames {
        let frame = gen.next_frame(complexity_at(k));
        let [s, p, l] = frame.stages();
        stages.push([
            s.as_millis_f64() / TIME_SCALE,
            p.as_millis_f64() / TIME_SCALE,
            l.as_millis_f64() / TIME_SCALE,
        ]);
        frames_out.push(frame);
    }
    (stages, frames_out)
}

fn sleep_ms(ms: f64) {
    std::thread::sleep(Duration::from_secs_f64(ms / 1e3));
}

/// One replay cell: the modeled frames pushed through [`FramePipeline`]
/// at a given depth and lane count. Returns the run telemetry and the
/// committed checksum (folded across frames in commit order, so any
/// reordering or dropped frame changes it).
fn run_replay_cell(stages: &[[f64; 3]], depth: usize, workers: usize) -> (PipelineRun, u64) {
    let pool = (workers > 0).then(|| WorkerPool::new(workers));
    let pipeline = FramePipeline::new(depth);
    let mut checksum = 0u64;
    let mut prev: Option<u64> = None;
    let run = pipeline.run(
        pool.as_ref(),
        stages.len() as u64,
        |k| {
            sleep_ms(stages[k as usize][0]);
            mix(0x5E45, k)
        },
        |k, s| {
            sleep_ms(stages[k as usize][1]);
            mix(s, k ^ 0x5045_5243)
        },
        |k, p| {
            sleep_ms(stages[k as usize][2]);
            let o = mix(p ^ prev.unwrap_or(0x504C414E), k);
            prev = Some(o);
            checksum = mix(checksum, o);
        },
    );
    (run, checksum)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The compute/queue/stall split of a replay run, each frame's three
/// stage samples summed, in milliseconds at the four tail points.
fn replay_split(run: &PipelineRun) -> [[f64; 4]; 3] {
    let mut per_frame = vec![[0u64; 3]; run.frames as usize];
    for s in &run.samples {
        let sums = &mut per_frame[s.frame as usize];
        for (sum, ns) in sums.iter_mut().zip([s.compute_ns, s.queue_ns, s.stall_ns]) {
            *sum += ns;
        }
    }
    let mut split = [Summary::new(), Summary::new(), Summary::new()];
    for sums in &per_frame {
        for (summary, ns) in split.iter_mut().zip(sums) {
            summary.record(*ns as f64 / 1e6);
        }
    }
    split.each_mut().map(quad)
}

/// The same four-point split lifted out of a drive's [`TailReport`],
/// plus the per-stage p99.9 compute row.
struct DriveTail {
    total: [f64; 4],
    compute: [f64; 4],
    queue: [f64; 4],
    stall: [f64; 4],
    stage_p999_compute: [f64; 3],
    stage_p999_queue: [f64; 3],
    stage_p999_stall: [f64; 3],
    max_residual_ns: u64,
    priority_drains: u64,
    sheds: u64,
    overruns_predicted: u64,
}

impl DriveTail {
    fn of(tail: &TailReport) -> Self {
        let mut t = tail.clone();
        let stage = |s: &mut [Summary; 3]| [s[0].p999(), s[1].p999(), s[2].p999()];
        Self {
            total: quad(&mut t.total_ms),
            compute: quad(&mut t.compute_ms),
            queue: quad(&mut t.queue_ms),
            stall: quad(&mut t.stall_ms),
            stage_p999_compute: stage(&mut t.stage_compute_ms),
            stage_p999_queue: stage(&mut t.stage_queue_ms),
            stage_p999_stall: stage(&mut t.stage_stall_ms),
            max_residual_ns: t.max_residual_ns,
            priority_drains: t.priority_drains,
            sheds: t.sheds,
            overruns_predicted: t.overruns_predicted,
        }
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"total_ms\": {}, \"compute_ms\": {}, \"queue_ms\": {}, ",
                "\"stall_ms\": {}, ",
                "\"stage_p999_compute_ms\": [{:.3}, {:.3}, {:.3}], ",
                "\"stage_p999_queue_ms\": [{:.3}, {:.3}, {:.3}], ",
                "\"stage_p999_stall_ms\": [{:.3}, {:.3}, {:.3}], ",
                "\"max_residual_ns\": {}, \"priority_drains\": {}, ",
                "\"sheds\": {}, \"overruns_predicted\": {}}}"
            ),
            quad_json(self.total),
            quad_json(self.compute),
            quad_json(self.queue),
            quad_json(self.stall),
            self.stage_p999_compute[0],
            self.stage_p999_compute[1],
            self.stage_p999_compute[2],
            self.stage_p999_queue[0],
            self.stage_p999_queue[1],
            self.stage_p999_queue[2],
            self.stage_p999_stall[0],
            self.stage_p999_stall[1],
            self.stage_p999_stall[2],
            self.max_residual_ns,
            self.priority_drains,
            self.sheds,
            self.overruns_predicted,
        )
    }
}

fn main() {
    sov_bench::banner(
        "Pipeline matrix",
        "Inter-frame pipelining: depth × workers, throughput vs latency",
    );
    let args: Vec<String> = std::env::args().collect();
    let seed = sov_bench::seed_from_args();
    let smoke = args.iter().any(|a| a == "--smoke");
    let frames: u64 = args
        .iter()
        .position(|a| a == "--frames")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 30 } else { 120 });
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());
    let host_cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);

    let (stages, model_frames) = replay_stages(seed, frames);
    println!(
        "replaying {frames} modeled frames at 1/{TIME_SCALE:.0} time scale on {host_cores} core(s)",
    );

    // --- replay cells -----------------------------------------------------
    sov_bench::section("replay cells: measured throughput, latency, occupancy");
    println!(
        "{:<14} | {:>9} | {:>8} | {:>8} | {:>8} | {:>17} | {:>20}",
        "cell", "fps", "p50 ms", "p99 ms", "speedup", "occ sen/per/plan", "p99.9 cmp/que/stl ms"
    );
    struct ReplayRow {
        depth: usize,
        workers: usize,
        fps: f64,
        p50_ms: f64,
        p99_ms: f64,
        speedup: f64,
        occupancy: [f64; 3],
        /// Compute/queue/stall attribution, each `[p50, p99, p999, max]`.
        split: [[f64; 4]; 3],
        checksum: u64,
    }
    let mut replay_rows: Vec<ReplayRow> = Vec::new();
    let mut determinism_ok = true;
    let mut baseline_fps = 0.0f64;
    let mut baseline_checksum = 0u64;
    for depth in [1usize, 2, 3, 4] {
        for workers in [0usize, 3, 8] {
            let (run, checksum) = run_replay_cell(&stages, depth, workers);
            let fps = run.throughput_fps();
            if depth == 1 && workers == 0 {
                baseline_fps = fps;
                baseline_checksum = checksum;
            }
            if checksum != baseline_checksum {
                determinism_ok = false;
            }
            let row = ReplayRow {
                depth,
                workers,
                fps,
                p50_ms: ms(run.latency_percentile(0.5)),
                p99_ms: ms(run.latency_percentile(0.99)),
                speedup: fps / baseline_fps,
                occupancy: [run.occupancy(0), run.occupancy(1), run.occupancy(2)],
                split: replay_split(&run),
                checksum,
            };
            println!(
                "d{} w{:<10} | {:>9.1} | {:>8.3} | {:>8.3} | {:>7.2}× | {:>4.2}/{:>4.2}/{:>4.2} | {:>6.2}/{:>5.2}/{:>5.2}{}",
                row.depth,
                row.workers,
                row.fps,
                row.p50_ms,
                row.p99_ms,
                row.speedup,
                row.occupancy[0],
                row.occupancy[1],
                row.occupancy[2],
                row.split[0][2],
                row.split[1][2],
                row.split[2][2],
                if checksum == baseline_checksum {
                    ""
                } else {
                    "  CHECKSUM MISMATCH"
                },
            );
            replay_rows.push(row);
        }
    }

    // --- analytic model ---------------------------------------------------
    sov_bench::section("analytic model: initiation-interval bound");
    let mut model_rows: Vec<(usize, f64, f64, [f64; 3])> = Vec::new();
    for depth in [1usize, 2, 3, 4] {
        let n = model_frames.len() as f64;
        let fps: f64 = model_frames
            .iter()
            .map(|f| f.pipelined_throughput_fps(depth))
            .sum::<f64>()
            / n;
        let speedup: f64 = model_frames
            .iter()
            .map(|f| f.pipeline_speedup(depth))
            .sum::<f64>()
            / n;
        let mut occ = [0.0f64; 3];
        for f in &model_frames {
            let o = f.lane_occupancy(depth);
            for (acc, v) in occ.iter_mut().zip(o) {
                *acc += v / n;
            }
        }
        println!(
            "depth {depth}: mean {fps:>6.1} fps (unscaled), mean speedup {speedup:.2}×, \
             lane occupancy {:.2}/{:.2}/{:.2}",
            occ[0], occ[1], occ[2]
        );
        model_rows.push((depth, fps, speedup, occ));
    }

    // --- drive cells ------------------------------------------------------
    sov_bench::section("drive cells: real Sov drives, byte-identical gate");
    let drive_frames: u64 = if smoke { 60 } else { 200 };
    let scenario = Scenario::fishers_indiana(seed);
    let plan = FaultPlan::nominal();
    struct DriveRow {
        depth: usize,
        workers: usize,
        frontend_lane: bool,
        wall_ms: f64,
        fps: f64,
        occupancy: Option<[f64; 3]>,
        tail: DriveTail,
        digest: u64,
        matches_serial: bool,
    }
    let mut drive_rows: Vec<DriveRow> = Vec::new();
    let mut serial_report: Option<DriveReport> = None;
    // Workers ≥ 4 put the visual front-end node on its own lane; exactly
    // 3 keep it inline on the sequencer (detector + planner lanes only).
    for (depth, workers) in [
        (1usize, 0usize),
        (2, 3),
        (2, 4),
        (3, 3),
        (3, 4),
        (4, 3),
        (4, 4),
    ] {
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), seed);
        if workers > 0 {
            sov.set_perf(PerfContext::with_pipeline_workers(depth, workers));
        }
        let frontend_lane = sov.perf().stage_placement()[SENSING] == Placement::Lane;
        let t0 = Instant::now();
        let report = sov
            .drive_with_plan(&scenario, drive_frames, &plan)
            .expect("drive completes");
        let wall = t0.elapsed();
        let occupancy = (sov.perf().effective_pipeline_depth() > 1).then(|| {
            let compute = &report.tail.stage_compute_ms;
            compute
                .each_ref()
                .map(|s| s.samples().iter().sum::<f64>() / ms(wall))
        });
        let matches_serial = serial_report.as_ref().is_none_or(|s| *s == report);
        if !matches_serial {
            determinism_ok = false;
        }
        let occ_str = occupancy.map_or_else(
            || "   -/-/-".to_string(),
            |o| format!("{:.2}/{:.2}/{:.2}", o[0], o[1], o[2]),
        );
        println!(
            "d{depth} w{workers} fe={}: {:>8.1} ms wall, {:>6.1} fps, occ {occ_str}, digest {:016x}{}",
            if frontend_lane { "lane" } else { "seq " },
            ms(wall),
            drive_frames as f64 / wall.as_secs_f64(),
            digest_report(&report),
            if matches_serial {
                ""
            } else {
                "  REPORT DIVERGED FROM SERIAL"
            },
        );
        drive_rows.push(DriveRow {
            depth,
            workers,
            frontend_lane,
            wall_ms: ms(wall),
            fps: drive_frames as f64 / wall.as_secs_f64(),
            occupancy,
            tail: DriveTail::of(&report.tail),
            digest: digest_report(&report),
            matches_serial,
        });
        if serial_report.is_none() {
            serial_report = Some(report);
        }
    }

    // --- tail cells -------------------------------------------------------
    sov_bench::section("tail cells: deadline-driven draining under compute overruns");
    let tsecs = |s: u64| SimTime::from_millis(s * 1000);
    // Per-frame RPR delay spikes (uniform in [0, 280) ms) lift the
    // predictor's `ewma + 2·dev` past the 300 ms Eq. 1 deadline while the
    // *individual* misses stay mostly non-consecutive — so the vehicle
    // stays Nominal and piped, which is exactly the regime where priority
    // draining has in-flight commits to reorder. (A sustained overrun
    // would trip the 3-consecutive-miss watchdog into ReactiveOnly, whose
    // planning is already synchronous.) The shed cell instead uses a
    // steady +350 ms overrun to cross the 1.5× escalation threshold.
    let drain_plan = FaultPlan::new(seed ^ 0x7A11).with_intensity(
        FaultKind::RprDelaySpike,
        tsecs(2),
        tsecs(14),
        280.0,
    );
    let shed_plan = FaultPlan::new(seed ^ 0x7A11).with_intensity(
        FaultKind::StageOverrun,
        tsecs(2),
        tsecs(14),
        350.0,
    );
    let run_tail = |depth: usize, workers: usize, policy: TailPolicy, plan: &FaultPlan| {
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), seed);
        let mut perf = PerfContext::serial().with_tail_policy(policy);
        if workers > 0 {
            perf = PerfContext::with_pipeline_workers(depth, workers).with_tail_policy(policy);
        }
        sov.set_perf(perf);
        sov.drive_with_plan(&scenario, drive_frames, plan)
            .expect("drive completes")
    };
    struct TailRow {
        label: &'static str,
        tail: DriveTail,
        frames_shed: u64,
        digest: u64,
        matches_baseline: bool,
    }
    let base = run_tail(3, 3, TailPolicy::default(), &drain_plan);
    let drained = run_tail(3, 3, TailPolicy::draining(), &drain_plan);
    // Shedding changes the output, so its baseline is the *serial* drive
    // running the same policy — bit-identity of the policy itself.
    let shed_serial = run_tail(0, 0, TailPolicy::draining_and_shedding(), &shed_plan);
    let shed = run_tail(3, 3, TailPolicy::draining_and_shedding(), &shed_plan);
    let drain_identical = drained == base;
    let shed_identical = shed == shed_serial;
    if !drain_identical || !shed_identical {
        determinism_ok = false;
    }
    let tail_rows = [
        TailRow {
            label: "d3 w3 policy=off",
            tail: DriveTail::of(&base.tail),
            frames_shed: base.frames_shed,
            digest: digest_report(&base),
            matches_baseline: true,
        },
        TailRow {
            label: "d3 w3 drain",
            tail: DriveTail::of(&drained.tail),
            frames_shed: drained.frames_shed,
            digest: digest_report(&drained),
            matches_baseline: drain_identical,
        },
        TailRow {
            label: "d3 w3 drain+shed",
            tail: DriveTail::of(&shed.tail),
            frames_shed: shed.frames_shed,
            digest: digest_report(&shed),
            matches_baseline: shed_identical,
        },
    ];
    println!(
        "{:<17} | {:>9} | {:>9} | {:>9} | {:>6} | {:>6} | {:>5}",
        "cell", "p50 ms", "p99.9 ms", "max ms", "drains", "sheds", "ident"
    );
    for row in &tail_rows {
        println!(
            "{:<17} | {:>9.3} | {:>9.3} | {:>9.3} | {:>6} | {:>6} | {:>5}{}",
            row.label,
            row.tail.total[0],
            row.tail.total[2],
            row.tail.total[3],
            row.tail.priority_drains,
            row.frames_shed,
            row.matches_baseline,
            if row.matches_baseline {
                ""
            } else {
                "  REPORT DIVERGED"
            },
        );
    }
    let p999_off = tail_rows[0].tail.total[2];
    let p999_drain = tail_rows[1].tail.total[2];
    let tail_improved = p999_drain < p999_off;

    // --- acceptance -------------------------------------------------------
    let depth3 = replay_rows
        .iter()
        .find(|r| r.depth == 3 && r.workers == 3)
        .expect("cell swept above");
    let fe_cell = drive_rows
        .iter()
        .find(|r| r.depth == 3 && r.workers == 4)
        .expect("cell swept above");
    let fe_occupied = fe_cell
        .occupancy
        .is_some_and(|o| o.iter().all(|&v| v > 0.0));
    sov_bench::section("acceptance");
    println!(
        "replay checksums and drive reports identical across all cells: {}",
        if determinism_ok { "PASS" } else { "FAIL" },
    );
    println!(
        "replay throughput, depth 3 / 3 lanes vs serial: {} (target ≥1.5×): {}",
        sov_bench::times(depth3.speedup),
        if depth3.speedup >= 1.5 {
            "PASS"
        } else {
            "FAIL"
        },
    );
    println!(
        "drive cell d3 w4: sensing, perception, planning lanes all busy: {}",
        if fe_occupied { "PASS" } else { "FAIL" },
    );
    println!(
        "tail cells: drained/shed reports identical to their baselines: {}",
        if drain_identical && shed_identical {
            "PASS"
        } else {
            "FAIL"
        },
    );
    if host_cores >= 3 {
        println!(
            "tail gate: d3 w3 p99.9 drive latency, drain {p999_drain:.3} ms < off {p999_off:.3} ms: {}",
            if tail_improved { "PASS" } else { "FAIL" },
        );
    } else {
        // One visible line, not a failure: a host without three cores
        // cannot overlap the lanes, so the drain reordering has nothing
        // to win back. The determinism half above still gates.
        println!(
            "warning: host_cores = {host_cores} < 3 — tail gate informational only \
             (drain {p999_drain:.3} ms vs off {p999_off:.3} ms)"
        );
    }

    if let Some(path) = json_path {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"seed\": {seed},\n  \"replay_frames\": {frames},\n  \"drive_frames\": {drive_frames},\n  \"time_scale\": {TIME_SCALE},\n  \"host_cores\": {host_cores},\n"
        ));
        out.push_str(concat!(
            "  \"caveats\": [\n",
            "    \"replay cells sleep the modeled stage durations, so overlap is visible even when host_cores < lanes\",\n",
            "    \"drive cells are compute-bound; wall-clock speedup requires host_cores >= 3 and is reported as measured\",\n",
            "    \"pipelining raises per-frame latency while raising throughput — compare p99, not only p50\"\n",
            "  ],\n"
        ));
        out.push_str(&format!(
            "  \"replay_speedup_depth3_3lanes\": {:.4},\n",
            depth3.speedup
        ));
        out.push_str("  \"replay_cells\": [\n");
        let rows: Vec<String> = replay_rows
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\"depth\": {}, \"workers\": {}, \"throughput_fps\": {:.2}, ",
                        "\"latency_p50_ms\": {:.3}, \"latency_p99_ms\": {:.3}, ",
                        "\"speedup_vs_serial\": {:.4}, ",
                        "\"occupancy\": [{:.4}, {:.4}, {:.4}], ",
                        "\"compute_ms\": {}, \"queue_ms\": {}, \"stall_ms\": {}, ",
                        "\"checksum\": \"{:016x}\"}}"
                    ),
                    r.depth,
                    r.workers,
                    r.fps,
                    r.p50_ms,
                    r.p99_ms,
                    r.speedup,
                    r.occupancy[0],
                    r.occupancy[1],
                    r.occupancy[2],
                    quad_json(r.split[0]),
                    quad_json(r.split[1]),
                    quad_json(r.split[2]),
                    r.checksum,
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"model\": [\n");
        let rows: Vec<String> = model_rows
            .iter()
            .map(|(d, fps, s, occ)| {
                format!(
                    concat!(
                        "    {{\"depth\": {}, \"mean_throughput_fps\": {:.2}, ",
                        "\"mean_speedup\": {:.4}, ",
                        "\"mean_lane_occupancy\": [{:.4}, {:.4}, {:.4}]}}"
                    ),
                    d, fps, s, occ[0], occ[1], occ[2],
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"drive_cells\": [\n");
        let rows: Vec<String> = drive_rows
            .iter()
            .map(|r| {
                let occ = r.occupancy.map_or_else(
                    || "null".to_string(),
                    |o| format!("[{:.4}, {:.4}, {:.4}]", o[0], o[1], o[2]),
                );
                format!(
                    concat!(
                        "    {{\"depth\": {}, \"workers\": {}, \"frontend_lane\": {}, ",
                        "\"wall_ms\": {:.1}, \"fps\": {:.2}, \"occupancy\": {}, ",
                        "\"tail\": {}, ",
                        "\"report_digest\": \"{:016x}\", \"matches_serial\": {}}}"
                    ),
                    r.depth,
                    r.workers,
                    r.frontend_lane,
                    r.wall_ms,
                    r.fps,
                    occ,
                    r.tail.json(),
                    r.digest,
                    r.matches_serial,
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"tail_cells\": [\n");
        let rows: Vec<String> = tail_rows
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\"cell\": \"{}\", \"tail\": {}, \"frames_shed\": {}, ",
                        "\"report_digest\": \"{:016x}\", \"matches_baseline\": {}}}"
                    ),
                    r.label,
                    r.tail.json(),
                    r.frames_shed,
                    r.digest,
                    r.matches_baseline,
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str(&format!(
            concat!(
                "\n  ],\n  \"tail_gate\": {{\"depth\": 3, \"workers\": 3, ",
                "\"rpr_spike_ms\": 280.0, \"p999_total_ms_off\": {:.3}, ",
                "\"p999_total_ms_drain\": {:.3}, \"drain_improves_p999\": {}, ",
                "\"reports_identical\": {}, \"enforced\": {}}}\n}}\n"
            ),
            p999_off,
            p999_drain,
            tail_improved,
            drain_identical && shed_identical,
            host_cores >= 3,
        ));
        std::fs::write(&path, out).expect("write JSON report");
        println!("\nwrote {path}");
    }

    if !determinism_ok {
        eprintln!("determinism violation: pipelined outputs diverged from serial");
        std::process::exit(1);
    }
    if depth3.speedup < 1.5 {
        eprintln!("throughput regression: depth-3 replay speedup below 1.5×");
        std::process::exit(1);
    }
    if !fe_occupied {
        eprintln!("occupancy gate: d3 w4 drive must keep all three lanes busy");
        std::process::exit(1);
    }
    if host_cores >= 3 && !tail_improved {
        eprintln!("tail gate: priority draining must improve d3 w3 p99.9 drive latency");
        std::process::exit(1);
    }
}
