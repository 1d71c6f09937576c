//! Inter-frame software-pipelining ablation (DESIGN.md §9).
//!
//! Two views of the same trade, checksum-gated:
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
//!
//! Pipelining trades per-frame latency *up* for throughput, so every cell
//! reports p50 **and** p99 (COLA's tail-latency caveat), never throughput
//! alone. Every cell additionally reports per-stage **occupancy** (compute
//! ÷ wall for sensing, perception, and planning, summed over the replay's
//! stage samples) so an idle stage is visible instead of averaged away —
//! and, via the latency ledger, the **attribution split** of each frame's
//! three stage samples into compute, ring-queue wait, and sequencer stall,
//! each at p50/p99/p99.9/max.
//!
//! Flags: `--json PATH` writes the matrix (the committed baseline is
//! `BENCH_pipeline.json`); `--smoke` shrinks the run for CI; `--frames N`
//! overrides the replay frame count; `--seed N` reseeds the workload.

use sov_bench::{mix, quad, quad_json};
use sov_core::config::VehicleConfig;
use sov_core::pipeline::{FrameLatency, LatencyPipeline};
use sov_math::stats::Summary;
use sov_runtime::pipeline::{FramePipeline, PipelineRun};
use sov_runtime::pool::WorkerPool;
use std::time::Duration;

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

    // --- acceptance -------------------------------------------------------
    let depth3 = replay_rows
        .iter()
        .find(|r| r.depth == 3 && r.workers == 3)
        .expect("cell swept above");
    sov_bench::section("acceptance");
    println!(
        "replay checksums identical across all cells: {}",
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

    if let Some(path) = json_path {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"seed\": {seed},\n  \"replay_frames\": {frames},\n  \"time_scale\": {TIME_SCALE},\n  \"host_cores\": {host_cores},\n"
        ));
        out.push_str(concat!(
            "  \"caveats\": [\n",
            "    \"replay cells sleep the modeled stage durations, so overlap is visible even when host_cores < lanes\",\n",
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
        out.push_str("\n  ]\n}\n");
        std::fs::write(&path, out).expect("write JSON report");
        println!("\nwrote {path}");
    }

    if !determinism_ok {
        eprintln!("determinism violation: a pipelined replay diverged from serial");
        std::process::exit(1);
    }
    if depth3.speedup < 1.5 {
        eprintln!("throughput regression: depth-3 replay speedup below 1.5×");
        std::process::exit(1);
    }
}
