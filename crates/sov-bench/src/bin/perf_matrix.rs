//! Intra-frame data-parallelism matrix (DESIGN.md §8).
//!
//! Runs one synthetic perception + LiDAR frame through every cell of
//! {serial, 2, 4, 8 workers} × {AoS, SoA} and reports per-stage median
//! and max latency. Every cell runs the shipped kernels with its own frame
//! arena; the `aos` cells use the SipHash voxel grid and AoS transform,
//! the `soa` cells the sort-based [`PointCloudSoA`] kernels.
//!
//! Determinism is the hard invariant: every cell's kernel outputs are
//! checksummed (via `to_bits`, so NaN-safe and bitwise-exact) and the
//! process exits non-zero if any cell disagrees with `serial/aos`. The
//! kernels' own oracles are the crates' `bitwise_oracle` tests.
//!
//! Flags: `--json PATH` writes the matrix (the committed baseline is
//! `BENCH_perf.json`); `--smoke` shrinks the run for CI; `--seed N`
//! reseeds the workload.

use sov_lidar::cloud::PointCloud;
use sov_lidar::kdtree::KdTree;
use sov_lidar::reconstruction::VoxelGrid;
use sov_lidar::segmentation::{euclidean_clusters_with, SegmentationConfig};
use sov_lidar::soa::{aos_ground_traffic_bytes, soa_ground_traffic_bytes, PointCloudSoA};
use sov_math::stats::Summary;
use sov_math::SovRng;
use sov_perception::depth::DenseStereoMatcher;
use sov_perception::features::{fast_corners_with, track_features_with};
use sov_perception::image::{convolve3x3_with, pyramid_with, GrayImage, SMOOTH_3X3};
use sov_runtime::arena::FrameArena;
use sov_runtime::pool::WorkerPool;
use std::time::Instant;

const STAGES: [&str; 9] = [
    "smooth",
    "pyramid",
    "corners",
    "track",
    "depth",
    "transform",
    "voxel",
    "kdtree",
    "cluster",
];

const VOXEL_SIZE_M: f64 = 0.5;
const PATCH: usize = 9;
const SEARCH_RADIUS: isize = 7;
const TRACK_POINTS: usize = 300;

/// One cell of the matrix.
#[derive(Clone, Copy, PartialEq)]
struct Config {
    /// 0 = serial (no pool); otherwise pool lanes.
    workers: usize,
    /// SoA point-cloud kernels vs the AoS ones.
    soa: bool,
}

impl Config {
    fn label(&self) -> String {
        format!(
            "{}/{}",
            if self.workers == 0 {
                "serial".to_string()
            } else {
                format!("{}w", self.workers)
            },
            if self.soa { "soa" } else { "aos" },
        )
    }
}

/// Fixed workload shared by every cell.
struct Workload {
    prev: GrayImage,
    next: GrayImage,
    left: GrayImage,
    right: GrayImage,
    cloud: PointCloud,
    cloud_soa: PointCloudSoA,
}

fn noise_image(w: usize, h: usize, rng: &mut SovRng) -> GrayImage {
    GrayImage::from_raw(
        w,
        h,
        (0..w * h).map(|_| rng.uniform(0.0, 1.0) as f32).collect(),
    )
}

fn shifted(img: &GrayImage, dx: isize, dy: isize) -> GrayImage {
    let (w, h) = (img.width(), img.height());
    let mut out = GrayImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            out.set(
                x as isize,
                y as isize,
                img.get(x as isize - dx, y as isize - dy),
            );
        }
    }
    out
}

fn make_workload(seed: u64) -> Workload {
    let mut rng = SovRng::seed_from_u64(seed ^ 0x5045_5246);
    let prev = noise_image(160, 120, &mut rng);
    let next = shifted(&prev, 2, 1);
    let left = noise_image(192, 144, &mut rng);
    let right = shifted(&left, 6, 0);
    let cloud = PointCloud::from_points(
        (0..4_000)
            .map(|_| {
                [
                    rng.uniform(-25.0, 25.0),
                    rng.uniform(-25.0, 25.0),
                    rng.uniform(0.0, 6.0),
                ]
            })
            .collect(),
    );
    let cloud_soa = PointCloudSoA::from_cloud(&cloud);
    Workload {
        prev,
        next,
        left,
        right,
        cloud,
        cloud_soa,
    }
}

/// FNV-style fold, used to assert bitwise-identical outputs across cells.
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0100_0000_01b3)
}

fn chk_f32s(h: u64, vals: impl IntoIterator<Item = f32>) -> u64 {
    vals.into_iter()
        .fold(h, |h, v| mix(h, u64::from(v.to_bits())))
}

fn chk_points(h: u64, points: impl IntoIterator<Item = [f64; 3]>) -> u64 {
    points.into_iter().fold(h, |h, p| {
        let h = mix(h, p[0].to_bits());
        let h = mix(h, p[1].to_bits());
        mix(h, p[2].to_bits())
    })
}

/// One live cell of the matrix: its worker pool and arena stay warm
/// across rounds, and the driver interleaves one frame per cell per round
/// so clock-speed drift and background noise spread evenly over all cells
/// instead of biasing whichever cell runs last.
struct Cell {
    config: Config,
    pool: Option<WorkerPool>,
    arena: FrameArena,
    matcher: DenseStereoMatcher,
    seg: SegmentationConfig,
    /// Per-stage latency samples (ms), indexed like [`STAGES`].
    stage_ms: Vec<Summary>,
    /// Whole-frame latency samples (ms).
    frame_ms: Summary,
    checksum: u64,
}

impl Cell {
    fn new(config: Config) -> Self {
        Self {
            config,
            pool: (config.workers > 0).then(|| WorkerPool::new(config.workers)),
            arena: FrameArena::default(),
            matcher: DenseStereoMatcher::default(),
            seg: SegmentationConfig {
                cluster_tolerance_m: 0.9,
                min_cluster_size: 3,
                ..SegmentationConfig::default()
            },
            stage_ms: vec![Summary::new(); STAGES.len()],
            frame_ms: Summary::new(),
            checksum: 0,
        }
    }

    /// Runs one frame through the cell; unmeasured frames warm the arena.
    fn step(&mut self, w: &Workload, measured: bool) {
        let pool = self.pool.as_ref();
        let arena = Some(&self.arena);
        let stage_ms = &mut self.stage_ms;
        let mut lap = |stage: usize, t0: Instant| {
            if measured {
                stage_ms[stage].record(t0.elapsed().as_secs_f64() * 1e3);
            }
        };
        let frame_t0 = Instant::now();

        let t0 = Instant::now();
        let smooth = convolve3x3_with(&w.prev, &SMOOTH_3X3, pool, arena);
        lap(0, t0);

        let t0 = Instant::now();
        let pyr = pyramid_with(&smooth, 3, pool, arena);
        lap(1, t0);

        let t0 = Instant::now();
        let corners = fast_corners_with(&smooth, 0.05, pool, arena);
        lap(2, t0);

        let points: Vec<(usize, usize)> = corners
            .iter()
            .take(TRACK_POINTS)
            .map(|c| (c.x, c.y))
            .collect();
        let t0 = Instant::now();
        let tracked =
            track_features_with(&w.prev, &w.next, &points, PATCH, SEARCH_RADIUS, 0.5, pool);
        lap(3, t0);

        let t0 = Instant::now();
        let disparity = self
            .matcher
            .compute_with(&w.left, &w.right, pool, arena)
            .into_raw();
        lap(4, t0);

        let t0 = Instant::now();
        let moved_chk = if self.config.soa {
            let moved = w.cloud_soa.transformed_with(0.31, 1.5, -2.0, pool);
            (0..moved.len()).fold(0u64, |h, i| chk_points(h, [moved.get(i)]))
        } else {
            let moved = w.cloud.transformed(0.31, 1.5, -2.0);
            chk_points(0, moved.points().iter().copied())
        };
        lap(5, t0);

        let t0 = Instant::now();
        let downsampled = if self.config.soa {
            w.cloud_soa.voxel_downsampled_with(VOXEL_SIZE_M, pool)
        } else {
            VoxelGrid::build(&w.cloud, VOXEL_SIZE_M).downsampled()
        };
        lap(6, t0);

        let t0 = Instant::now();
        let tree = KdTree::build_with(&downsampled, pool);
        lap(7, t0);

        let t0 = Instant::now();
        let clusters = euclidean_clusters_with(&downsampled, &tree, &self.seg, pool);
        lap(8, t0);

        if measured {
            self.frame_ms.record(frame_t0.elapsed().as_secs_f64() * 1e3);
        }

        // Checksums outside the timed region; identical every iteration,
        // so folding each frame keeps the invariant honest without cost.
        let mut h = chk_f32s(0, smooth.data().iter().copied());
        for level in &pyr {
            h = chk_f32s(h, level.data().iter().copied());
        }
        for c in &corners {
            h = mix(h, c.x as u64);
            h = mix(h, c.y as u64);
            h = mix(h, u64::from(c.score.to_bits()));
        }
        for t in &tracked {
            h = match t {
                Some((x, y)) => mix(mix(h, *x as u64 + 1), *y as u64 + 1),
                None => mix(h, 0),
            };
        }
        h = chk_f32s(h, disparity.iter().copied());
        h = mix(h, moved_chk);
        h = chk_points(h, downsampled.points().iter().copied());
        h = mix(h, tree.len() as u64);
        for cl in &clusters {
            h = cl
                .iter()
                .fold(mix(h, cl.len() as u64), |h, &i| mix(h, i as u64));
        }
        self.checksum = h;

        self.arena.recycle(disparity);
        self.arena.recycle(smooth.into_raw());
        for level in pyr {
            self.arena.recycle(level.into_raw());
        }
    }
}

fn main() {
    sov_bench::check_args(&["--json PATH", "--smoke"]);
    sov_bench::banner("Perf matrix", "Intra-frame parallelism: workers × layout");
    let args: Vec<String> = std::env::args().collect();
    let seed = sov_bench::seed_from_args();
    let frames = if args.iter().any(|a| a == "--smoke") {
        4
    } else {
        30
    };
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());

    let w = make_workload(seed);
    println!(
        "workload: {}×{} tracking pair, {}×{} stereo pair, {}-point cloud; {frames} frames/cell",
        w.prev.width(),
        w.prev.height(),
        w.left.width(),
        w.left.height(),
        w.cloud.len(),
    );
    println!(
        "paper context (Fig. 4b): ground filter reads {} B/point AoS vs {} B/point SoA",
        aos_ground_traffic_bytes(1),
        soa_ground_traffic_bytes(1),
    );

    let mut cells: Vec<Cell> = [0usize, 2, 4, 8]
        .into_iter()
        .flat_map(|workers| [false, true].map(|soa| Cell::new(Config { workers, soa })))
        .collect();
    // Interleave: one frame of every cell per round, so every cell samples
    // the same machine conditions. Round 0 is an unmeasured warmup.
    for round in 0..=frames {
        for cell in &mut cells {
            cell.step(&w, round > 0);
        }
    }

    let base_checksum = cells[0].checksum; // serial/aos
    let base_p50 = cells[0].frame_ms.median();
    let determinism_ok = cells.iter().all(|c| c.checksum == base_checksum);

    sov_bench::section("frame latency by cell (ms)");
    println!(
        "{:<10} | {:>8} | {:>8} | {:>8}",
        "cell", "p50", "max", "speedup"
    );
    println!("{:-<10}-+-{:->8}-+-{:->8}-+-{:->8}", "", "", "", "");
    for cell in &mut cells {
        let p50 = cell.frame_ms.median();
        println!(
            "{:<10} | {:>8.3} | {:>8.3} | {:>7.2}×{}",
            cell.config.label(),
            p50,
            cell.frame_ms.max(),
            base_p50 / p50,
            if cell.checksum == base_checksum {
                ""
            } else {
                "  CHECKSUM MISMATCH"
            },
        );
    }

    // 2w/soa is what perfbench's perception-frame workload runs; serial/soa
    // is the same chain without the pool.
    let at = |workers, soa| {
        cells
            .iter()
            .position(|c| c.config == Config { workers, soa })
            .expect("cell swept above")
    };
    let (serial, pooled) = (at(0, true), at(2, true));
    sov_bench::section("per-stage p50/max (ms): serial/soa vs 2w/soa");
    println!(
        "{:<10} | {:>8} {:>8} | {:>8} {:>8} | {:>8}",
        "stage", "ser p50", "max", "2w p50", "max", "speedup"
    );
    for (i, name) in STAGES.iter().enumerate() {
        let s50 = cells[serial].stage_ms[i].median();
        let p50 = cells[pooled].stage_ms[i].median();
        println!(
            "{:<10} | {:>8.3} {:>8.3} | {:>8.3} {:>8.3} | {:>7.2}×",
            name,
            s50,
            cells[serial].stage_ms[i].max(),
            p50,
            cells[pooled].stage_ms[i].max(),
            s50 / p50,
        );
    }

    sov_bench::section("acceptance");
    println!(
        "bit-identical outputs across all {} cells: {}",
        cells.len(),
        if determinism_ok { "PASS" } else { "FAIL" },
    );

    if let Some(path) = json_path {
        let host_cores =
            std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"seed\": {seed},\n  \"frames\": {frames},\n  \"cloud_points\": {},\n  \"host_cores\": {host_cores},\n",
            w.cloud.len()
        ));
        out.push_str(concat!(
            "  \"caveats\": [\n",
            "    \"multi-worker cells cannot beat serial when host_cores < workers; ",
            "speedups are reported as measured on this host\"\n",
            "  ],\n",
            "  \"cells\": [\n"
        ));
        let rows: Vec<String> = cells
            .iter_mut()
            .map(|cell| {
                let stages: Vec<String> = STAGES
                    .iter()
                    .zip(&mut cell.stage_ms)
                    .map(|(name, s)| {
                        format!(
                            "\"{name}\": {{\"p50_ms\": {:.4}, \"max_ms\": {:.4}}}",
                            s.median(),
                            s.max(),
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        "    {{\"cell\": \"{}\", \"workers\": {}, \"layout\": \"{}\", ",
                        "\"frame_p50_ms\": {:.4}, \"frame_max_ms\": {:.4}, ",
                        "\"checksum\": \"{:016x}\", \"stages\": {{{}}}}}"
                    ),
                    cell.config.label(),
                    cell.config.workers,
                    if cell.config.soa { "soa" } else { "aos" },
                    cell.frame_ms.median(),
                    cell.frame_ms.max(),
                    cell.checksum,
                    stages.join(", "),
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        std::fs::write(&path, out).expect("write JSON report");
        println!("\nwrote {path}");
    }

    if !determinism_ok {
        eprintln!("determinism violation: pooled/SoA outputs diverged from serial/aos");
        std::process::exit(1);
    }
}
