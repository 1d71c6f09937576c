//! Intra-frame data-parallelism ablation (DESIGN.md §8).
//!
//! Runs one synthetic perception + LiDAR frame through every cell of
//! {serial, 2, 4, 8 workers} × {AoS, SoA} × {legacy alloc, arena} and
//! reports per-stage p50/p99 latency. The `alloc` cells run the
//! **pre-optimization kernels, kept verbatim in [`legacy`]** (per-candidate
//! patch allocations, bounds-checked pixel accessors, fresh planes every
//! frame); the `arena` cells run the current kernels (hoisted NCC
//! templates, contiguous-row windows, frame-arena reuse). The `aos` cells
//! use the SipHash voxel grid and AoS transform; the `soa` cells the
//! sort-based [`PointCloudSoA`] kernels. The matrix is therefore a
//! before/after ablation of the intra-frame layer (`sov_runtime::pool`
//! and `sov_runtime::arena`), and [`legacy`] is the independent oracle
//! its checksum gate compares every cell against.
//!
//! Determinism is the hard invariant: every cell's kernel outputs are
//! checksummed (via `to_bits`, so NaN-safe and bitwise-exact) and the
//! process exits non-zero if any cell disagrees with the legacy serial
//! baseline.
//!
//! Flags: `--json PATH` writes the matrix (the committed baseline is
//! `BENCH_perf.json`); `--smoke` shrinks the run for CI; `--frames N`
//! overrides the per-cell frame count; `--seed N` reseeds the workload.

use sov_lidar::cloud::PointCloud;
use sov_lidar::kdtree::KdTree;
use sov_lidar::reconstruction::VoxelGrid;
use sov_lidar::segmentation::{euclidean_clusters_with, SegmentationConfig};
use sov_lidar::soa::{aos_ground_traffic_bytes, soa_ground_traffic_bytes, PointCloudSoA};
use sov_math::SovRng;
use sov_perception::depth::DenseStereoMatcher;
use sov_perception::features::{fast_corners_with, track_features_with, Corner};
use sov_perception::image::{convolve3x3_with, pyramid_with, GrayImage, SMOOTH_3X3};
use sov_runtime::arena::FrameArena;
use sov_runtime::pool::WorkerPool;
use std::time::Instant;

/// The pre-PR perception kernels, copied verbatim from the tree before the
/// intra-frame parallelism refactor. They are the `alloc` cells' code path,
/// so the matrix measures exactly what the refactor changed; their outputs
/// are proven bit-identical to the current kernels by the checksum gate.
mod legacy {
    use super::{Corner, DenseStereoMatcher, GrayImage};
    use sov_perception::image::ncc;

    const CIRCLE: [(isize, isize); 16] = [
        (0, -3),
        (1, -3),
        (2, -2),
        (3, -1),
        (3, 0),
        (3, 1),
        (2, 2),
        (1, 3),
        (0, 3),
        (-1, 3),
        (-2, 2),
        (-3, 1),
        (-3, 0),
        (-3, -1),
        (-2, -2),
        (-1, -3),
    ];

    fn fast_score(image: &GrayImage, x: isize, y: isize, threshold: f32) -> Option<f32> {
        let center = image.get(x, y);
        let mut classes = [0i8; 16];
        let mut diffs = [0.0f32; 16];
        for (i, &(dx, dy)) in CIRCLE.iter().enumerate() {
            let v = image.get(x + dx, y + dy);
            diffs[i] = (v - center).abs();
            classes[i] = if v > center + threshold {
                1
            } else if v < center - threshold {
                -1
            } else {
                0
            };
        }
        for &target in &[1i8, -1] {
            let mut best_run = 0usize;
            let mut run = 0usize;
            let mut best_start = 0usize;
            for i in 0..32 {
                if classes[i % 16] == target {
                    if run == 0 {
                        best_start = i;
                    }
                    run += 1;
                    if run > best_run {
                        best_run = run;
                        if best_run >= 16 {
                            break;
                        }
                    }
                } else {
                    run = 0;
                }
            }
            if best_run >= 9 {
                let score: f32 = (best_start..best_start + best_run.min(16))
                    .map(|i| diffs[i % 16])
                    .sum();
                return Some(score);
            }
        }
        None
    }

    pub fn fast_corners(image: &GrayImage, threshold: f32) -> Vec<Corner> {
        let (w, h) = (image.width(), image.height());
        if w < 7 || h < 7 {
            return Vec::new();
        }
        let mut scores = vec![0.0f32; w * h];
        for y in 3..h - 3 {
            for x in 3..w - 3 {
                if let Some(score) = fast_score(image, x as isize, y as isize, threshold) {
                    scores[y * w + x] = score;
                }
            }
        }
        let mut corners = Vec::new();
        for y in 3..h - 3 {
            for x in 3..w - 3 {
                let s = scores[y * w + x];
                if s <= 0.0 {
                    continue;
                }
                let mut is_max = true;
                'nms: for dy in -1isize..=1 {
                    for dx in -1isize..=1 {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        let nx = (x as isize + dx) as usize;
                        let ny = (y as isize + dy) as usize;
                        let neighbor = scores[ny * w + nx];
                        if neighbor > s || (neighbor == s && (dy < 0 || (dy == 0 && dx < 0))) {
                            is_max = false;
                            break 'nms;
                        }
                    }
                }
                if is_max {
                    corners.push(Corner { x, y, score: s });
                }
            }
        }
        corners.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
        corners
    }

    pub fn track(
        prev: &GrayImage,
        next: &GrayImage,
        points: &[(usize, usize)],
        patch_size: usize,
        search_radius: isize,
        min_ncc: f64,
    ) -> Vec<Option<(usize, usize)>> {
        points
            .iter()
            .map(|&(px, py)| {
                let template = prev.patch(px as isize, py as isize, patch_size);
                let mut best: Option<(usize, usize, f64)> = None;
                for dy in -search_radius..=search_radius {
                    for dx in -search_radius..=search_radius {
                        let cx = px as isize + dx;
                        let cy = py as isize + dy;
                        if cx < 0 || cy < 0 {
                            continue;
                        }
                        let candidate = next.patch(cx, cy, patch_size);
                        let corr = ncc(&template, &candidate);
                        if best.is_none_or(|(_, _, c)| corr > c) {
                            best = Some((cx as usize, cy as usize, corr));
                        }
                    }
                }
                best.and_then(|(x, y, c)| (c >= min_ncc).then_some((x, y)))
            })
            .collect()
    }

    fn match_block(
        m: &DenseStereoMatcher,
        left: &GrayImage,
        right: &GrayImage,
        x: isize,
        y: isize,
        r: isize,
    ) -> Option<f32> {
        let mut best = (0usize, f32::INFINITY);
        let mut second = f32::INFINITY;
        for d in 0..=m.max_disparity {
            let mut sad = 0.0f32;
            for dy in -r..=r {
                for dx in -r..=r {
                    let l = left.get(x + dx, y + dy);
                    let rr = right.get(x + dx - d as isize, y + dy);
                    sad += (l - rr).abs();
                }
            }
            if sad < best.1 {
                second = best.1;
                best = (d, sad);
            } else if sad < second {
                second = sad;
            }
        }
        if best.1.is_finite() && best.1 + 1e-6 < m.uniqueness * second {
            Some(best.0 as f32)
        } else {
            None
        }
    }

    fn interpolate_row(row: &mut [f32]) {
        let n = row.len();
        let mut i = 0;
        let mut prev: Option<(usize, f32)> = None;
        while i < n {
            if !row[i].is_nan() {
                if let Some((pi, pv)) = prev {
                    let span = (i - pi) as f32;
                    for j in pi + 1..i {
                        let t = (j - pi) as f32 / span;
                        row[j] = pv + (row[i] - pv) * t;
                    }
                }
                prev = Some((i, row[i]));
            }
            i += 1;
        }
    }

    /// The legacy dense matcher; returns the raw disparity plane.
    pub fn depth_compute(m: &DenseStereoMatcher, left: &GrayImage, right: &GrayImage) -> Vec<f32> {
        let (w, h) = (left.width(), left.height());
        let r = m.block_radius as isize;
        let mut support: Vec<(usize, usize, f32)> = Vec::new();
        let mut y = m.grid_step;
        while y + m.grid_step < h {
            let mut x = m.grid_step;
            while x + m.grid_step < w {
                if let Some(d) = match_block(m, left, right, x as isize, y as isize, r) {
                    support.push((x, y, d));
                }
                x += m.grid_step;
            }
            y += m.grid_step;
        }
        let mut data = vec![f32::NAN; w * h];
        for (x, y, d) in &support {
            data[y * w + x] = *d;
        }
        for row in 0..h {
            interpolate_row(&mut data[row * w..(row + 1) * w]);
        }
        for x in 0..w {
            let mut last_valid: Option<f32> = None;
            for yy in 0..h {
                let v = data[yy * w + x];
                if v.is_nan() {
                    if let Some(lv) = last_valid {
                        data[yy * w + x] = lv;
                    }
                } else {
                    last_valid = Some(v);
                }
            }
        }
        data
    }
}

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
#[derive(Clone, Copy)]
struct Config {
    /// 0 = serial (no pool); otherwise pool lanes.
    workers: usize,
    /// SoA point-cloud kernels vs the legacy AoS ones.
    soa: bool,
    /// Current kernels + frame arena vs the legacy allocate-per-call
    /// kernels (which predate the pool and take no worker handle).
    arena: bool,
}

impl Config {
    fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            if self.workers == 0 {
                "serial".to_string()
            } else {
                format!("{}w", self.workers)
            },
            if self.soa { "soa" } else { "aos" },
            if self.arena { "arena" } else { "alloc" },
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
    stage_ms: Vec<Vec<f64>>,
    /// Whole-frame latency samples (ms).
    frame_ms: Vec<f64>,
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
            stage_ms: vec![Vec::new(); STAGES.len()],
            frame_ms: Vec::new(),
            checksum: 0,
        }
    }

    /// Runs one frame through the cell; unmeasured frames warm the arena.
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, w: &Workload, measured: bool) {
        let cfg = self.config;
        let pool = self.pool.as_ref();
        let arena = &self.arena;
        let arena_opt = cfg.arena.then_some(arena);
        let matcher = &self.matcher;
        let stage_ms = &mut self.stage_ms;
        let mut lap = |stage: usize, t0: Instant| {
            if measured {
                stage_ms[stage].push(t0.elapsed().as_secs_f64() * 1e3);
            }
        };
        let frame_t0 = Instant::now();

        let t0 = Instant::now();
        let smooth = convolve3x3_with(&w.prev, &SMOOTH_3X3, pool, arena_opt);
        lap(0, t0);

        let t0 = Instant::now();
        let pyr = pyramid_with(&smooth, 3, pool, arena_opt);
        lap(1, t0);

        let t0 = Instant::now();
        let corners = if cfg.arena {
            fast_corners_with(&smooth, 0.05, pool, arena_opt)
        } else {
            legacy::fast_corners(&smooth, 0.05)
        };
        lap(2, t0);

        let points: Vec<(usize, usize)> = corners
            .iter()
            .take(TRACK_POINTS)
            .map(|c| (c.x, c.y))
            .collect();
        let t0 = Instant::now();
        let tracked = if cfg.arena {
            track_features_with(&w.prev, &w.next, &points, PATCH, SEARCH_RADIUS, 0.5, pool)
        } else {
            legacy::track(&w.prev, &w.next, &points, PATCH, SEARCH_RADIUS, 0.5)
        };
        lap(3, t0);

        let t0 = Instant::now();
        let disparity: Vec<f32> = if cfg.arena {
            matcher
                .compute_with(&w.left, &w.right, pool, arena_opt)
                .into_raw()
        } else {
            legacy::depth_compute(matcher, &w.left, &w.right)
        };
        lap(4, t0);

        let t0 = Instant::now();
        let moved_chk = if cfg.soa {
            let moved = w.cloud_soa.transformed_with(0.31, 1.5, -2.0, pool);
            (0..moved.len()).fold(0u64, |h, i| chk_points(h, [moved.get(i)]))
        } else {
            let moved = w.cloud.transformed(0.31, 1.5, -2.0);
            chk_points(0, moved.points().iter().copied())
        };
        lap(5, t0);

        let t0 = Instant::now();
        let downsampled = if cfg.soa {
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
            self.frame_ms.push(frame_t0.elapsed().as_secs_f64() * 1e3);
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

        if cfg.arena {
            arena.recycle(disparity);
            arena.recycle(smooth.into_raw());
            for level in pyr {
                arena.recycle(level.into_raw());
            }
        }
    }
}

fn pctl(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

fn main() {
    sov_bench::check_args(&["--json PATH", "--smoke", "--frames N"]);
    sov_bench::banner(
        "Perf matrix",
        "Intra-frame parallelism: workers × layout × allocation",
    );
    let args: Vec<String> = std::env::args().collect();
    let seed = sov_bench::seed_from_args();
    let smoke = args.iter().any(|a| a == "--smoke");
    let frames = args
        .iter()
        .position(|a| a == "--frames")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 4 } else { 30 });
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

    let mut cells: Vec<Cell> = Vec::new();
    for workers in [0usize, 2, 4, 8] {
        for soa in [false, true] {
            for arena in [false, true] {
                cells.push(Cell::new(Config {
                    workers,
                    soa,
                    arena,
                }));
            }
        }
    }
    // Interleave: one frame of every cell per round, so every cell samples
    // the same machine conditions. Round 0 is an unmeasured warmup.
    for round in 0..=frames {
        for cell in &mut cells {
            cell.step(&w, round > 0);
        }
    }

    let baseline = &cells[0]; // serial/aos/alloc
    let base_p50 = pctl(&baseline.frame_ms, 0.5);

    sov_bench::section("frame latency by cell (ms)");
    println!(
        "{:<16} | {:>8} | {:>8} | {:>8}",
        "cell", "p50", "p99", "speedup"
    );
    println!("{:-<16}-+-{:->8}-+-{:->8}-+-{:->8}", "", "", "", "");
    let mut determinism_ok = true;
    for cell in &cells {
        let p50 = pctl(&cell.frame_ms, 0.5);
        if cell.checksum != baseline.checksum {
            determinism_ok = false;
        }
        println!(
            "{:<16} | {:>8.3} | {:>8.3} | {:>7.2}×{}",
            cell.config.label(),
            p50,
            pctl(&cell.frame_ms, 0.99),
            base_p50 / p50,
            if cell.checksum == baseline.checksum {
                ""
            } else {
                "  CHECKSUM MISMATCH"
            },
        );
    }

    let optimized = cells
        .iter()
        .find(|c| c.config.workers == 4 && c.config.soa && c.config.arena)
        .expect("cell swept above");
    sov_bench::section("per-stage p50/p99 (ms): baseline vs 4w/soa/arena");
    println!(
        "{:<10} | {:>8} {:>8} | {:>8} {:>8} | {:>8}",
        "stage", "base p50", "p99", "opt p50", "p99", "speedup"
    );
    for (i, name) in STAGES.iter().enumerate() {
        let b50 = pctl(&baseline.stage_ms[i], 0.5);
        let o50 = pctl(&optimized.stage_ms[i], 0.5);
        println!(
            "{:<10} | {:>8.3} {:>8.3} | {:>8.3} {:>8.3} | {:>7.2}×",
            name,
            b50,
            pctl(&baseline.stage_ms[i], 0.99),
            o50,
            pctl(&optimized.stage_ms[i], 0.99),
            b50 / o50,
        );
    }

    let speedup = base_p50 / pctl(&optimized.frame_ms, 0.5);
    sov_bench::section("acceptance");
    println!(
        "bit-identical outputs across all {} cells: {}",
        cells.len(),
        if determinism_ok { "PASS" } else { "FAIL" },
    );
    println!(
        "combined frame p50 speedup, 4w/soa/arena vs serial/aos/alloc: {} (target ≥2×): {}",
        sov_bench::times(speedup),
        if speedup >= 2.0 { "PASS" } else { "FAIL" },
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
            "speedups are reported as measured on this host\",\n",
            "    \"arena/SoA gains are allocation- and layout-bound, so they hold ",
            "even on a single core\"\n",
            "  ],\n"
        ));
        out.push_str(&format!(
            "  \"frame_p50_speedup_4w_soa_arena\": {speedup:.4},\n  \"cells\": [\n"
        ));
        let rows: Vec<String> = cells
            .iter()
            .map(|cell| {
                let stages: Vec<String> = STAGES
                    .iter()
                    .enumerate()
                    .map(|(i, name)| {
                        format!(
                            "\"{name}\": {{\"p50_ms\": {:.4}, \"p99_ms\": {:.4}}}",
                            pctl(&cell.stage_ms[i], 0.5),
                            pctl(&cell.stage_ms[i], 0.99),
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        "    {{\"cell\": \"{}\", \"workers\": {}, \"layout\": \"{}\", ",
                        "\"arena\": {}, \"frame_p50_ms\": {:.4}, \"frame_p99_ms\": {:.4}, ",
                        "\"checksum\": \"{:016x}\", \"stages\": {{{}}}}}"
                    ),
                    cell.config.label(),
                    cell.config.workers,
                    if cell.config.soa { "soa" } else { "aos" },
                    cell.config.arena,
                    pctl(&cell.frame_ms, 0.5),
                    pctl(&cell.frame_ms, 0.99),
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
        eprintln!("determinism violation: pooled/SoA/arena outputs diverged from serial");
        std::process::exit(1);
    }
}
