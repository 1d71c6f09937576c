//! `perception-frame`: one camera + LiDAR frame per unit through the
//! `perf_matrix` kernel chain, on a 2-lane pool with a `FrameArena`.
//!
//! Inputs are a 160×120 tracking pair, a 192×144 stereo pair and a
//! 4 000-point cloud, generated from the seed exactly as `perf_matrix`
//! generates them. The chain is smooth → pyramid → FAST corners → NCC
//! tracking → dense stereo → transform → voxel → kd-tree → clustering;
//! every kernel forks and joins on the pool.

use crate::trace::Tracer;
use crate::{fold, Checks, Workload};
use sov_lidar::cloud::PointCloud;
use sov_lidar::kdtree::KdTree;
use sov_lidar::segmentation::{euclidean_clusters_with, SegmentationConfig};
use sov_lidar::soa::PointCloudSoA;
use sov_math::SovRng;
use sov_perception::depth::DenseStereoMatcher;
use sov_perception::features::{fast_corners_with, track_features_with, Corner};
use sov_perception::image::{convolve3x3_with, pyramid_with, GrayImage, SMOOTH_3X3};
use sov_runtime::arena::FrameArena;
use sov_runtime::pool::WorkerPool;

const LANES: usize = 2;
const WARMUP_FRAMES: u64 = 8;
const VOXEL_SIZE_M: f64 = 0.5;
const PATCH: usize = 9;
const SEARCH_RADIUS: isize = 7;
const TRACK_POINTS: usize = 300;

struct Inputs {
    prev: GrayImage,
    next: GrayImage,
    left: GrayImage,
    right: GrayImage,
    cloud: PointCloudSoA,
}

/// Everything one frame produces.
struct Outputs {
    smooth: GrayImage,
    pyramid: Vec<GrayImage>,
    corners: Vec<Corner>,
    tracked: Vec<Option<(usize, usize)>>,
    disparity: Vec<f32>,
    moved: PointCloudSoA,
    downsampled: PointCloud,
    tree_len: usize,
    clusters: Vec<Vec<usize>>,
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
    for y in 0..h as isize {
        for x in 0..w as isize {
            out.set(x, y, img.get(x - dx, y - dy));
        }
    }
    out
}

fn inputs(seed: u64) -> Inputs {
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
    Inputs {
        prev,
        next,
        left,
        right,
        cloud: PointCloudSoA::from_cloud(&cloud),
    }
}

fn fold_f32s(h: u64, vals: &[f32]) -> u64 {
    vals.iter().fold(h, |h, v| fold(h, u64::from(v.to_bits())))
}

fn fold_point(h: u64, p: [f64; 3]) -> u64 {
    fold(
        fold(fold(h, p[0].to_bits()), p[1].to_bits()),
        p[2].to_bits(),
    )
}

impl Outputs {
    /// The `perf_matrix` output checksum: every kernel's output, bitwise.
    fn fold(&self) -> u64 {
        let mut h = fold_f32s(0, self.smooth.data());
        for level in &self.pyramid {
            h = fold_f32s(h, level.data());
        }
        for c in &self.corners {
            h = fold(
                fold(fold(h, c.x as u64), c.y as u64),
                u64::from(c.score.to_bits()),
            );
        }
        for t in &self.tracked {
            h = match t {
                Some((x, y)) => fold(fold(h, *x as u64 + 1), *y as u64 + 1),
                None => fold(h, 0),
            };
        }
        h = fold_f32s(h, &self.disparity);
        let moved = (0..self.moved.len()).fold(0, |h, i| fold_point(h, self.moved.get(i)));
        h = fold(h, moved);
        h = self
            .downsampled
            .points()
            .iter()
            .fold(h, |h, &p| fold_point(h, p));
        h = fold(h, self.tree_len as u64);
        for cl in &self.clusters {
            h = cl
                .iter()
                .fold(fold(h, cl.len() as u64), |h, &i| fold(h, i as u64));
        }
        h
    }

    fn recycle(self, arena: &FrameArena) {
        arena.recycle(self.disparity);
        arena.recycle(self.smooth.into_raw());
        for level in self.pyramid {
            arena.recycle(level.into_raw());
        }
    }
}

fn frame(
    x: &Inputs,
    pool: Option<&WorkerPool>,
    arena: Option<&FrameArena>,
    tr: &mut Tracer,
) -> Outputs {
    let matcher = DenseStereoMatcher::default();
    let seg = SegmentationConfig {
        cluster_tolerance_m: 0.9,
        min_cluster_size: 3,
        ..SegmentationConfig::default()
    };
    let smooth = tr.span("perception.smooth", || {
        convolve3x3_with(&x.prev, &SMOOTH_3X3, pool, arena)
    });
    let pyramid = tr.span("perception.pyramid", || {
        pyramid_with(&smooth, 3, pool, arena)
    });
    let corners = tr.span("perception.corners", || {
        fast_corners_with(&smooth, 0.05, pool, arena)
    });
    let points: Vec<(usize, usize)> = corners
        .iter()
        .take(TRACK_POINTS)
        .map(|c| (c.x, c.y))
        .collect();
    let tracked = tr.span("perception.track", || {
        track_features_with(&x.prev, &x.next, &points, PATCH, SEARCH_RADIUS, 0.5, pool)
    });
    let disparity = tr.span("perception.depth", || {
        matcher
            .compute_with(&x.left, &x.right, pool, arena)
            .into_raw()
    });
    let moved = tr.span("lidar.transform", || {
        x.cloud.transformed_with(0.31, 1.5, -2.0, pool)
    });
    let downsampled = tr.span("lidar.voxel", || {
        x.cloud.voxel_downsampled_with(VOXEL_SIZE_M, pool)
    });
    let tree = tr.span("lidar.kdtree", || KdTree::build_with(&downsampled, pool));
    let clusters = tr.span("lidar.cluster", || {
        euclidean_clusters_with(&downsampled, &tree, &seg, pool)
    });
    Outputs {
        smooth,
        pyramid,
        corners,
        tracked,
        disparity,
        moved,
        downsampled,
        tree_len: tree.len(),
        clusters,
    }
}

pub struct PerceptionFrame {
    inputs: Inputs,
    pool: WorkerPool,
    arena: FrameArena,
    /// Output fold of the first warm-up frame.
    reference: u64,
    last: Option<Outputs>,
    frames: u64,
    // Counters over traced frames.
    traced: u64,
    corners: u64,
    track_points: u64,
    track_hits: u64,
    voxel_points: u64,
    clusters: u64,
    arena_takes: u64,
    arena_reuses: u64,
}

impl Workload for PerceptionFrame {
    fn setup(seed: u64, _tr: &mut Tracer) -> Self {
        let mut w = Self {
            inputs: inputs(seed),
            pool: WorkerPool::new(LANES),
            arena: FrameArena::new(),
            reference: 0,
            last: None,
            frames: 0,
            traced: 0,
            corners: 0,
            track_points: 0,
            track_hits: 0,
            voxel_points: 0,
            clusters: 0,
            arena_takes: 0,
            arena_reuses: 0,
        };
        for i in 0..WARMUP_FRAMES {
            let out = frame(&w.inputs, Some(&w.pool), Some(&w.arena), &mut Tracer::off());
            if i == 0 {
                w.reference = out.fold();
            }
            out.recycle(&w.arena);
        }
        w
    }

    fn unit(&mut self, _i: u64, tr: &mut Tracer) -> Result<(), String> {
        let before = self.arena.stats();
        let out = frame(&self.inputs, Some(&self.pool), Some(&self.arena), tr);
        self.frames += 1;
        if tr.is_on() {
            let after = self.arena.stats();
            self.traced += 1;
            self.corners += out.corners.len() as u64;
            self.track_points += out.tracked.len() as u64;
            self.track_hits += out.tracked.iter().filter(|t| t.is_some()).count() as u64;
            self.voxel_points += out.downsampled.len() as u64;
            self.clusters += out.clusters.len() as u64;
            self.arena_takes += after.takes - before.takes;
            self.arena_reuses += after.reuses - before.reuses;
        }
        self.last = Some(out);
        Ok(())
    }

    fn after_unit(&mut self) -> Result<(), String> {
        let out = self.last.take().expect("after_unit follows unit");
        let h = out.fold();
        out.recycle(&self.arena);
        if h == self.reference {
            Ok(())
        } else {
            Err(format!(
                "frame fold {h:016x} differs from the first frame's {:016x}",
                self.reference
            ))
        }
    }

    fn work_done(&self) -> u64 {
        self.frames
    }

    /// Runs one frame with no pool and no arena and requires the same
    /// output fold as every pooled frame.
    fn check(&mut self) -> Checks {
        let serial = frame(&self.inputs, None, None, &mut Tracer::off()).fold();
        Checks {
            attempted: 1,
            failures: if serial == self.reference {
                Vec::new()
            } else {
                vec![format!(
                    "serial frame fold {serial:016x} differs from the pooled {:016x}",
                    self.reference
                )]
            },
            digest: serial,
        }
    }

    fn pool(&self) -> Option<&WorkerPool> {
        Some(&self.pool)
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let per_frame = |n: u64| crate::ratio(n, self.traced);
        vec![
            ("perception.corners", per_frame(self.corners)),
            (
                "perception.track_hit_ratio",
                crate::ratio(self.track_hits, self.track_points),
            ),
            ("lidar.voxel_points", per_frame(self.voxel_points)),
            ("lidar.clusters", per_frame(self.clusters)),
            (
                "runtime.arena_reuse_ratio",
                crate::ratio(self.arena_reuses, self.arena_takes),
            ),
        ]
    }
}
