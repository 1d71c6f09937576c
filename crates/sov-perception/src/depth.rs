//! Stereo depth estimation (Table III: ELAS, hand-crafted features).
//!
//! Two estimators are provided:
//!
//! * [`feature_depth_map`] — sparse triangulation of matched features, the
//!   path used by the synchronization study (Fig. 11a): each landmark seen
//!   by both cameras yields a disparity and hence a depth.
//! * [`DenseStereoMatcher`] — an ELAS-style dense matcher: sparse
//!   high-confidence *support points* on a grid (SAD block matching with a
//!   uniqueness ratio test) followed by scanline interpolation, as in the
//!   original ELAS design of Geiger et al.
//!
//! The paper's vehicles tolerate ~0.2 m depth error because they maneuver at
//! lane granularity (Sec. III-D); the experiments here quantify how quickly
//! stereo desynchronization destroys that budget.

use crate::image::{GrayImage, LANES};
use sov_math::{Pose2, SovRng};
use sov_runtime::arena::FrameArena;
use sov_runtime::pool::{for_chunks, map_reduce_chunks, WorkerPool};
use sov_sensors::camera::{CameraFrame, StereoRig};
use sov_sim::time::{SimDuration, SimTime};
use sov_world::landmark::LandmarkId;
use sov_world::scenario::World;

/// A sparse depth estimate for one matched feature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthEstimate {
    /// The matched landmark.
    pub landmark: LandmarkId,
    /// Estimated depth (m).
    pub depth_m: f64,
    /// Ground-truth depth from the left camera (m).
    pub true_depth_m: f64,
}

impl DepthEstimate {
    /// Absolute error (m).
    #[must_use]
    pub fn abs_error_m(&self) -> f64 {
        (self.depth_m - self.true_depth_m).abs()
    }
}

/// The disparity (px) a rig with focal length `fx_px` and baseline
/// `baseline_m` would measure for a feature at `depth_m` — the inverse of
/// [`StereoRig::depth_from_disparity`], used by the visual front-end to
/// synthesize per-feature stereo measurements from the scene geometry.
/// Returns `None` for non-positive depths (behind or on the camera plane).
#[must_use]
pub fn disparity_for_depth(fx_px: f64, baseline_m: f64, depth_m: f64) -> Option<f64> {
    if depth_m <= 0.0 {
        return None;
    }
    Some(fx_px * baseline_m / depth_m)
}

/// Triangulates all features visible in both frames.
///
/// Features are matched by landmark identity, modeling a descriptor matcher
/// with no mismatches; disparity noise still enters through the per-camera
/// pixel noise.
#[must_use]
pub fn feature_depth_map(
    rig: &StereoRig,
    left: &CameraFrame,
    right: &CameraFrame,
) -> Vec<DepthEstimate> {
    let mut out = Vec::new();
    for lf in &left.features {
        if let Some(rf) = right.feature(lf.landmark) {
            let disparity = lf.pixel.0 - rf.pixel.0;
            if let Some(depth) = rig.depth_from_disparity(disparity) {
                out.push(DepthEstimate {
                    landmark: lf.landmark,
                    depth_m: depth,
                    true_depth_m: lf.true_depth,
                });
            }
        }
    }
    out
}

/// Mean absolute depth error of a set of estimates (m); 0.0 when empty.
#[must_use]
pub fn mean_abs_error_m(estimates: &[DepthEstimate]) -> f64 {
    if estimates.is_empty() {
        return 0.0;
    }
    estimates
        .iter()
        .map(DepthEstimate::abs_error_m)
        .sum::<f64>()
        / estimates.len() as f64
}

/// Runs the Fig. 11a experiment kernel once: captures a stereo pair where
/// the right camera fires `offset` later while the vehicle moves along
/// `pose_of`, then triangulates.
///
/// `pose_of` maps a time to the vehicle's ground-truth pose.
pub fn depth_with_sync_offset(
    rig: &StereoRig,
    world: &World,
    pose_of: impl Fn(SimTime) -> Pose2,
    t: SimTime,
    offset: SimDuration,
    rng: &mut SovRng,
) -> Vec<DepthEstimate> {
    let t_right = t + offset;
    let (left, right) =
        rig.capture_pair_unsynced(&pose_of(t), &pose_of(t_right), world, t, t_right, rng);
    feature_depth_map(rig, &left, &right)
}

/// A dense disparity map.
#[derive(Debug, Clone, PartialEq)]
pub struct DisparityMap {
    width: usize,
    height: usize,
    /// Disparity per pixel; `f32::NAN` where invalid.
    data: Vec<f32>,
}

impl DisparityMap {
    /// Width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Disparity at `(x, y)`; `None` where matching failed.
    #[must_use]
    pub fn get(&self, x: usize, y: usize) -> Option<f32> {
        let v = *self.data.get(y * self.width + x)?;
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// Fraction of pixels with a valid disparity.
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|v| !v.is_nan()).count() as f64 / self.data.len() as f64
    }

    /// Consumes the map, returning its backing buffer so a caller that
    /// computes disparities every frame can [`FrameArena::recycle`] it.
    #[must_use]
    pub fn into_raw(self) -> Vec<f32> {
        self.data
    }
}

/// Grid rows per parallel chunk in dense-matcher phase 1 (fixed so chunk
/// boundaries never depend on worker count).
const GRID_ROWS_PER_CHUNK: usize = 2;

/// Image rows per parallel chunk in dense-matcher phase 2.
const ROWS_PER_CHUNK: usize = 8;

/// ELAS-style dense stereo matcher: support points + interpolation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenseStereoMatcher {
    /// Half-size of the SAD matching block.
    pub block_radius: usize,
    /// Maximum disparity searched (px).
    pub max_disparity: usize,
    /// Grid step between support points (px).
    pub grid_step: usize,
    /// Uniqueness ratio: best SAD must be at most this fraction of the
    /// second best for a support point to be accepted.
    pub uniqueness: f32,
}

impl Default for DenseStereoMatcher {
    fn default() -> Self {
        Self {
            block_radius: 3,
            max_disparity: 48,
            grid_step: 4,
            uniqueness: 0.85,
        }
    }
}

impl DenseStereoMatcher {
    /// Computes a dense disparity map from a rectified pair (left, right).
    ///
    /// # Panics
    ///
    /// Panics if the images have different dimensions.
    #[must_use]
    pub fn compute(&self, left: &GrayImage, right: &GrayImage) -> DisparityMap {
        self.compute_with(left, right, None, None)
    }

    /// [`Self::compute`] with optional intra-frame parallelism and buffer
    /// reuse.
    ///
    /// Support-point grid rows (phase 1) and scanline interpolation rows
    /// (phase 2) are chunked with fixed boundaries and merged in ascending
    /// order; the vertical fill (phase 3) is a cheap single serial pass.
    /// Phase 1 matches on zero-padded copies of the pair, so every block
    /// reads contiguous rows, including blocks whose disparity reaches
    /// past the left edge. The result is bit-identical to the serial
    /// matcher for any worker count. The disparity plane and the padded
    /// copies are borrowed from `arena` when supplied; recycle the map
    /// after use via [`DisparityMap::into_raw`].
    ///
    /// # Panics
    ///
    /// Panics if the images have different dimensions.
    #[must_use]
    pub fn compute_with(
        &self,
        left: &GrayImage,
        right: &GrayImage,
        pool: Option<&WorkerPool>,
        arena: Option<&FrameArena>,
    ) -> DisparityMap {
        assert_eq!(
            (left.width(), left.height()),
            (right.width(), right.height()),
            "stereo pair must be rectified to equal sizes"
        );
        let (w, h) = (left.width(), left.height());
        let r = self.block_radius;
        let border = self.padding();
        let (left_pad, right_pad) = (left.padded(border, arena), right.padded(border, arena));
        // Phase 1: support points on a sparse grid. Each chunk of grid rows
        // emits its candidates in (y, x) scan order; the ascending merge
        // reproduces the serial iteration exactly.
        let grid_ys: Vec<usize> = (1..)
            .map(|i| i * self.grid_step)
            .take_while(|y| y + self.grid_step < h)
            .collect();
        let support: Vec<(usize, usize, f32)> = map_reduce_chunks(
            pool,
            &grid_ys,
            GRID_ROWS_PER_CHUNK,
            |_, ys| {
                let mut rows = Vec::new();
                let mut sads = vec![0.0f32; self.disparities().max(LANES)];
                for &y in ys {
                    let mut x = self.grid_step;
                    while x + self.grid_step < w {
                        // The block's top-left pixel in the padded copies.
                        let corner = (x + border[0] - r, y);
                        if let Some(d) = self.match_block(&left_pad, &right_pad, corner, &mut sads)
                        {
                            rows.push((x, y, d));
                        }
                        x += self.grid_step;
                    }
                }
                rows
            },
            Vec::new(),
            |mut acc, mut part| {
                acc.append(&mut part);
                acc
            },
        );
        if let Some(arena) = arena {
            arena.recycle(left_pad.into_raw());
            arena.recycle(right_pad.into_raw());
        }
        // Phase 2: scanline interpolation between support points. Chunks
        // cover whole rows, so every write stays inside its own chunk.
        let mut data: Vec<f32> = match arena {
            Some(arena) => arena.take(),
            None => Vec::new(),
        };
        data.clear();
        data.resize(w * h, f32::NAN);
        for (x, y, d) in &support {
            data[y * w + x] = *d;
        }
        for_chunks(pool, &mut data, ROWS_PER_CHUNK * w, |_, rows| {
            for row_slice in rows.chunks_mut(w) {
                interpolate_row(row_slice);
            }
        });
        // Phase 3: vertical fill from the nearest valid row above.
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
        DisparityMap {
            width: w,
            height: h,
            data,
        }
    }

    /// The zero border of the padded copies, `[left, top, right, bottom]`:
    /// the block radius all round, plus room on the left for the widest
    /// disparity a block of lanes evaluates.
    fn padding(&self) -> [usize; 4] {
        let r = self.block_radius;
        [r + self.disparities().max(LANES) - 1, r, r, r]
    }

    /// Number of disparities searched, `0..=max_disparity`.
    fn disparities(&self) -> usize {
        self.max_disparity + 1
    }

    /// SAD block match of the left block whose top-left pixel is `(x, y)`
    /// in the padded copies (made by [`Self::compute_with`]) against
    /// right-image candidates; returns the disparity if it passes the
    /// uniqueness test. `sads` holds `max(disparities, LANES)` slots.
    ///
    /// Disparities are matched in blocks of [`LANES`]: lane `j` of the
    /// block at `d0` holds disparity `d0 + LANES − 1 − j`, so the lanes
    /// read one contiguous right-row window and share each left-pixel
    /// load. Each lane adds its `|l − r|` terms in the `(dy, dx)` order of
    /// the per-disparity loop; the last block ends at the last disparity,
    /// overlapping the block before it, and the best/second scan then
    /// consumes every disparity once, in ascending order.
    fn match_block(
        &self,
        left: &GrayImage,
        right: &GrayImage,
        (x, y): (usize, usize),
        sads: &mut [f32],
    ) -> Option<f32> {
        let side = 2 * self.block_radius + 1;
        let (w, n) = (left.width(), self.disparities());
        let mut k = 0;
        while k < n {
            let d0 = k.min(n.saturating_sub(LANES));
            let mut acc = [0.0f32; LANES];
            for dy in 0..side {
                let l0 = (y + dy) * w + x;
                let lrow = &left.data()[l0..][..side];
                let rrow = &right.data()[l0 - d0 - (LANES - 1)..][..side + LANES - 1];
                for (&l, window) in lrow.iter().zip(rrow.windows(LANES)) {
                    acc = std::array::from_fn(|lane| acc[lane] + (l - window[lane]).abs());
                }
            }
            // `sads` runs in descending disparity, so the block's lanes
            // land side by side.
            let top = sads.len() - d0 - LANES;
            sads[top..top + LANES].copy_from_slice(&acc);
            k = d0 + LANES;
        }
        let mut best = (0usize, f32::INFINITY);
        let mut second = f32::INFINITY;
        for (d, &sad) in sads.iter().rev().take(n).enumerate() {
            if sad < best.1 {
                second = best.1;
                best = (d, sad);
            } else if sad < second {
                second = sad;
            }
        }
        // Strict inequality with a small margin rejects texture-free ties
        // (a flat block matches every disparity equally well).
        if best.1.is_finite() && best.1 + 1e-6 < self.uniqueness * second {
            Some(best.0 as f32)
        } else {
            None
        }
    }
}

fn interpolate_row(row: &mut [f32]) {
    let n = row.len();
    let mut i = 0;
    let mut prev: Option<(usize, f32)> = None;
    while i < n {
        if !row[i].is_nan() {
            if let Some((pi, pv)) = prev {
                // Fill the gap (pi, i) linearly.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::render_scene;
    use sov_testkit::prelude::*;
    use sov_world::scenario::Scenario;

    #[test]
    fn disparity_for_depth_inverts_rig_triangulation() {
        let rig = StereoRig::perceptin_default();
        let fx = 1662.0; // hd1080 focal length used by the default rig
        for depth in [1.0, 5.0, 12.0, 40.0] {
            let d = disparity_for_depth(fx, rig.baseline_m(), depth).unwrap();
            let back = rig.depth_from_disparity(d).unwrap();
            assert!((back - depth).abs() < 1e-9, "{depth} -> {d} -> {back}");
        }
        assert!(disparity_for_depth(fx, rig.baseline_m(), 0.0).is_none());
        assert!(disparity_for_depth(fx, rig.baseline_m(), -3.0).is_none());
    }

    #[test]
    fn feature_depths_accurate_when_synced() {
        let world = Scenario::fishers_indiana(1).world;
        let rig = StereoRig::perceptin_default();
        let mut rng = SovRng::seed_from_u64(1);
        let pose = world.route.pose_at(&world.map, 20.0).unwrap();
        let (l, r) = rig.capture_pair(&pose, &world, SimTime::ZERO, &mut rng);
        let depths = feature_depth_map(&rig, &l, &r);
        assert!(
            depths.len() > 5,
            "need matched features, got {}",
            depths.len()
        );
        // With sub-pixel noise on a 12 cm baseline, nearby features should
        // be well under 1 m of error on average.
        let close: Vec<DepthEstimate> = depths
            .into_iter()
            .filter(|d| d.true_depth_m < 15.0)
            .collect();
        assert!(!close.is_empty());
        let err = mean_abs_error_m(&close);
        assert!(err < 1.0, "mean close-range error {err} m");
    }

    #[test]
    fn sync_offset_inflates_depth_error() {
        let world = Scenario::fishers_indiana(1).world;
        let rig = StereoRig::perceptin_default();
        let mut rng = SovRng::seed_from_u64(2);
        // Vehicle turning: lateral motion between left and right captures.
        let pose_of =
            |t: SimTime| Pose2::new(10.0, 0.0, 0.0).step_unicycle(5.6, 0.35, t.as_secs_f64());
        let synced = depth_with_sync_offset(
            &rig,
            &world,
            pose_of,
            SimTime::ZERO,
            SimDuration::ZERO,
            &mut rng,
        );
        let unsynced = depth_with_sync_offset(
            &rig,
            &world,
            pose_of,
            SimTime::ZERO,
            SimDuration::from_millis(30),
            &mut rng,
        );
        let e_sync = mean_abs_error_m(&synced);
        let e_unsync = mean_abs_error_m(&unsynced);
        assert!(
            e_unsync > 3.0 * e_sync.max(0.05),
            "expected large degradation: {e_sync} vs {e_unsync}"
        );
    }

    #[test]
    fn dense_matcher_recovers_uniform_shift() {
        let mut rng = SovRng::seed_from_u64(3);
        // Textured scene of random blobs.
        let blobs: Vec<(f64, f64, f64, f64)> = (0..40)
            .map(|_| {
                (
                    rng.uniform(12.0, 116.0),
                    rng.uniform(8.0, 56.0),
                    rng.uniform(1.0, 2.5),
                    rng.uniform(0.4, 0.9),
                )
            })
            .collect();
        let mut bg_rng = SovRng::seed_from_u64(4);
        let left = render_scene(128, 64, &blobs, 0.02, &mut bg_rng);
        // Right image: every blob shifted left by 6 px (disparity 6).
        let shifted: Vec<(f64, f64, f64, f64)> = blobs
            .iter()
            .map(|&(x, y, r, i)| (x - 6.0, y, r, i))
            .collect();
        let mut bg_rng2 = SovRng::seed_from_u64(4);
        let right = render_scene(128, 64, &shifted, 0.02, &mut bg_rng2);
        let matcher = DenseStereoMatcher {
            max_disparity: 16,
            ..DenseStereoMatcher::default()
        };
        let disp = matcher.compute(&left, &right);
        assert!(disp.density() > 0.5, "density {}", disp.density());
        // Median disparity should be 6.
        let mut vals: Vec<f32> = Vec::new();
        for y in 0..disp.height() {
            for x in 0..disp.width() {
                if let Some(v) = disp.get(x, y) {
                    vals.push(v);
                }
            }
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = vals[vals.len() / 2];
        assert!((median - 6.0).abs() <= 1.0, "median disparity {median}");
    }

    #[test]
    fn interpolate_row_linear_fill() {
        let mut row = vec![f32::NAN, 2.0, f32::NAN, f32::NAN, 8.0, f32::NAN];
        interpolate_row(&mut row);
        assert!((row[2] - 4.0).abs() < 1e-6);
        assert!((row[3] - 6.0).abs() < 1e-6);
        assert!(row[0].is_nan(), "no extrapolation before first support");
        assert!(row[5].is_nan(), "no extrapolation after last support");
    }

    #[test]
    fn pooled_dense_matcher_is_bit_identical() {
        let mut rng = SovRng::seed_from_u64(5);
        let blobs: Vec<(f64, f64, f64, f64)> = (0..30)
            .map(|_| {
                (
                    rng.uniform(10.0, 86.0),
                    rng.uniform(6.0, 42.0),
                    rng.uniform(1.0, 2.5),
                    rng.uniform(0.4, 0.9),
                )
            })
            .collect();
        let mut bg = SovRng::seed_from_u64(6);
        let left = render_scene(96, 48, &blobs, 0.02, &mut bg);
        let shifted: Vec<(f64, f64, f64, f64)> = blobs
            .iter()
            .map(|&(x, y, r, i)| (x - 4.0, y, r, i))
            .collect();
        let mut bg2 = SovRng::seed_from_u64(6);
        let right = render_scene(96, 48, &shifted, 0.02, &mut bg2);
        let matcher = DenseStereoMatcher {
            max_disparity: 12,
            ..DenseStereoMatcher::default()
        };
        let serial = matcher.compute(&left, &right);
        // NaN (invalid disparity) compares unequal to itself, so equality
        // must be checked on the raw bits.
        let bits = |m: &DisparityMap| -> Vec<u32> { m.data.iter().map(|v| v.to_bits()).collect() };
        let serial_bits = bits(&serial);
        let arena = FrameArena::new();
        for lanes in [1, 2, 4, 8] {
            let pool = WorkerPool::new(lanes);
            let pooled = matcher.compute_with(&left, &right, Some(&pool), Some(&arena));
            assert_eq!(bits(&pooled), serial_bits, "lanes = {lanes}");
            arena.recycle(pooled.into_raw());
        }
        // After the first iteration warmed the arena, the disparity plane
        // is reused rather than reallocated.
        arena.reset_stats();
        let again = matcher.compute_with(&left, &right, None, Some(&arena));
        assert_eq!(arena.stats().allocations, 0, "plane must be reused");
        arena.recycle(again.into_raw());
    }

    /// The per-disparity SAD loop through bounds-checked `get()` reads —
    /// the matcher before blocks of lanes and padded copies, kept as
    /// the test oracle of [`DenseStereoMatcher::match_block`].
    fn get_loop_match(
        m: &DenseStereoMatcher,
        left: &GrayImage,
        right: &GrayImage,
        x: isize,
        y: isize,
    ) -> Option<f32> {
        let r = m.block_radius as isize;
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

    /// [`DenseStereoMatcher::match_block`] at image pixel `(x, y)`, on the
    /// padded copies `compute_with` builds.
    fn padded_match(
        m: &DenseStereoMatcher,
        left: &GrayImage,
        right: &GrayImage,
        x: usize,
        y: usize,
    ) -> Option<f32> {
        let border = m.padding();
        let (left, right) = (left.padded(border, None), right.padded(border, None));
        let mut sads = vec![0.0f32; m.disparities().max(LANES)];
        m.match_block(
            &left,
            &right,
            (x + border[0] - m.block_radius, y),
            &mut sads,
        )
    }

    /// A random textured pair whose right view is the left one shifted by
    /// `shift` px, over independent background noise.
    fn random_pair(seed: u64, w: usize, h: usize, shift: f64) -> (GrayImage, GrayImage) {
        let mut rng = SovRng::seed_from_u64(seed);
        let blobs: Vec<(f64, f64, f64, f64)> = (0..w * h / 60 + 3)
            .map(|_| {
                (
                    rng.uniform(0.0, w as f64),
                    rng.uniform(0.0, h as f64),
                    rng.uniform(1.0, 2.5),
                    rng.uniform(0.4, 0.9),
                )
            })
            .collect();
        let left = render_scene(w, h, &blobs, 0.05, &mut rng);
        let shifted: Vec<(f64, f64, f64, f64)> = blobs
            .iter()
            .map(|&(x, y, r, i)| (x - shift, y, r, i))
            .collect();
        let right = render_scene(w, h, &shifted, 0.05, &mut rng);
        (left, right)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bitwise_oracle_sad_blocks_equal_the_get_loop(
            seed in 0u64..5_000,
            w in 12usize..56,
            h in 8usize..28,
            shift in 0.0f64..12.0,
            block_radius in 0usize..5,
            max_disparity in 0usize..41,
            uniqueness in 0.5f64..1.0,
            spot in (0usize..1_000, 0usize..1_000),
        ) {
            let (left, right) = random_pair(seed, w, h, shift);
            let matcher = DenseStereoMatcher {
                block_radius,
                max_disparity,
                grid_step: 4,
                uniqueness: uniqueness as f32,
            };
            // Both ends and one random column, against the first and last
            // rows and one random row: blocks past every border, and
            // disparities past the left edge whenever max_disparity >= x.
            let r = block_radius;
            for x in [0, 1, r.min(w - 1), spot.0 % w, w - 1 - r.min(w - 1), w - 1] {
                for y in [0, r.min(h - 1), spot.1 % h, h - 1] {
                    prop_assert_eq!(
                        padded_match(&matcher, &left, &right, x, y),
                        get_loop_match(&matcher, &left, &right, x as isize, y as isize),
                        "block at ({}, {}), r {}, max_disparity {}", x, y, r, max_disparity
                    );
                }
            }
        }
    }

    #[test]
    fn disparity_map_accessors() {
        let matcher = DenseStereoMatcher::default();
        let img = GrayImage::new(32, 16);
        let disp = matcher.compute(&img, &img);
        assert_eq!(disp.width(), 32);
        assert_eq!(disp.height(), 16);
        // Flat images have no unique matches anywhere.
        assert!(disp.density() < 0.2);
    }

    #[test]
    fn empty_estimates_have_zero_error() {
        assert_eq!(mean_abs_error_m(&[]), 0.0);
    }
}
