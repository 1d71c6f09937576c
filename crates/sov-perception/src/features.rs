//! Feature extraction and tracking (Sec. V-B3).
//!
//! "Our localization algorithm relies on salient features; features in key
//! frames are extracted by a feature extraction algorithm (ORB in the
//! paper), whereas features in non-key frames are tracked from previous
//! frames (KLT); the latter executes in 10 ms, 50% faster than the former."
//!
//! This module implements the workload pair for real pixels: a FAST-9
//! corner detector with non-maximum suppression ([`fast_corners`]) as the
//! keyframe extractor, and an NCC-based local patch search
//! ([`track_features`]) as the non-keyframe tracker. The criterion bench
//! `bench_perception` measures both; extraction costs more than tracking,
//! which is exactly the asymmetry the runtime-partial-reconfiguration
//! engine exploits by time-sharing one FPGA region between the two kernels.

use crate::image::{GrayImage, NccTemplate};
use sov_runtime::arena::FrameArena;
use sov_runtime::pool::{map_indexed, map_reduce_chunks, WorkerPool};

/// Rows per tile of the fused score + NMS pass. Fixed so tile
/// boundaries — and therefore merge order — never depend on lane count.
const ROWS_PER_CHUNK: usize = 8;

/// Feature points per parallel chunk in [`track_features_with`].
const POINTS_PER_CHUNK: usize = 4;

/// One detected corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Pixel x.
    pub x: usize,
    /// Pixel y.
    pub y: usize,
    /// FAST score (sum of absolute circle-center differences of the
    /// contiguous arc).
    pub score: f32,
}

/// The 16-pixel Bresenham circle of radius 3 used by FAST.
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

/// FAST-9 corner detection with 3×3 non-maximum suppression.
///
/// A pixel is a corner if at least 9 contiguous pixels on the radius-3
/// circle are all brighter than `center + threshold` or all darker than
/// `center − threshold`.
#[must_use]
pub fn fast_corners(image: &GrayImage, threshold: f32) -> Vec<Corner> {
    fast_corners_with(image, threshold, None, None)
}

/// [`fast_corners`] with optional intra-frame parallelism: a fused
/// score + NMS tile pass.
///
/// A two-pass detector writes a `w × h` score plane to memory and then
/// re-reads it (plus the two neighbor rows) for suppression — the
/// write-then-re-read traffic pattern the paper's Fig. 4 analysis calls
/// out. This pass works per tile of [`ROWS_PER_CHUNK`] rows: it scores
/// the tile's rows *plus a one-row halo* above and below into a
/// tile-local buffer that stays cache-resident, then suppresses inside the
/// tile immediately — halving the per-frame score-plane traffic at the
/// cost of re-scoring two halo rows per tile (a 25% compute overhead on
/// the cheap, mostly-early-out [`fast_score`] test). The `arena`
/// parameter is accepted for call-site compatibility and ignored: the
/// tiles need no persistent full-frame plane.
///
/// # Bit-identity at tile seams
///
/// `fast_score` is a pure function, so a halo row recomputed by a tile
/// holds exactly the values its owning tile computed; rows outside the
/// scored band (`y < 3`, `y ≥ h − 3`) and the unscored column `x = w − 3`
/// stay zero in the tile buffer exactly as in a full plane. The
/// suppression comparison, the row-major emission order, the
/// ascending-tile merge, and the final stable sort are all those of the
/// two-pass detector, so the output is bit-identical to it for any worker
/// count — proptested against a serial score-plane + NMS oracle with
/// corners placed on tile seams.
#[must_use]
pub fn fast_corners_with(
    image: &GrayImage,
    threshold: f32,
    pool: Option<&WorkerPool>,
    arena: Option<&FrameArena>,
) -> Vec<Corner> {
    let _ = arena; // fused tiles need no persistent score plane
    let (w, h) = (image.width(), image.height());
    if w < 7 || h < 7 {
        return Vec::new();
    }
    let mut corners = map_reduce_chunks(
        pool,
        image.data(),
        ROWS_PER_CHUNK * w,
        |start, rows| {
            let y0 = start / w;
            let rows_n = rows.len() / w;
            // Tile-local score plane: the tile's rows plus a one-row halo
            // on each side. Image row `y` lives at tile row `y - y0 + 1`.
            let mut tile = vec![0.0f32; (rows_n + 2) * w];
            let score_lo = y0.saturating_sub(1).max(3);
            let score_hi = (y0 + rows_n + 1).min(h - 3);
            for y in score_lo..score_hi {
                // `y + 1 - y0` (not `y - y0 + 1`): the top halo row has
                // `y = y0 - 1`, which would underflow the usize subtract.
                let trow = (y + 1 - y0) * w;
                for x in 3..w - 3 {
                    if let Some(score) = fast_score(image, x as isize, y as isize, threshold) {
                        tile[trow + x] = score;
                    }
                }
            }
            let mut found = Vec::new();
            for y in y0..y0 + rows_n {
                if y < 3 || y >= h - 3 {
                    continue;
                }
                let trow = ((y - y0 + 1) * w) as isize;
                for x in 3..w - 3 {
                    let s = tile[trow as usize + x];
                    if s <= 0.0 {
                        continue;
                    }
                    let mut is_max = true;
                    'nms: for dy in -1isize..=1 {
                        for dx in -1isize..=1 {
                            if dx == 0 && dy == 0 {
                                continue;
                            }
                            let idx = (trow + dy * w as isize + x as isize + dx) as usize;
                            let neighbor = tile[idx];
                            if neighbor > s || (neighbor == s && (dy < 0 || (dy == 0 && dx < 0))) {
                                is_max = false;
                                break 'nms;
                            }
                        }
                    }
                    if is_max {
                        found.push(Corner { x, y, score: s });
                    }
                }
            }
            found
        },
        Vec::new(),
        |mut acc: Vec<Corner>, mut part| {
            acc.append(&mut part);
            acc
        },
    );
    corners.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
    corners
}

/// FAST-9 test at one pixel; returns the corner score if it passes.
fn fast_score(image: &GrayImage, x: isize, y: isize, threshold: f32) -> Option<f32> {
    let (w, h) = (image.width() as isize, image.height() as isize);
    let interior = x >= 3 && y >= 3 && x + 3 < w && y + 3 < h;
    let data = image.data();
    let base = y * w + x;
    // Classify each circle pixel: +1 brighter, −1 darker, 0 similar. The
    // detector only probes interior pixels, where the circle reads come
    // straight from the backing slice (identical values to `get`, without
    // its per-pixel bounds branches).
    let center = if interior {
        data[base as usize]
    } else {
        image.get(x, y)
    };
    let mut classes = [0i8; 16];
    let mut vals = [0.0f32; 16];
    let (mut brighter, mut darker) = (0u32, 0u32);
    for (i, &(dx, dy)) in CIRCLE.iter().enumerate() {
        let v = if interior {
            data[(base + dy * w + dx) as usize]
        } else {
            image.get(x + dx, y + dy)
        };
        vals[i] = v;
        classes[i] = if v > center + threshold {
            brighter += 1;
            1
        } else if v < center - threshold {
            darker += 1;
            -1
        } else {
            0
        };
    }
    // Longest contiguous arc of one non-zero class (wrap-around). A
    // 9-long arc needs at least 9 circle pixels of that class, so classes
    // with a smaller population can skip the scan entirely — an exact
    // early-out, not a heuristic.
    for &(target, count) in &[(1i8, brighter), (-1, darker)] {
        if count < 9 {
            continue;
        }
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
            // |v − center| summed over the arc, in arc order — identical
            // terms and order to pre-computing every difference up front.
            let score: f32 = (best_start..best_start + best_run.min(16))
                .map(|i| (vals[i % 16] - center).abs())
                .sum();
            return Some(score);
        }
    }
    None
}

/// Tracks feature points from `prev` to `next` by NCC search over a square
/// window; the KLT stand-in used for non-keyframes.
///
/// Returns one entry per input point: the new position, or `None` when the
/// best correlation falls below `min_ncc` (track lost).
#[must_use]
pub fn track_features(
    prev: &GrayImage,
    next: &GrayImage,
    points: &[(usize, usize)],
    patch_size: usize,
    search_radius: isize,
    min_ncc: f64,
) -> Vec<Option<(usize, usize)>> {
    track_features_with(prev, next, points, patch_size, search_radius, min_ncc, None)
}

/// [`track_features`] with optional intra-frame parallelism.
///
/// Each point hoists its template statistics once into an
/// [`NccTemplate`]; each candidate offset then correlates
/// the two windows in place — the original tracker allocated two
/// `patch_size²` images per candidate, ~2·(2r+1)² heap allocations per
/// point. Points are processed in fixed chunks of [`POINTS_PER_CHUNK`] and
/// results merge in point order, so output is bit-identical to serial for
/// any worker count.
#[must_use]
pub fn track_features_with(
    prev: &GrayImage,
    next: &GrayImage,
    points: &[(usize, usize)],
    patch_size: usize,
    search_radius: isize,
    min_ncc: f64,
    pool: Option<&WorkerPool>,
) -> Vec<Option<(usize, usize)>> {
    let run_capacity = (2 * search_radius.max(0) + 1) as usize;
    map_indexed(pool, points, POINTS_PER_CHUNK, |_, &(px, py)| {
        let template = NccTemplate::new(prev, (px as isize, py as isize), patch_size);
        let mut corrs = vec![0.0f64; run_capacity];
        let mut best: Option<(usize, usize, f64)> = None;
        for dy in -search_radius..=search_radius {
            let cy = py as isize + dy;
            if cy < 0 {
                continue;
            }
            // One batched NCC pass per candidate row; the run skips the
            // cx < 0 prefix exactly as the per-candidate loop did.
            let cx0 = (px as isize - search_radius).max(0);
            let run = ((px as isize + search_radius) - cx0 + 1).max(0) as usize;
            template.correlate_run(next, (cx0, cy), &mut corrs[..run]);
            for (k, &corr) in corrs[..run].iter().enumerate() {
                let cx = cx0 + k as isize;
                if best.is_none_or(|(_, _, c)| corr > c) {
                    best = Some((cx as usize, cy as usize, corr));
                }
            }
        }
        best.and_then(|(x, y, c)| (c >= min_ncc).then_some((x, y)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::render_scene;
    use sov_math::SovRng;
    use sov_testkit::prelude::*;

    /// Draws a bright axis-aligned rectangle on a dark background — crisp
    /// corners for FAST.
    fn rectangle_image(
        w: usize,
        h: usize,
        x0: usize,
        y0: usize,
        x1: usize,
        y1: usize,
    ) -> GrayImage {
        let mut img = GrayImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let inside = x >= x0 && x < x1 && y >= y0 && y < y1;
                img.set(x as isize, y as isize, if inside { 0.9 } else { 0.1 });
            }
        }
        img
    }

    #[test]
    fn detects_rectangle_corners() {
        let img = rectangle_image(64, 64, 20, 20, 44, 44);
        let corners = fast_corners(&img, 0.2);
        assert!(!corners.is_empty(), "rectangle corners must fire FAST");
        // Every detection is near one of the four true corners.
        for c in &corners {
            let near =
                [(20, 20), (43, 20), (20, 43), (43, 43)]
                    .iter()
                    .any(|&(tx, ty): &(i32, i32)| {
                        (c.x as i32 - tx).abs() <= 3 && (c.y as i32 - ty).abs() <= 3
                    });
            assert!(near, "spurious corner at ({}, {})", c.x, c.y);
        }
    }

    #[test]
    fn flat_image_has_no_corners() {
        let img = GrayImage::new(64, 64);
        assert!(fast_corners(&img, 0.1).is_empty());
    }

    #[test]
    fn straight_edges_are_not_corners() {
        // A half-plane: edges but no corners inside the detection band.
        let mut img = GrayImage::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                img.set(x, y, if x < 32 { 0.1 } else { 0.9 });
            }
        }
        let corners = fast_corners(&img, 0.2);
        assert!(corners.is_empty(), "an edge alone fired FAST: {corners:?}");
    }

    #[test]
    fn nms_keeps_detections_sparse() {
        let img = rectangle_image(64, 64, 16, 16, 48, 48);
        let corners = fast_corners(&img, 0.2);
        // Without NMS a crisp corner fires on several adjacent pixels; with
        // NMS a handful of detections remain.
        assert!(corners.len() <= 12, "NMS left {} detections", corners.len());
        // Sorted by score, descending.
        for w in corners.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn tracking_recovers_known_shift() {
        let prev = rectangle_image(96, 64, 30, 20, 60, 44);
        let next = rectangle_image(96, 64, 35, 22, 65, 46); // shift (+5, +2)
        let corners = fast_corners(&prev, 0.2);
        assert!(!corners.is_empty());
        let points: Vec<(usize, usize)> = corners.iter().map(|c| (c.x, c.y)).collect();
        let tracked = track_features(&prev, &next, &points, 9, 8, 0.6);
        let mut matched = 0;
        for (i, t) in tracked.iter().enumerate() {
            if let Some((nx, ny)) = t {
                matched += 1;
                let dx = *nx as i32 - points[i].0 as i32;
                let dy = *ny as i32 - points[i].1 as i32;
                assert!(
                    (dx - 5).abs() <= 1 && (dy - 2).abs() <= 1,
                    "shift ({dx}, {dy})"
                );
            }
        }
        assert!(
            matched >= points.len() / 2,
            "only {matched}/{} tracked",
            points.len()
        );
    }

    #[test]
    fn lost_tracks_return_none() {
        let prev = rectangle_image(64, 64, 20, 20, 44, 44);
        let next = GrayImage::new(64, 64); // target vanished
        let tracked = track_features(&prev, &next, &[(20, 20)], 9, 6, 0.6);
        assert_eq!(tracked, vec![None]);
    }

    #[test]
    fn tiny_image_is_safe() {
        let img = GrayImage::new(5, 5);
        assert!(fast_corners(&img, 0.1).is_empty());
    }

    /// Test oracle for the fused tile pass: the serial two-pass detector
    /// — score the whole frame into one plane, then suppress over it.
    fn score_plane_oracle(image: &GrayImage, threshold: f32) -> Vec<Corner> {
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
                // A neighbor suppresses on a higher score, or on a tie
                // when it comes earlier in row-major order.
                let beaten = (-1isize..=1)
                    .flat_map(|dy| (-1isize..=1).map(move |dx| (dx, dy)))
                    .filter(|&d| d != (0, 0))
                    .any(|(dx, dy)| {
                        let n = scores[(y as isize + dy) as usize * w + (x as isize + dx) as usize];
                        n > s || (n == s && (dy < 0 || (dy == 0 && dx < 0)))
                    });
                if s > 0.0 && !beaten {
                    corners.push(Corner { x, y, score: s });
                }
            }
        }
        corners.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
        corners
    }

    #[test]
    fn pooled_detection_matches_the_oracle_for_any_lane_count() {
        let img = rectangle_image(97, 65, 20, 18, 70, 50);
        let reference = score_plane_oracle(&img, 0.2);
        assert!(!reference.is_empty());
        assert_eq!(fast_corners(&img, 0.2), reference);
        let arena = FrameArena::new();
        for lanes in [1, 2, 4, 8] {
            let pool = WorkerPool::new(lanes);
            let pooled = fast_corners_with(&img, 0.2, Some(&pool), Some(&arena));
            assert_eq!(pooled, reference, "lanes = {lanes}");
        }
    }

    #[test]
    fn detection_matches_the_oracle_on_seam_straddling_corners() {
        // Rectangle corners on rows 7/8 and 15/16 — both sides of the
        // 8-row tile seams, so suppression reads across chunk boundaries.
        for (y0, y1) in [(7, 16), (8, 15), (5, 24), (20, 40)] {
            let img = rectangle_image(64, 64, 12, y0, 50, y1);
            let reference = score_plane_oracle(&img, 0.2);
            assert!(!reference.is_empty(), "rows {y0}..{y1}");
            assert_eq!(fast_corners(&img, 0.2), reference, "rows {y0}..{y1}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn fused_nms_bit_identical_across_tile_seams(
            seed in 0u64..5_000,
            w in 24usize..72,
            h in 24usize..64,
            lanes in 1usize..9,
        ) {
            let mut rng = SovRng::seed_from_u64(seed);
            // Random blobs plus blobs centered *on* the 8-row tile seams,
            // so corners (and their 3×3 suppression neighborhoods)
            // straddle chunk boundaries — the case the halo rows must get
            // bit-exact.
            let mut blobs: Vec<(f64, f64, f64, f64)> = (0..5)
                .map(|_| (
                    rng.uniform(4.0, w as f64 - 4.0),
                    rng.uniform(4.0, h as f64 - 4.0),
                    rng.uniform(1.0, 3.0),
                    rng.uniform(0.4, 0.9),
                ))
                .collect();
            let mut seam = 8usize;
            while seam + 4 < h {
                blobs.push((rng.uniform(4.0, w as f64 - 4.0), seam as f64, 2.0, 0.9));
                seam += 8;
            }
            let img = render_scene(w, h, &blobs, 0.05, &mut rng);
            let reference = score_plane_oracle(&img, 0.08);
            prop_assert_eq!(&fast_corners(&img, 0.08), &reference);
            let pool = WorkerPool::new(lanes);
            prop_assert_eq!(&fast_corners_with(&img, 0.08, Some(&pool), None), &reference);
        }
    }

    #[test]
    fn pooled_tracking_is_bit_identical() {
        let prev = rectangle_image(96, 64, 30, 20, 60, 44);
        let next = rectangle_image(96, 64, 35, 22, 65, 46);
        let points: Vec<(usize, usize)> = fast_corners(&prev, 0.2)
            .iter()
            .map(|c| (c.x, c.y))
            .collect();
        let serial = track_features(&prev, &next, &points, 9, 8, 0.6);
        for lanes in [2, 4, 8] {
            let pool = WorkerPool::new(lanes);
            let pooled = track_features_with(&prev, &next, &points, 9, 8, 0.6, Some(&pool));
            assert_eq!(pooled, serial, "lanes = {lanes}");
        }
    }
}
