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
//! ([`track_features`]) as the non-keyframe tracker. The `sov-bench`
//! bin `measured_tasks` times both on the host. Which
//! costs more there depends on the workload: `measured_tasks` (a 320×160
//! keyframe, 60 radius-4 tracks) finds extraction 1.4–1.8× dearer on a
//! 2-vCPU x86-64 host, near the paper's 2×, while perfbench's
//! perception-frame (300 radius-7 tracks on a 160×120 frame) spends
//! about 2.5× as long tracking as extracting. The
//! runtime-partial-reconfiguration engine in `sov-platform`, which
//! time-shares one FPGA region between the two kernels, schedules the
//! paper's modelled FPGA times (20 ms and 10 ms), not these host times.

use crate::image::{GrayImage, NccTemplate, LANES};
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
    /// FAST score: `|v − center|` summed over circle pixels in circle
    /// order. The sum covers as many pixels as the longest contiguous arc
    /// of the passing class, starting at the class's highest-index run
    /// start — the arc itself when the class forms one run, but with two
    /// runs it starts at the later one (an inherited defect, kept so
    /// recorded outputs stay bit-identical).
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
/// `center − threshold`. Its score is [`Corner::score`]: the length of
/// the longest such arc, summed from the class's last run start, which is
/// not the longest arc when the class forms two runs.
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
/// cost of re-scoring two halo rows per tile. The `arena` parameter is
/// accepted for call-site compatibility and ignored: the tiles need no
/// persistent full-frame plane.
///
/// Rows are scored whole by `score_row`: the segment test runs on
/// 16-bit circle masks built across the row, and only the pixels that
/// pass it are scored; suppression compares each score with its eight
/// neighbours without branching.
///
/// # Bit-identity at tile seams
///
/// Scoring is a pure function of the image, so a halo row recomputed by a
/// tile holds exactly the values its owning tile computed; rows outside
/// the scored band (`y < 3`, `y ≥ h − 3`) and the columns outside
/// `3..w − 3` stay zero in the tile buffer exactly as in a full plane.
/// The suppression comparison, the row-major emission order, the
/// ascending-tile merge, and the final stable sort are all those of the
/// two-pass detector, so the output is bit-identical to it for any worker
/// count — proptested against a serial score-plane + NMS oracle built on
/// the per-pixel `fast_score`, with corners placed on tile seams.
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
            // on each side. Image row `y` lives at tile row `y + 1 - y0`
            // (not `y - y0 + 1`: the top halo row has `y = y0 - 1`, which
            // would underflow the usize subtract).
            let mut tile = vec![0.0f32; (rows_n + 2) * w];
            let mut masks = RowMasks::default();
            for y in y0.saturating_sub(1).max(3)..(y0 + rows_n + 1).min(h - 3) {
                let trow = (y + 1 - y0) * w;
                score_row(image, y, threshold, &mut masks, &mut tile[trow..trow + w]);
            }
            let mut found = Vec::new();
            let mut keep = vec![false; w];
            for y in y0.max(3)..(y0 + rows_n).min(h - 3) {
                let trow = (y + 1 - y0) * w;
                let above = &tile[trow - w..trow];
                let (row, below) = tile[trow..trow + 2 * w].split_at(w);
                for x in 3..w - 3 {
                    let s = row[x];
                    // A neighbour suppresses on a higher score, or on a
                    // tie when it comes earlier in row-major order.
                    let beaten = (above[x - 1] >= s)
                        | (above[x] >= s)
                        | (above[x + 1] >= s)
                        | (row[x - 1] >= s)
                        | (row[x + 1] > s)
                        | (below[x - 1] > s)
                        | (below[x] > s)
                        | (below[x + 1] > s);
                    keep[x] = (s > 0.0) & !beaten;
                }
                // Flagging first keeps the comparisons above free of the
                // rare, unpredictable push.
                for x in 3..w - 3 {
                    if keep[x] {
                        found.push(Corner {
                            x,
                            y,
                            score: row[x],
                        });
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

/// Per-row buffers of [`score_row`], one entry per pixel, reused across a
/// tile's rows.
#[derive(Default)]
struct RowMasks {
    /// Bit `i` set: circle pixel `i` is brighter than `centre + threshold`.
    bright: Vec<u16>,
    /// Bit `i` set: circle pixel `i` is darker than `centre − threshold`.
    dark: Vec<u16>,
    /// The mask of the class that holds an arc of nine, or 0.
    arc: Vec<u16>,
    /// Row offsets (from `x = 3`) of the pixels that pass the segment test.
    passing: Vec<usize>,
}

/// Writes the FAST-9 score of every pixel `x` in `3..w − 3` of row `y`
/// into `out[x]` (`out` is the row, `w` long); pixels that fail the
/// segment test keep the 0.0 already there.
///
/// The sixteen circle pixels of every column are classified at once, one
/// contiguous row slice per circle position, into a brighter and a darker
/// 16-bit mask. A pixel passes when one mask holds nine circularly
/// adjacent bits ([`arcs_of_nine`], which also rejects every mask with
/// fewer than nine bits); the passing columns are gathered without a
/// branch and only they are scored, by [`arc_score`].
fn score_row(image: &GrayImage, y: usize, threshold: f32, masks: &mut RowMasks, out: &mut [f32]) {
    let (w, data) = (image.width(), image.data());
    let n = w - 6;
    let centre = &data[y * w + 3..][..n];
    let RowMasks {
        bright,
        dark,
        arc,
        passing,
    } = masks;
    bright.clear();
    bright.resize(n, 0);
    dark.clear();
    dark.resize(n, 0);
    for (bit, &(dx, dy)) in CIRCLE.iter().enumerate() {
        let ring = &data[((y as isize + dy) * w as isize + 3 + dx) as usize..][..n];
        for (((b, d), &v), &c) in bright.iter_mut().zip(dark.iter_mut()).zip(ring).zip(centre) {
            *b |= u16::from(v > c + threshold) << bit;
            *d |= u16::from(v < c - threshold) << bit;
        }
    }
    // The brighter class goes first, as the per-pixel test did; a pixel
    // that is both (only under a negative threshold) counts as brighter.
    arc.clear();
    arc.extend(bright.iter().zip(dark.iter()).map(|(&b, &d)| {
        let d = d & !b;
        if arcs_of_nine(b) != 0 {
            b
        } else if arcs_of_nine(d) != 0 {
            d
        } else {
            0
        }
    }));
    passing.clear();
    passing.resize(n, 0);
    let mut found = 0;
    for (x, &mask) in arc.iter().enumerate() {
        passing[found] = x;
        found += usize::from(mask != 0);
    }
    let ring: [isize; 16] = CIRCLE.map(|(dx, dy)| dy * w as isize + dx);
    for &x in &passing[..found] {
        let circle = ring.map(|offset| data[((y * w + 3 + x) as isize + offset) as usize]);
        out[3 + x] = arc_score(&circle, centre[x], arc[x]);
    }
}

/// Bit `j` set: circle pixels `j, j + 1, …, j + 8` (mod 16) are all set in
/// `mask` — nonzero exactly when the class holds a contiguous arc of nine.
fn arcs_of_nine(mask: u16) -> u16 {
    // Two copies side by side, so bit `j + 16` reads bit `j`.
    let m = u32::from(mask) * 0x1_0001;
    let two = m & (m >> 1);
    let four = two & (two >> 2);
    let eight = four & (four >> 4);
    (eight & (m >> 8)) as u16
}

/// The FAST score of a pixel whose class `mask` holds an arc of nine:
/// `|v − centre|` summed, in circle order, over `L` pixels starting at
/// `J`, where `L` is the longest circular run of the class and `J` the
/// highest-index pixel that starts a run (`J = 0`, `L = 16` when all
/// sixteen pass). When the class has one run this is its arc; with two
/// runs it starts at the later run, not the longest — the rule of the
/// per-pixel test this replaces, kept so every score stays bit-identical.
fn arc_score(circle: &[f32; 16], centre: f32, mask: u16) -> f32 {
    // A run of `L ≥ 9` (the only one that long) starts `L − 8` arcs of
    // nine; the full circle starts sixteen.
    let len = (arcs_of_nine(mask).count_ones() as usize + 8).min(16);
    let starts = mask & !mask.rotate_left(1);
    let first = starts.checked_ilog2().unwrap_or(0) as usize;
    (first..first + len)
        .map(|i| (circle[i % 16] - centre).abs())
        .sum()
}

/// FAST-9 test at one pixel; returns the corner score if it passes. The
/// per-pixel form [`score_row`] replaces, kept as its test oracle.
#[cfg(test)]
fn fast_score(image: &GrayImage, x: isize, y: isize, threshold: f32) -> Option<f32> {
    let center = image.get(x, y);
    let mut classes = [0i8; 16];
    let mut vals = [0.0f32; 16];
    let (mut brighter, mut darker) = (0u32, 0u32);
    for (i, &(dx, dy)) in CIRCLE.iter().enumerate() {
        let v = image.get(x + dx, y + dy);
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
/// [`NccTemplate`] and correlates each candidate row in one
/// [`NccTemplate::correlate_run`]. The rows are read from a copy of
/// `next` inside a zero border of `patch_size / 2 + search_radius`
/// pixels (wider on the right for radii too small to fill a block of
/// lanes), built once per call, so a point near an edge searches
/// contiguous rows exactly as an interior point does, reading the 0.0
/// that [`GrayImage::get`] returns past the edge. Candidates left of or
/// above the image (`cx < 0`, `cy < 0`) are not searched; the best
/// correlation wins, the first in row-major order on a tie. Points are
/// processed in fixed chunks of [`POINTS_PER_CHUNK`] and results merge in
/// point order, so output is bit-identical to serial for any worker
/// count.
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
    let reach = search_radius.max(0) as usize;
    let border = patch_size / 2 + reach;
    // A run shorter than one block of lanes (radius under LANES / 2)
    // evaluates lanes past its end: widen the right border to hold them.
    let right = border + (LANES - 1).saturating_sub(2 * reach);
    let padded = next.padded([border, border, right, border], None);
    let offset = border as isize;
    let run_capacity = (2 * search_radius.max(0) + 1) as usize;
    map_indexed(pool, points, POINTS_PER_CHUNK, |_, &(px, py)| {
        let template = NccTemplate::new(prev, (px as isize, py as isize), patch_size);
        let mut corrs = vec![0.0f64; run_capacity];
        let mut best: Option<(usize, usize, f64)> = None;
        let cx0 = (px as isize - search_radius).max(0);
        let run = ((px as isize + search_radius) - cx0 + 1).max(0) as usize;
        for dy in -search_radius..=search_radius {
            let cy = py as isize + dy;
            if cy < 0 {
                continue;
            }
            template.correlate_run(&padded, (cx0 + offset, cy + offset), &mut corrs[..run]);
            for (k, &corr) in corrs[..run].iter().enumerate() {
                if best.is_none_or(|(_, _, c)| corr > c) {
                    best = Some((cx0 as usize + k, cy as usize, corr));
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

    /// A 7 × 7 image whose centre pixel is `centre` and whose radius-3
    /// circle holds `circle`, in [`CIRCLE`] order.
    fn circle_image(centre: f32, circle: &[f32; 16]) -> GrayImage {
        let mut img = GrayImage::new(7, 7);
        for y in 0..7 {
            for x in 0..7 {
                img.set(x, y, centre);
            }
        }
        for (&(dx, dy), &v) in CIRCLE.iter().zip(circle) {
            img.set(3 + dx, 3 + dy, v);
        }
        img
    }

    /// [`score_row`]'s score for every pixel of `image`, row by row.
    fn row_scores(image: &GrayImage, threshold: f32) -> Vec<f32> {
        let (w, h) = (image.width(), image.height());
        let mut plane = vec![0.0f32; w * h];
        let mut masks = RowMasks::default();
        for y in 3..h - 3 {
            score_row(
                image,
                y,
                threshold,
                &mut masks,
                &mut plane[y * w..(y + 1) * w],
            );
        }
        plane
    }

    #[test]
    fn two_run_arcs_are_scored_from_the_later_run() {
        // Circle pixels 0–9 brighter (1.0), 12–14 brighter (0.9), the rest
        // at the centre. The longest arc, 0–9, would score 10 × 0.5 = 5.0;
        // the score sums ten pixels from the later run's start instead:
        // 12, 13, 14, 15, 0, …, 5 = 3 × 0.4 + 0 + 6 × 0.5 = 4.2.
        let mut circle = [0.5f32; 16];
        circle[..10].fill(1.0);
        circle[12..15].fill(0.9);
        let img = circle_image(0.5, &circle);
        let score = row_scores(&img, 0.1)[3 * 7 + 3];
        assert!((score - 4.2).abs() < 1e-6, "score {score}");
        assert_eq!(fast_score(&img, 3, 3, 0.1), Some(score));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bitwise_oracle_mask_scorer_equals_fast_score(
            seed in 0u64..1_000_000,
            kind in 0usize..4,
            centre in 0.2f64..0.8,
            // Negative thresholds let one pixel be both brighter and
            // darker, where the brighter class must win.
            threshold in -0.05f64..0.15,
            (start, first, gap, second) in (0usize..16, 9usize..17, 1usize..4, 1usize..6),
        ) {
            let mut rng = SovRng::seed_from_u64(seed);
            let (centre, threshold) = (centre as f32, threshold as f32);
            // Classes: 1 brighter, -1 darker, 0 similar. Kind 0 draws each
            // pixel at random; 1 puts one arc of `first` at `start`; 2 adds
            // a second run of the same class after a gap; 3 is all sixteen.
            let class = if rng.next_f64() < 0.5 { 1i8 } else { -1 };
            let mut classes = [0i8; 16];
            for c in &mut classes {
                *c = [1i8, -1, 0][rng.next_u64() as usize % 3];
            }
            if kind >= 1 {
                for i in 0..first {
                    classes[(start + i) % 16] = class;
                }
                if first < 16 {
                    classes[(start + first) % 16] = -class;
                }
            }
            if kind == 2 && first + gap + second <= 16 {
                for i in first + 1..first + gap {
                    classes[(start + i) % 16] = 0;
                }
                for i in 0..second {
                    classes[(start + first + gap + i) % 16] = class;
                }
            }
            if kind == 3 {
                classes = [class; 16];
            }
            // Values just past, exactly at, or inside the threshold.
            let circle: [f32; 16] = classes.map(|c| {
                let past = threshold + [0.0, 1e-3, rng.uniform(0.0, 0.2) as f32][rng.next_u64() as usize % 3];
                match c {
                    1 => centre + past,
                    -1 => centre - past,
                    _ => centre + threshold * rng.uniform(-1.0, 1.0) as f32,
                }
            });
            let img = circle_image(centre, &circle);
            let want = fast_score(&img, 3, 3, threshold).unwrap_or(0.0);
            prop_assert_eq!(row_scores(&img, threshold)[3 * 7 + 3].to_bits(), want.to_bits());
        }

        #[test]
        fn bitwise_oracle_row_scores_equal_fast_score_on_scenes(
            seed in 0u64..5_000,
            w in 7usize..48,
            h in 7usize..24,
            threshold in -0.05f64..0.12,
        ) {
            let mut rng = SovRng::seed_from_u64(seed);
            let blobs: Vec<(f64, f64, f64, f64)> = (0..6)
                .map(|_| (
                    rng.uniform(0.0, w as f64),
                    rng.uniform(0.0, h as f64),
                    rng.uniform(0.8, 3.0),
                    rng.uniform(0.3, 0.9),
                ))
                .collect();
            let img = render_scene(w, h, &blobs, 0.2, &mut rng);
            let threshold = threshold as f32;
            let scores = row_scores(&img, threshold);
            for y in 3..h - 3 {
                for x in 3..w - 3 {
                    let want = fast_score(&img, x as isize, y as isize, threshold).unwrap_or(0.0);
                    prop_assert_eq!(scores[y * w + x].to_bits(), want.to_bits(), "pixel ({}, {})", x, y);
                }
            }
        }
    }

    /// The tracker before blocks and padding: per candidate, one
    /// patch-based [`ncc`](crate::image::ncc) over the square window,
    /// skipping candidates left of or above the image, first best wins.
    fn naive_argmax_track(
        prev: &GrayImage,
        next: &GrayImage,
        points: &[(usize, usize)],
        patch_size: usize,
        search_radius: isize,
        min_ncc: f64,
    ) -> Vec<Option<(usize, usize)>> {
        use crate::image::ncc;
        points
            .iter()
            .map(|&(px, py)| {
                let template = prev.patch(px as isize, py as isize, patch_size);
                let mut best: Option<(usize, usize, f64)> = None;
                for dy in -search_radius..=search_radius {
                    for dx in -search_radius..=search_radius {
                        let (cx, cy) = (px as isize + dx, py as isize + dy);
                        if cx < 0 || cy < 0 {
                            continue;
                        }
                        let corr = ncc(&template, &next.patch(cx, cy, patch_size));
                        if best.is_none_or(|(_, _, c)| corr > c) {
                            best = Some((cx as usize, cy as usize, corr));
                        }
                    }
                }
                best.and_then(|(x, y, c)| (c >= min_ncc).then_some((x, y)))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn bitwise_oracle_tracker_equals_naive_argmax(
            seed in 0u64..5_000,
            w in 8usize..48,
            h in 8usize..40,
            patch_size in 1usize..12,
            search_radius in 0isize..9,
            min_ncc in -0.2f64..0.9,
            lanes in 1usize..4,
        ) {
            let mut rng = SovRng::seed_from_u64(seed);
            let blobs: Vec<(f64, f64, f64, f64)> = (0..4)
                .map(|_| (
                    rng.uniform(0.0, w as f64),
                    rng.uniform(0.0, h as f64),
                    rng.uniform(1.0, 3.0),
                    rng.uniform(0.4, 0.9),
                ))
                .collect();
            let prev = render_scene(w, h, &blobs, 0.2, &mut rng);
            let moved: Vec<(f64, f64, f64, f64)> = blobs
                .iter()
                .map(|&(x, y, r, i)| (x + rng.uniform(-3.0, 3.0), y + rng.uniform(-3.0, 3.0), r, i))
                .collect();
            let next = render_scene(w, h, &moved, 0.2, &mut rng);
            // Points within `patch/2 + radius` of every edge (the corners
            // included), a few inside, and one just past the far corner.
            let near = patch_size / 2 + search_radius as usize;
            let mut points = vec![(0, 0), (w - 1, h - 1), (w + 1, h + 2)];
            for _ in 0..6 {
                let along_x = rng.next_u64() as usize % w;
                let along_y = rng.next_u64() as usize % h;
                let inset = rng.next_u64() as usize % (near + 1);
                points.push((along_x, inset.min(h - 1)));
                points.push((along_x, (h - 1).saturating_sub(inset)));
                points.push((inset.min(w - 1), along_y));
                points.push(((w - 1).saturating_sub(inset), along_y));
                points.push((along_x, along_y));
            }
            let want = naive_argmax_track(&prev, &next, &points, patch_size, search_radius, min_ncc);
            prop_assert_eq!(
                &track_features(&prev, &next, &points, patch_size, search_radius, min_ncc),
                &want
            );
            let pool = WorkerPool::new(lanes);
            prop_assert_eq!(
                &track_features_with(&prev, &next, &points, patch_size, search_radius, min_ncc, Some(&pool)),
                &want
            );
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
