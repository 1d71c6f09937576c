//! Grayscale images and synthetic scene rendering.
//!
//! The dense stereo matcher and the KCF tracker operate on real pixel
//! arrays. Since we have no physical cameras, scenes are *rendered*: each
//! landmark in view becomes a textured Gaussian blob at its projected pixel
//! location, over a low-contrast noise background. Shifting the rendering
//! camera produces geometrically-consistent stereo pairs and tracking
//! sequences.

use sov_math::SovRng;
use sov_runtime::arena::FrameArena;
use sov_runtime::pool::{for_chunks, WorkerPool};

/// Borrows a zeroed `len`-element plane from `arena` (or allocates when no
/// arena is supplied). Zero-filling keeps the arena path bit-identical to
/// the `vec![0.0; len]` path even for writers that skip border pixels.
fn take_plane(arena: Option<&FrameArena>, len: usize) -> Vec<f32> {
    let mut plane = arena.map_or_else(Vec::new, FrameArena::take);
    plane.clear();
    plane.resize(len, 0.0f32);
    plane
}

/// Rows per parallel chunk for image kernels. Fixed (never derived from
/// the worker count) so chunk boundaries — and therefore results — are
/// identical for every pool size.
const ROWS_PER_CHUNK: usize = 8;

/// Minimum image size (pixels) before the streaming kernels (convolution,
/// pyramid subsampling) dispatch to the pool — below this, dispatch
/// overhead dominates the ~ns-per-pixel work. A pure function of input
/// size, so chunking stays deterministic for every lane count.
const MIN_PARALLEL_PIXELS: usize = 1 << 16;

/// Candidates per block in the NCC and SAD kernels
/// ([`NccTemplate::correlate_run`], the dense stereo matcher): sixteen
/// independent accumulator chains advance side by side, two 256-bit
/// vectors of `f32` (four of `f64`), and one block covers the 15
/// candidates of a radius-7 tracker row.
pub(crate) const LANES: usize = 16;

/// A row-major grayscale image of `f32` intensities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Self {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Image width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel intensity at `(x, y)`; returns 0.0 outside bounds.
    #[must_use]
    pub fn get(&self, x: isize, y: isize) -> f32 {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return 0.0;
        }
        self.data[y as usize * self.width + x as usize]
    }

    /// Sets pixel intensity (clamped to `[0, 1]`); ignores out-of-bounds.
    pub fn set(&mut self, x: isize, y: isize, value: f32) {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return;
        }
        self.data[y as usize * self.width + x as usize] = value.clamp(0.0, 1.0);
    }

    /// Adds to a pixel (clamped); ignores out-of-bounds.
    pub fn add(&mut self, x: isize, y: isize, value: f32) {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return;
        }
        let px = &mut self.data[y as usize * self.width + x as usize];
        *px = (*px + value).clamp(0.0, 1.0);
    }

    /// Raw data slice (row-major).
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Builds an image from raw row-major data (values are clamped to
    /// `[0, 1]`, preserving the image invariant).
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `data.len() != width * height`.
    #[must_use]
    pub fn from_raw(width: usize, height: usize, mut data: Vec<f32>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        assert_eq!(data.len(), width * height, "data must fill the image");
        for v in &mut data {
            *v = v.clamp(0.0, 1.0);
        }
        Self {
            width,
            height,
            data,
        }
    }

    /// Extracts a `size × size` patch centered at `(cx, cy)`; pixels outside
    /// the image read as 0.
    #[must_use]
    pub fn patch(&self, cx: isize, cy: isize, size: usize) -> GrayImage {
        let mut out = GrayImage::new(size, size);
        let half = (size / 2) as isize;
        for y in 0..size as isize {
            for x in 0..size as isize {
                out.set(x, y, self.get(cx - half + x, cy - half + y));
            }
        }
        out
    }

    /// A copy of the image inside a zero border of `left`, `top`, `right`
    /// and `bottom` pixels, so a window that pokes past an edge reads the
    /// 0.0 that [`GrayImage::get`] returns there from a contiguous row.
    /// The plane is borrowed from `arena` when supplied; recycle it via
    /// [`GrayImage::into_raw`].
    #[must_use]
    pub(crate) fn padded(
        &self,
        [left, top, right, bottom]: [usize; 4],
        arena: Option<&FrameArena>,
    ) -> GrayImage {
        let width = left + self.width + right;
        let height = top + self.height + bottom;
        let mut data = take_plane(arena, width * height);
        for (src, dst) in self
            .data
            .chunks_exact(self.width)
            .zip(data[top * width..].chunks_exact_mut(width))
        {
            dst[left..left + self.width].copy_from_slice(src);
        }
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Consumes the image, returning its backing buffer so per-frame
    /// pipelines can [`FrameArena::recycle`] it (the same discipline as
    /// `DisparityMap::into_raw`).
    #[must_use]
    pub fn into_raw(self) -> Vec<f32> {
        self.data
    }

    /// Mean intensity.
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }
}

/// Renders a textured scene: background noise plus Gaussian blobs.
///
/// Each blob is `(center_x, center_y, radius_px, intensity)`. The same blob
/// list rendered with shifted centers produces a consistent stereo pair.
#[must_use]
pub fn render_scene(
    width: usize,
    height: usize,
    blobs: &[(f64, f64, f64, f64)],
    background_noise: f32,
    rng: &mut SovRng,
) -> GrayImage {
    let mut img = GrayImage::new(width, height);
    // Low-contrast background texture.
    for y in 0..height as isize {
        for x in 0..width as isize {
            img.set(x, y, 0.2 + background_noise * rng.next_f64() as f32);
        }
    }
    for &(cx, cy, radius, intensity) in blobs {
        let r = radius.max(0.5);
        let span = (3.0 * r).ceil() as isize;
        let (icx, icy) = (cx.round() as isize, cy.round() as isize);
        for dy in -span..=span {
            for dx in -span..=span {
                let d2 = ((icx + dx) as f64 - cx).powi(2) + ((icy + dy) as f64 - cy).powi(2);
                let v = intensity * (-d2 / (2.0 * r * r)).exp();
                img.add(icx + dx, icy + dy, v as f32);
            }
        }
    }
    img
}

/// 3×3 convolution with zero padding (pixels outside the image read 0, as
/// in [`GrayImage::get`]); outputs are clamped to `[0, 1]`.
///
/// With a pool, rows are processed in fixed chunks of [`ROWS_PER_CHUNK`];
/// every output row reads only the (immutable) input, so the result is
/// bit-identical to the serial pass at any worker count.
#[must_use]
pub fn convolve3x3(
    image: &GrayImage,
    kernel: &[[f32; 3]; 3],
    pool: Option<&WorkerPool>,
) -> GrayImage {
    convolve3x3_with(image, kernel, pool, None)
}

/// [`convolve3x3`] with the output plane borrowed from a [`FrameArena`];
/// recycle it after use via [`GrayImage::into_raw`].
#[must_use]
pub fn convolve3x3_with(
    image: &GrayImage,
    kernel: &[[f32; 3]; 3],
    pool: Option<&WorkerPool>,
    arena: Option<&FrameArena>,
) -> GrayImage {
    let (w, h) = (image.width(), image.height());
    // Below ~2 ns/pixel of work, waking workers costs more than the
    // convolution itself; the threshold depends only on the input size
    // (never the lane count) and the serial path runs identical chunks,
    // so the gate cannot change the output.
    let pool = pool.filter(|_| w * h >= MIN_PARALLEL_PIXELS);
    let mut out = take_plane(arena, w * h);
    for_chunks(pool, &mut out, ROWS_PER_CHUNK * w, |start, rows| {
        let y0 = start / w;
        for (dy, row) in rows.chunks_mut(w).enumerate() {
            let y = (y0 + dy) as isize;
            for (x, px) in row.iter_mut().enumerate() {
                let x = x as isize;
                let mut acc = 0.0f32;
                for (ky, kr) in kernel.iter().enumerate() {
                    for (kx, k) in kr.iter().enumerate() {
                        acc += k * image.get(x + kx as isize - 1, y + ky as isize - 1);
                    }
                }
                *px = acc;
            }
        }
    });
    GrayImage::from_raw(w, h, out)
}

/// The 3×3 binomial smoothing kernel (1-2-1 ⊗ 1-2-1, normalized).
pub const SMOOTH_3X3: [[f32; 3]; 3] = [
    [1.0 / 16.0, 2.0 / 16.0, 1.0 / 16.0],
    [2.0 / 16.0, 4.0 / 16.0, 2.0 / 16.0],
    [1.0 / 16.0, 2.0 / 16.0, 1.0 / 16.0],
];

/// Builds an image pyramid: level 0 is a smoothed copy of `image`, and
/// each further level halves both dimensions by 2×2 box averaging of the
/// previous level (smooth-then-subsample, the camera front-end's
/// multi-scale substrate).
///
/// Stops early when a dimension would fall below 2 px. Deterministic for
/// any pool size (row-chunked, read-only inputs).
#[must_use]
pub fn pyramid(image: &GrayImage, levels: usize, pool: Option<&WorkerPool>) -> Vec<GrayImage> {
    pyramid_with(image, levels, pool, None)
}

/// [`pyramid`] with every level's plane borrowed from a [`FrameArena`]; a
/// per-frame caller recycles the levels via [`GrayImage::into_raw`] so the
/// steady state allocates nothing.
#[must_use]
pub fn pyramid_with(
    image: &GrayImage,
    levels: usize,
    pool: Option<&WorkerPool>,
    arena: Option<&FrameArena>,
) -> Vec<GrayImage> {
    let mut out = Vec::with_capacity(levels);
    out.push(convolve3x3_with(image, &SMOOTH_3X3, pool, arena));
    for _ in 1..levels {
        let prev = out.last().expect("level 0 pushed above");
        let (w, h) = (prev.width() / 2, prev.height() / 2);
        if w < 2 || h < 2 {
            break;
        }
        let mut data = take_plane(arena, w * h);
        let pool = pool.filter(|_| w * h >= MIN_PARALLEL_PIXELS);
        for_chunks(pool, &mut data, ROWS_PER_CHUNK * w, |start, rows| {
            let y0 = start / w;
            for (dy, row) in rows.chunks_mut(w).enumerate() {
                let y = y0 + dy;
                for (x, px) in row.iter_mut().enumerate() {
                    let (sx, sy) = (2 * x as isize, 2 * y as isize);
                    *px = 0.25
                        * (prev.get(sx, sy)
                            + prev.get(sx + 1, sy)
                            + prev.get(sx, sy + 1)
                            + prev.get(sx + 1, sy + 1));
                }
            }
        });
        out.push(GrayImage::from_raw(w, h, data));
    }
    out
}

/// Normalized cross-correlation of two equally-sized images, in `[-1, 1]`.
///
/// Returns 0.0 if either image has zero variance.
///
/// # Panics
///
/// Panics if the images have different dimensions.
#[must_use]
pub fn ncc(a: &GrayImage, b: &GrayImage) -> f64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "ncc requires equal dimensions"
    );
    let ma = f64::from(a.mean());
    let mb = f64::from(b.mean());
    let (mut num, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (pa, pb) in a.data().iter().zip(b.data()) {
        let da = f64::from(*pa) - ma;
        let db = f64::from(*pb) - mb;
        num += da * db;
        va += da * da;
        vb += db * db;
    }
    if va < 1e-12 || vb < 1e-12 {
        return 0.0;
    }
    num / (va.sqrt() * vb.sqrt())
}

/// Normalized cross-correlation of two `size × size` windows centered at
/// `(acx, acy)` in `a` and `(bcx, bcy)` in `b`, **without materializing
/// patches**.
///
/// Bit-identical to `ncc(&a.patch(acx, acy, size), &b.patch(bcx, bcy,
/// size))`: windows are read in the same row-major order, through the same
/// zero-padding and `[0, 1]` clamp that [`GrayImage::patch`] applies, the
/// means are accumulated in `f32` exactly as [`GrayImage::mean`] does, and
/// the correlation accumulates in `f64` in the same element order. The
/// only difference is that no heap allocation happens — this is the
/// arena-era replacement for the patch-per-candidate tracker hot loop.
#[must_use]
pub fn ncc_window(
    a: &GrayImage,
    (acx, acy): (isize, isize),
    b: &GrayImage,
    (bcx, bcy): (isize, isize),
    size: usize,
) -> f64 {
    NccTemplate::new(a, (acx, acy), size).correlate(b, (bcx, bcy))
}

/// Reads a `size × size` window centered at `(cx, cy)` into `out`
/// (row-major), applying the same zero-padding and `[0, 1]` clamp that
/// [`GrayImage::patch`] applies. Windows fully inside the image are copied
/// row-by-row from the backing slice — every write path already clamps
/// stored pixels to `[0, 1]`, so skipping the clamp there is bitwise
/// equivalent.
fn read_window(img: &GrayImage, (cx, cy): (isize, isize), size: usize, out: &mut Vec<f32>) {
    out.clear();
    let half = (size / 2) as isize;
    let (x0, y0) = (cx - half, cy - half);
    let (w, h) = (img.width() as isize, img.height() as isize);
    if x0 >= 0 && y0 >= 0 && x0 + size as isize <= w && y0 + size as isize <= h {
        let (w, x0, y0) = (img.width(), x0 as usize, y0 as usize);
        for y in 0..size {
            out.extend_from_slice(&img.data()[(y0 + y) * w + x0..][..size]);
        }
        return;
    }
    for y in 0..size as isize {
        for x in 0..size as isize {
            out.push(img.get(x0 + x, y0 + y).clamp(0.0, 1.0));
        }
    }
}

/// A template window with its NCC statistics hoisted, for correlating one
/// window against many candidate positions — the tracker's hot loop.
///
/// [`NccTemplate::correlate`] is bit-identical to [`ncc_window`] (and so
/// to patch-based [`ncc`]): the window values are read through the same
/// padding/clamp semantics, the means accumulate in `f32` in the same
/// row-major order, and each `f64` accumulator (numerator, template
/// variance, candidate variance) sums the same terms in the same order —
/// hoisting the template's zero-mean residuals moves work between loops
/// but never reorders any single accumulator's additions.
#[derive(Debug, Clone)]
pub struct NccTemplate {
    /// Zero-mean template residuals, row-major.
    da: Vec<f64>,
    /// Template variance (Σ da²), accumulated in template order.
    va: f64,
    size: usize,
    /// Scratch for candidate window values, reused across correlations.
    scratch: std::cell::RefCell<Vec<f32>>,
}

impl NccTemplate {
    /// Hoists the NCC statistics of the `size × size` window centered at
    /// `(acx, acy)` in `a`.
    #[must_use]
    pub fn new(a: &GrayImage, (acx, acy): (isize, isize), size: usize) -> Self {
        let mut vals = Vec::with_capacity(size * size);
        read_window(a, (acx, acy), size, &mut vals);
        let n = (size * size) as f32;
        let sa: f32 = vals.iter().fold(0.0, |s, &v| s + v);
        let ma = f64::from(sa / n);
        let mut va = 0.0f64;
        let da: Vec<f64> = vals
            .iter()
            .map(|&v| {
                let d = f64::from(v) - ma;
                va += d * d;
                d
            })
            .collect();
        Self {
            da,
            va,
            size,
            scratch: std::cell::RefCell::new(Vec::with_capacity(size * size)),
        }
    }

    /// NCC of the template against the window centered at `(bcx, bcy)`
    /// in `b`; bit-identical to the corresponding [`ncc_window`] call.
    #[must_use]
    pub fn correlate(&self, b: &GrayImage, (bcx, bcy): (isize, isize)) -> f64 {
        let size = self.size;
        let n = (size * size) as f32;
        let half = (size / 2) as isize;
        let (x0, y0) = (bcx - half, bcy - half);
        let (bw, bh) = (b.width() as isize, b.height() as isize);
        let (mut sb, mut num, mut vb) = (0.0f32, 0.0f64, 0.0f64);
        if x0 >= 0 && y0 >= 0 && x0 + size as isize <= bw && y0 + size as isize <= bh {
            // Interior window: both passes run over contiguous rows in the
            // same row-major order the scratch path uses.
            let (w, x0, y0) = (b.width(), x0 as usize, y0 as usize);
            for y in 0..size {
                for &v in &b.data()[(y0 + y) * w + x0..][..size] {
                    sb += v;
                }
            }
            let mb = f64::from(sb / n);
            for y in 0..size {
                let row = &b.data()[(y0 + y) * w + x0..][..size];
                for (da, &v) in self.da[y * size..(y + 1) * size].iter().zip(row) {
                    let db = f64::from(v) - mb;
                    num += da * db;
                    vb += db * db;
                }
            }
        } else {
            let mut vals = self.scratch.borrow_mut();
            read_window(b, (bcx, bcy), size, &mut vals);
            sb = vals.iter().fold(0.0, |s, &v| s + v);
            let mb = f64::from(sb / n);
            for (da, &v) in self.da.iter().zip(vals.iter()) {
                let db = f64::from(v) - mb;
                num += da * db;
                vb += db * db;
            }
        }
        if self.va < 1e-12 || vb < 1e-12 {
            return 0.0;
        }
        num / (self.va.sqrt() * vb.sqrt())
    }

    /// Correlates the template against a horizontal run of candidate
    /// centers `(bx0 + k, bcy)` for `k in 0..out.len()`, writing each NCC
    /// into `out[k]`.
    ///
    /// Bit-identical to calling [`NccTemplate::correlate`] once per
    /// center. A lone NCC is bound by its floating-point add chains, so
    /// the run is evaluated in blocks of sixteen adjacent candidates
    /// whose chains advance side by side: each lane still adds its own
    /// terms in the serial row-major order, so no single accumulator is
    /// reordered. The last block ends at the run's end, overlapping the
    /// one before it (the shared lanes are recomputed to the same bits),
    /// and a run shorter than one block evaluates a whole block and keeps
    /// its first lanes — so every candidate takes the same path. When the
    /// blocks' footprint leaves `b`, it is first gathered into a
    /// zero-padded scratch window, reading the 0.0 that
    /// [`GrayImage::get`] returns there.
    pub fn correlate_run(&self, b: &GrayImage, (bx0, bcy): (isize, isize), out: &mut [f64]) {
        let (n, size) = (out.len(), self.size);
        if n == 0 || size == 0 {
            // An empty window has no variance: `correlate` reads 0.0.
            out.fill(0.0);
            return;
        }
        let half = (size / 2) as isize;
        let (x0, y0) = (bx0 - half, bcy - half);
        let span = n.max(LANES) + size - 1;
        let inside = x0 >= 0
            && y0 >= 0
            && x0 as usize + span <= b.width()
            && y0 as usize + size <= b.height();
        let mut gathered = self.scratch.borrow_mut();
        let (data, stride) = if inside {
            let start = y0 as usize * b.width() + x0 as usize;
            (&b.data()[start..], b.width())
        } else {
            gathered.clear();
            for y in 0..size as isize {
                gathered.extend((0..span as isize).map(|x| b.get(x0 + x, y0 + y)));
            }
            (&gathered[..], span)
        };
        let mut k = 0;
        while k < n {
            let start = k.min(n.saturating_sub(LANES));
            let block = self.correlate_block(&data[start..], stride);
            let lanes = LANES.min(n - start);
            out[start..start + lanes].copy_from_slice(&block[..lanes]);
            k = start + LANES;
        }
    }

    /// NCC against the [`LANES`] adjacent windows whose top-left pixels
    /// are `data[0..LANES]`, image rows `stride` apart. Lane `j` adds
    /// exactly the terms, in exactly the order, of
    /// [`NccTemplate::correlate`] on window `j`, and no lane branches.
    fn correlate_block(&self, data: &[f32], stride: usize) -> [f64; LANES] {
        let size = self.size;
        let n = (size * size) as f32;
        let rows = || (0..size).map(|y| &data[y * stride..][..size + LANES - 1]);
        let mut sb = [0.0f32; LANES];
        for row in rows() {
            for window in row.windows(LANES) {
                sb = std::array::from_fn(|lane| sb[lane] + window[lane]);
            }
        }
        let mb = sb.map(|s| f64::from(s / n));
        let (mut num, mut vb) = ([0.0f64; LANES], [0.0f64; LANES]);
        for (y, row) in rows().enumerate() {
            for (window, &da) in row.windows(LANES).zip(&self.da[y * size..][..size]) {
                let db: [f64; LANES] =
                    std::array::from_fn(|lane| f64::from(window[lane]) - mb[lane]);
                num = std::array::from_fn(|lane| num[lane] + da * db[lane]);
                vb = std::array::from_fn(|lane| vb[lane] + db[lane] * db[lane]);
            }
        }
        // Every lane divides; a zero-variance lane then selects 0.0.
        let sa = self.va.sqrt();
        std::array::from_fn(|lane| {
            let corr = num[lane] / (sa * vb[lane].sqrt());
            if (self.va < 1e-12) | (vb[lane] < 1e-12) {
                0.0
            } else {
                corr
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sov_testkit::prelude::*;

    #[test]
    fn get_set_roundtrip_and_bounds() {
        let mut img = GrayImage::new(8, 4);
        img.set(3, 2, 0.7);
        assert!((img.get(3, 2) - 0.7).abs() < 1e-6);
        assert_eq!(img.get(-1, 0), 0.0);
        assert_eq!(img.get(8, 0), 0.0);
        img.set(100, 100, 1.0); // silently ignored
        img.set(2, 2, 5.0);
        assert_eq!(img.get(2, 2), 1.0, "clamped to [0,1]");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_panics() {
        let _ = GrayImage::new(0, 4);
    }

    #[test]
    fn patch_extraction() {
        let mut img = GrayImage::new(16, 16);
        img.set(8, 8, 1.0);
        let p = img.patch(8, 8, 5);
        assert_eq!(p.width(), 5);
        assert_eq!(p.get(2, 2), 1.0, "center of patch is source center");
        // Patch at the border zero-pads.
        let edge = img.patch(0, 0, 5);
        assert_eq!(edge.get(0, 0), 0.0);
    }

    #[test]
    fn render_scene_places_blobs() {
        let mut rng = SovRng::seed_from_u64(1);
        let img = render_scene(64, 64, &[(32.0, 32.0, 2.0, 0.8)], 0.05, &mut rng);
        let center = img.get(32, 32);
        let corner = img.get(2, 2);
        assert!(center > corner + 0.3, "blob should dominate background");
    }

    #[test]
    fn ncc_detects_identical_and_shifted() {
        let mut rng = SovRng::seed_from_u64(2);
        let img = render_scene(32, 32, &[(16.0, 16.0, 3.0, 0.9)], 0.1, &mut rng);
        assert!((ncc(&img, &img) - 1.0).abs() < 1e-9);
        let shifted = img.patch(20, 16, 32);
        let same = img.patch(16, 16, 32);
        assert!(ncc(&img, &same) > ncc(&img, &shifted));
    }

    #[test]
    fn ncc_zero_variance_is_zero() {
        let flat = GrayImage::new(8, 8);
        let other = GrayImage::new(8, 8);
        assert_eq!(ncc(&flat, &other), 0.0);
    }

    #[test]
    fn from_raw_roundtrip_and_clamp() {
        let img = GrayImage::from_raw(2, 2, vec![0.1, 0.5, 2.0, -1.0]);
        assert_eq!(img.get(0, 0), 0.1);
        assert_eq!(img.get(0, 1), 1.0, "clamped high");
        assert_eq!(img.get(1, 1), 0.0, "clamped low");
    }

    #[test]
    #[should_panic(expected = "fill the image")]
    fn from_raw_wrong_len_panics() {
        let _ = GrayImage::from_raw(3, 3, vec![0.0; 8]);
    }

    #[test]
    fn convolution_identity_and_smoothing() {
        let mut rng = SovRng::seed_from_u64(9);
        let img = render_scene(40, 24, &[(20.0, 12.0, 2.0, 0.9)], 0.2, &mut rng);
        let identity = [[0.0; 3], [0.0, 1.0, 0.0], [0.0; 3]];
        let same = convolve3x3(&img, &identity, None);
        assert_eq!(same, img);
        // Smoothing reduces total variation.
        let tv = |im: &GrayImage| -> f32 {
            let mut t = 0.0;
            for y in 0..im.height() as isize {
                for x in 1..im.width() as isize {
                    t += (im.get(x, y) - im.get(x - 1, y)).abs();
                }
            }
            t
        };
        let smooth = convolve3x3(&img, &SMOOTH_3X3, None);
        assert!(tv(&smooth) < tv(&img));
    }

    #[test]
    fn convolution_pooled_is_bit_identical() {
        use sov_runtime::pool::WorkerPool;
        let mut rng = SovRng::seed_from_u64(10);
        let img = render_scene(61, 47, &[(30.0, 20.0, 3.0, 0.8)], 0.3, &mut rng);
        let serial = convolve3x3(&img, &SMOOTH_3X3, None);
        for lanes in [1, 2, 4, 8] {
            let pool = WorkerPool::new(lanes);
            assert_eq!(convolve3x3(&img, &SMOOTH_3X3, Some(&pool)), serial);
        }
    }

    #[test]
    fn pyramid_halves_dimensions() {
        let mut rng = SovRng::seed_from_u64(11);
        let img = render_scene(64, 48, &[(32.0, 24.0, 4.0, 0.9)], 0.1, &mut rng);
        let levels = pyramid(&img, 3, None);
        assert_eq!(levels.len(), 3);
        assert_eq!((levels[1].width(), levels[1].height()), (32, 24));
        assert_eq!((levels[2].width(), levels[2].height()), (16, 12));
        // Downsampling preserves gross brightness.
        assert!((levels[0].mean() - levels[2].mean()).abs() < 0.05);
        // Tiny images stop early rather than degenerate.
        let tiny = pyramid(&GrayImage::new(5, 5), 4, None);
        assert!(tiny.len() < 4);
    }

    #[test]
    fn pyramid_pooled_is_bit_identical() {
        use sov_runtime::pool::WorkerPool;
        let mut rng = SovRng::seed_from_u64(12);
        let img = render_scene(63, 49, &[(20.0, 20.0, 3.0, 0.7)], 0.2, &mut rng);
        let serial = pyramid(&img, 3, None);
        let pool = WorkerPool::new(4);
        assert_eq!(pyramid(&img, 3, Some(&pool)), serial);
    }

    #[test]
    fn arena_backed_pyramid_is_bit_identical_and_allocation_free() {
        let arena = FrameArena::new();
        let mut rng = SovRng::seed_from_u64(14);
        let img = render_scene(63, 49, &[(20.0, 20.0, 3.0, 0.7)], 0.2, &mut rng);
        let reference = pyramid(&img, 3, None);
        // Warm the arena with one frame's worth of planes, then recycle.
        for level in pyramid_with(&img, 3, None, Some(&arena)) {
            arena.recycle(level.into_raw());
        }
        arena.reset_stats();
        for _ in 0..3 {
            let levels = pyramid_with(&img, 3, None, Some(&arena));
            assert_eq!(levels, reference);
            for level in levels {
                arena.recycle(level.into_raw());
            }
        }
        let stats = arena.stats();
        assert_eq!(stats.allocations, 0, "steady state must not allocate");
        assert!(stats.reuses >= 9, "every plane should come from the arena");
    }

    #[test]
    fn ncc_window_matches_patch_based_ncc() {
        let mut rng = SovRng::seed_from_u64(13);
        let a = render_scene(48, 32, &[(24.0, 16.0, 3.0, 0.9)], 0.3, &mut rng);
        let b = render_scene(48, 32, &[(26.0, 17.0, 3.0, 0.9)], 0.3, &mut rng);
        for &(acx, acy, bcx, bcy, size) in &[
            (24isize, 16isize, 26isize, 17isize, 9usize),
            (0, 0, 47, 31, 7),    // zero-padded borders
            (-3, -3, 50, 40, 5),  // fully/partially outside
            (10, 10, 10, 10, 11), // self-comparison
        ] {
            let via_patches = ncc(&a.patch(acx, acy, size), &b.patch(bcx, bcy, size));
            let direct = ncc_window(&a, (acx, acy), &b, (bcx, bcy), size);
            assert_eq!(
                direct.to_bits(),
                via_patches.to_bits(),
                "window ({acx},{acy})↔({bcx},{bcy}) size {size}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn bitwise_oracle_correlate_run_equals_per_candidate_ncc(
            seed in 0u64..5_000,
            w in 6usize..48,
            h in 6usize..40,
            size in 0usize..12,
            template in (0usize..1_000, 0usize..1_000),
            start in (0usize..1_000, 0usize..1_000),
            run in 0usize..41,
        ) {
            let mut rng = SovRng::seed_from_u64(seed);
            let blob = |rng: &mut SovRng| {
                (rng.uniform(0.0, w as f64), rng.uniform(0.0, h as f64), 3.0, 0.9)
            };
            let blobs = [blob(&mut rng), blob(&mut rng)];
            let a = render_scene(w, h, &blobs, 0.4, &mut rng);
            let b = render_scene(w, h, &blobs, 0.4, &mut rng);
            // Template and run anywhere from `size` px before the image to
            // `size` px past it: runs inside, across every border, and
            // wholly outside.
            let reach = |v: usize, len: usize| (v % (len + 2 * size)) as isize - size as isize;
            let tpl = NccTemplate::new(&a, (reach(template.0, w), reach(template.1, h)), size);
            let (bx0, bcy) = (reach(start.0, w) - run as isize / 2, reach(start.1, h));
            let mut out = vec![f64::NAN; run];
            tpl.correlate_run(&b, (bx0, bcy), &mut out);
            for (k, got) in out.iter().enumerate() {
                let want = tpl.correlate(&b, (bx0 + k as isize, bcy));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "candidate {} of {}", k, run);
            }
        }
    }

    #[test]
    fn deterministic_rendering() {
        let mut r1 = SovRng::seed_from_u64(3);
        let mut r2 = SovRng::seed_from_u64(3);
        let a = render_scene(16, 16, &[(8.0, 8.0, 1.5, 0.5)], 0.1, &mut r1);
        let b = render_scene(16, 16, &[(8.0, 8.0, 1.5, 0.5)], 0.1, &mut r2);
        assert_eq!(a, b);
    }
}
