//! Property-based tests for perception.

use sov_math::SovRng;
use sov_perception::image::{ncc, render_scene, GrayImage};
use sov_perception::signal::{fft, ifft, Complex, Spectrum2d};
use sov_testkit::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_roundtrip_random_signals(
        values in prop::collection::vec(-10.0f64..10.0, 1..7),
    ) {
        // Pad to the next power of two.
        let n = values.len().next_power_of_two().max(2);
        let mut data: Vec<Complex> = values.iter().map(|&v| Complex::new(v, 0.0)).collect();
        data.resize(n, Complex::ZERO);
        let original = data.clone();
        fft(&mut data);
        ifft(&mut data);
        for (a, b) in data.iter().zip(&original) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
            prop_assert!(a.im.abs() < 1e-9);
        }
    }

    #[test]
    fn fft_is_linear(seed in 0u64..5_000, alpha in -3.0f64..3.0) {
        let mut rng = SovRng::seed_from_u64(seed);
        let a: Vec<Complex> = (0..16).map(|_| Complex::new(rng.uniform(-1.0, 1.0), 0.0)).collect();
        let b: Vec<Complex> = (0..16).map(|_| Complex::new(rng.uniform(-1.0, 1.0), 0.0)).collect();
        let combo: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x * alpha + *y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fc = combo;
        fft(&mut fa);
        fft(&mut fb);
        fft(&mut fc);
        for i in 0..16 {
            let expected = fa[i] * alpha + fb[i];
            prop_assert!((fc[i].re - expected.re).abs() < 1e-9);
            prop_assert!((fc[i].im - expected.im).abs() < 1e-9);
        }
    }

    #[test]
    fn ncc_is_bounded_and_symmetric(seed in 0u64..5_000) {
        let mut rng = SovRng::seed_from_u64(seed);
        let blobs_a = [(rng.uniform(4.0, 28.0), rng.uniform(4.0, 28.0), 2.0, 0.8)];
        let blobs_b = [(rng.uniform(4.0, 28.0), rng.uniform(4.0, 28.0), 2.0, 0.8)];
        let a = render_scene(32, 32, &blobs_a, 0.1, &mut rng);
        let b = render_scene(32, 32, &blobs_b, 0.1, &mut rng);
        let ab = ncc(&a, &b);
        let ba = ncc(&b, &a);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((ncc(&a, &a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn patch_is_always_requested_size(
        cx in -10isize..70,
        cy in -10isize..70,
        size in 1usize..33,
    ) {
        let img = GrayImage::new(64, 48);
        let p = img.patch(cx, cy, size);
        prop_assert_eq!(p.width(), size);
        prop_assert_eq!(p.height(), size);
    }

    #[test]
    fn spectrum_hadamard_matches_elementwise(seed in 0u64..5_000) {
        let mut rng = SovRng::seed_from_u64(seed);
        let samples_a: Vec<f32> = (0..64).map(|_| rng.uniform(0.0, 1.0) as f32).collect();
        let samples_b: Vec<f32> = (0..64).map(|_| rng.uniform(0.0, 1.0) as f32).collect();
        let a = Spectrum2d::from_real(8, 8, &samples_a);
        let b = Spectrum2d::from_real(8, 8, &samples_b);
        let h = a.hadamard(&b);
        for y in 0..8 {
            for x in 0..8 {
                let expected = a.get(x, y) * b.get(x, y);
                prop_assert!((h.get(x, y).re - expected.re).abs() < 1e-12);
            }
        }
    }
}

use sov_math::Pose2;
use sov_perception::maploc::{MapLocConfig, MapLocalizer};
use sov_perception::vio::{FrameKind, VisualDelta};
use sov_sim::time::SimTime;
use sov_world::landmark::LandmarkField;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn maploc_covariance_stays_pd_under_random_motion(
        seed in 0u64..2_000,
        steps in 1usize..40,
    ) {
        let mut rng = SovRng::seed_from_u64(seed);
        let field = LandmarkField::generate(200, (-30.0, 30.0, -30.0, 30.0), &mut rng);
        let mut loc = MapLocalizer::new(&field, Pose2::identity(), MapLocConfig::default());
        for k in 0..steps {
            loc.propagate(&VisualDelta {
                t_from: SimTime::from_millis(k as u64 * 33),
                t_to: SimTime::from_millis((k as u64 + 1) * 33),
                forward_m: rng.uniform(0.0, 0.3),
                lateral_m: rng.uniform(-0.05, 0.05),
                dtheta: rng.uniform(-0.05, 0.05),
                kind: FrameKind::Tracked,
            });
            prop_assert!(loc.covariance().is_positive_definite());
        }
    }
}

// Determinism invariant of the intra-frame layer: every pooled perception
// kernel is bit-identical to its serial form for any worker count 1–8.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pooled_convolution_and_pyramid_bit_identical(
        w in 16usize..96,
        h in 16usize..64,
        seed in 0u64..5_000,
        lanes in 1usize..9,
    ) {
        use sov_perception::image::{convolve3x3, pyramid, SMOOTH_3X3};
        let mut rng = SovRng::seed_from_u64(seed);
        let img = render_scene(
            w,
            h,
            &[(w as f64 / 2.0, h as f64 / 2.0, 3.0, 0.8)],
            0.3,
            &mut rng,
        );
        let pool = sov_runtime::pool::WorkerPool::new(lanes);
        prop_assert_eq!(
            convolve3x3(&img, &SMOOTH_3X3, Some(&pool)),
            convolve3x3(&img, &SMOOTH_3X3, None)
        );
        prop_assert_eq!(pyramid(&img, 3, Some(&pool)), pyramid(&img, 3, None));
    }

    #[test]
    fn ncc_window_matches_patch_ncc_everywhere(
        seed in 0u64..5_000,
        acx in -5isize..64,
        acy in -5isize..48,
        bcx in -5isize..64,
        bcy in -5isize..48,
        half in 1usize..7,
    ) {
        use sov_perception::image::ncc_window;
        let mut rng = SovRng::seed_from_u64(seed);
        let a = render_scene(60, 44, &[(30.0, 22.0, 4.0, 0.9)], 0.4, &mut rng);
        let b = render_scene(60, 44, &[(28.0, 20.0, 4.0, 0.9)], 0.4, &mut rng);
        let size = 2 * half + 1;
        let direct = ncc_window(&a, (acx, acy), &b, (bcx, bcy), size);
        let via_patches = ncc(&a.patch(acx, acy, size), &b.patch(bcx, bcy, size));
        prop_assert_eq!(direct.to_bits(), via_patches.to_bits());
    }

    #[test]
    fn pooled_corner_detection_and_tracking_bit_identical(
        seed in 0u64..5_000,
        lanes in 1usize..9,
    ) {
        use sov_perception::features::{
            fast_corners, fast_corners_with, track_features, track_features_with,
        };
        let mut rng = SovRng::seed_from_u64(seed);
        let prev = render_scene(80, 60, &[(40.0, 30.0, 5.0, 0.9), (20.0, 15.0, 3.0, 0.7)], 0.2, &mut rng);
        let next = render_scene(80, 60, &[(43.0, 31.0, 5.0, 0.9), (23.0, 16.0, 3.0, 0.7)], 0.2, &mut rng);
        let pool = sov_runtime::pool::WorkerPool::new(lanes);
        let corners = fast_corners(&prev, 0.15);
        prop_assert_eq!(fast_corners_with(&prev, 0.15, Some(&pool), None), corners.clone());
        let points: Vec<(usize, usize)> = corners.iter().map(|c| (c.x, c.y)).collect();
        prop_assert_eq!(
            track_features_with(&prev, &next, &points, 7, 5, 0.5, Some(&pool)),
            track_features(&prev, &next, &points, 7, 5, 0.5)
        );
    }
}
