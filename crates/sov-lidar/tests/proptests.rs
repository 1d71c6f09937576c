//! Property-based tests for the point-cloud substrate.

use sov_lidar::cloud::{dist_sq, PointCloud};
use sov_lidar::kdtree::KdTree;
use sov_lidar::reconstruction::VoxelGrid;
use sov_math::SovRng;
use sov_testkit::prelude::*;

fn random_cloud(n: usize, seed: u64) -> PointCloud {
    let mut rng = SovRng::seed_from_u64(seed);
    PointCloud::from_points(
        (0..n)
            .map(|_| {
                [
                    rng.uniform(-20.0, 20.0),
                    rng.uniform(-20.0, 20.0),
                    rng.uniform(0.0, 8.0),
                ]
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kdtree_nearest_matches_brute_force(
        n in 1usize..300,
        seed in 0u64..5_000,
        qx in -25.0f64..25.0,
        qy in -25.0f64..25.0,
        qz in -2.0f64..10.0,
    ) {
        let cloud = random_cloud(n, seed);
        let tree = KdTree::build(&cloud);
        let q = [qx, qy, qz];
        let (_, tree_dist) = tree.nearest(&q).expect("non-empty");
        let brute = cloud
            .points()
            .iter()
            .map(|p| dist_sq(&q, p).sqrt())
            .fold(f64::INFINITY, f64::min);
        prop_assert!((tree_dist - brute).abs() < 1e-9);
    }

    #[test]
    fn kdtree_radius_matches_brute_force(
        n in 1usize..200,
        seed in 0u64..5_000,
        r in 0.1f64..15.0,
    ) {
        let cloud = random_cloud(n, seed);
        let tree = KdTree::build(&cloud);
        let q = [0.0, 0.0, 4.0];
        let mut found = tree.radius_search(&q, r);
        found.sort_unstable();
        let mut brute: Vec<usize> = cloud
            .points()
            .iter()
            .enumerate()
            .filter(|(_, p)| dist_sq(&q, p) <= r * r)
            .map(|(i, _)| i)
            .collect();
        brute.sort_unstable();
        prop_assert_eq!(found, brute);
    }

    #[test]
    fn knn_distances_sorted_and_correct_count(
        n in 1usize..200,
        seed in 0u64..5_000,
        k in 1usize..30,
    ) {
        let cloud = random_cloud(n, seed);
        let tree = KdTree::build(&cloud);
        let knn = tree.k_nearest(&[1.0, -1.0, 3.0], k);
        prop_assert_eq!(knn.len(), k.min(n));
        for w in knn.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn knn_heap_matches_brute_force_exactly(
        n in 1usize..250,
        seed in 0u64..5_000,
        k in 1usize..40,
        qx in -25.0f64..25.0,
        qy in -25.0f64..25.0,
        qz in -2.0f64..10.0,
    ) {
        let cloud = random_cloud(n, seed);
        let tree = KdTree::build(&cloud);
        let q = [qx, qy, qz];
        // The stable sort resolves equal distances by cloud index, the
        // same tie-break the bounded-heap traversal commits to.
        let mut brute: Vec<(usize, f64)> = cloud
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| (i, dist_sq(&q, p)))
            .collect();
        brute.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        brute.truncate(k);
        let brute: Vec<(usize, f64)> = brute.into_iter().map(|(i, d)| (i, d.sqrt())).collect();
        let knn = tree.k_nearest(&q, k);
        prop_assert_eq!(knn.len(), brute.len());
        for (got, want) in knn.iter().zip(&brute) {
            prop_assert_eq!(got.0, want.0);
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
        }
    }

    #[test]
    fn voxel_grid_counts_are_conservative(
        n in 1usize..500,
        seed in 0u64..5_000,
        size in 0.1f64..5.0,
    ) {
        let cloud = random_cloud(n, seed);
        let grid = VoxelGrid::build(&cloud, size);
        prop_assert!(grid.occupied() <= n);
        prop_assert!(grid.occupied() >= 1);
        prop_assert_eq!(grid.downsampled().len(), grid.occupied());
        // Surface voxels are a subset of occupied voxels.
        prop_assert!(grid.surface_voxels().len() <= grid.occupied());
    }

    #[test]
    fn rigid_transform_preserves_pairwise_distance(
        seed in 0u64..5_000,
        theta in -3.0f64..3.0,
        tx in -10.0f64..10.0,
        ty in -10.0f64..10.0,
    ) {
        let cloud = random_cloud(50, seed);
        let moved = cloud.transformed(theta, tx, ty);
        let d0 = dist_sq(&cloud.points()[0], &cloud.points()[25]);
        let d1 = dist_sq(&moved.points()[0], &moved.points()[25]);
        prop_assert!((d0 - d1).abs() < 1e-7);
    }
}

// Determinism invariant of the intra-frame layer: every pooled LiDAR
// kernel is bit-identical to its serial form for any worker count 1–8.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pooled_kdtree_build_bit_identical(
        n in 600usize..2_500,
        seed in 0u64..5_000,
        lanes in 1usize..9,
    ) {
        let cloud = random_cloud(n, seed);
        let serial = KdTree::build(&cloud);
        let workers = sov_runtime::pool::WorkerPool::new(lanes);
        prop_assert_eq!(KdTree::build_with(&cloud, Some(&workers)), serial);
    }

    #[test]
    fn pooled_voxel_downsample_bit_identical(
        n in 200usize..2_000,
        seed in 0u64..5_000,
        lanes in 1usize..9,
        size_centi in 20u64..150,
    ) {
        let cloud = random_cloud(n, seed);
        let size = size_centi as f64 / 100.0;
        let soa = sov_lidar::soa::PointCloudSoA::from_cloud(&cloud);
        let via_hash = VoxelGrid::build(&cloud, size).downsampled();
        let workers = sov_runtime::pool::WorkerPool::new(lanes);
        prop_assert_eq!(soa.voxel_downsampled_with(size, Some(&workers)), via_hash);
    }

    #[test]
    fn pooled_clusters_bit_identical(
        n in 100usize..800,
        seed in 0u64..5_000,
        lanes in 1usize..9,
        step_pick in 0usize..3,
        r_steps in 1usize..4,
    ) {
        use sov_lidar::segmentation::{euclidean_clusters_traced, euclidean_clusters_with, SegmentationConfig};
        // Coordinates on a power-of-two step and a tolerance that is a
        // multiple of it, so pairs sit exactly at the tolerance.
        let step = [0.125, 0.25, 0.5][step_pick];
        let quantized: Vec<[f64; 3]> = random_cloud(n, seed)
            .points()
            .iter()
            .map(|p| p.map(|c| (c / step).round() * step))
            .collect();
        let cloud = PointCloud::from_points(quantized);
        let tree = KdTree::build(&cloud);
        let cfg = SegmentationConfig {
            cluster_tolerance_m: step * r_steps as f64,
            min_cluster_size: 2,
            ..SegmentationConfig::default()
        };
        let walked = euclidean_clusters_traced(&cloud, &tree, &cfg, &mut |_| {});
        let workers = sov_runtime::pool::WorkerPool::new(lanes);
        prop_assert_eq!(euclidean_clusters_with(&cloud, &tree, &cfg, Some(&workers)), walked);
    }
}
