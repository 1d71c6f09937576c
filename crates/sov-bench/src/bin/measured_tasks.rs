//! Table III, measured: wall-clock times of this repository's *real*
//! implementations of each algorithm the paper names, on this machine,
//! then of the simulator's own substrates.
//!
//! Absolute numbers depend on the host; the *orderings and ratios* are the
//! reproduction targets (EM ≫ MPC; KCF ≫ spatial sync; extraction >
//! tracking; LiDAR ICP ≫ visual localization steps). Every row is one
//! [`sov_bench::time_us`]: an untimed warm-up call, then its repetitions.

use sov_bench::time_us;
use sov_core::config::VehicleConfig;
use sov_core::pipeline::LatencyPipeline;
use sov_core::sov::Sov;
use sov_lidar::cloud::PointCloud;
use sov_lidar::kdtree::KdTree;
use sov_lidar::registration::{icp, IcpConfig};
use sov_math::{Pose2, SovRng};
use sov_perception::depth::DenseStereoMatcher;
use sov_perception::detection::Detection;
use sov_perception::features::{fast_corners, track_features};
use sov_perception::fusion::{FusionConfig, GpsVioFusion};
use sov_perception::image::render_scene;
use sov_perception::maploc::{MapLocConfig, MapLocalizer};
use sov_perception::tracking::{spatial_synchronize, KcfConfig, KcfTracker, RadarTracker};
use sov_perception::vio::{FrameKind, VioConfig, VioFilter, VisualDelta};
use sov_planning::em::{EmConfig, EmPlanner};
use sov_planning::mpc::{MpcConfig, MpcPlanner};
use sov_planning::qp::SpeedQp;
use sov_planning::{Planner, PlanningInput, PlanningObstacle};
use sov_platform::cache::CacheSim;
use sov_platform::rpr::{RprEngine, RprPath};
use sov_sensors::camera::{Camera, Intrinsics};
use sov_sensors::gps::{GnssFix, GnssQuality};
use sov_sensors::radar::{RadarScan, RadarTarget};
use sov_sensors::sync::{SyncConfig, SyncStrategy, Synchronizer};
use sov_sim::time::SimTime;
use sov_world::obstacle::{ObstacleClass, ObstacleId};
use sov_world::scenario::Scenario;

/// `(task, implementation, µs per call)`, in print order.
type Row = (&'static str, String, f64);

fn print_rows(rows: &[Row]) {
    println!(
        "{:<30} | {:<32} | {:>12}",
        "task", "implementation", "time (µs)"
    );
    println!("{:-<30}-+-{:-<32}-+-{:->12}", "", "", "");
    for (task, implementation, us) in rows {
        println!("{task:<30} | {implementation:<32} | {us:>12.2}");
    }
}

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Table III (measured)", "Real implementations on this host");
    let seed = sov_bench::seed_from_args();
    let mut rows: Vec<Row> = Vec::new();

    // Depth estimation: ELAS-style dense matcher on a 256×128 pair.
    {
        let mut rng = SovRng::seed_from_u64(seed);
        let blobs: Vec<(f64, f64, f64, f64)> = (0..60)
            .map(|_| (rng.uniform(10.0, 240.0), rng.uniform(8.0, 120.0), 1.5, 0.7))
            .collect();
        let shifted: Vec<_> = blobs
            .iter()
            .map(|&(x, y, r, i)| (x - 8.0, y, r, i))
            .collect();
        let mut b1 = SovRng::seed_from_u64(seed + 1);
        let mut b2 = SovRng::seed_from_u64(seed + 1);
        let left = render_scene(256, 128, &blobs, 0.02, &mut b1);
        let right = render_scene(256, 128, &shifted, 0.02, &mut b2);
        let matcher = DenseStereoMatcher::default();
        rows.push((
            "depth estimation",
            "ELAS-style dense stereo, 256×128".into(),
            time_us(5, || matcher.compute(&left, &right)),
        ));
    }

    // Tracking: the KCF fallback vs radar spatial synchronization, the
    // Sec. VI-B co-design pair (6 radar tracks against 6 detections).
    {
        let mut rng = SovRng::seed_from_u64(seed + 2);
        let frame = render_scene(128, 64, &[(40.0, 32.0, 3.0, 0.9)], 0.05, &mut rng);
        let mut kcf = KcfTracker::init(&frame, 40.0, 32.0, KcfConfig::default());
        rows.push((
            "object tracking (fallback)",
            "KCF, 32×32 patch".into(),
            time_us(50, || kcf.update(&frame)),
        ));
        let mut radar = RadarTracker::new();
        radar.update(&RadarScan {
            timestamp: SimTime::ZERO,
            targets: (0..6)
                .map(|i| RadarTarget {
                    truth: ObstacleId(i),
                    range_m: 10.0 + 5.0 * f64::from(i),
                    azimuth_rad: -0.3 + 0.1 * f64::from(i),
                    radial_velocity_mps: -2.0,
                })
                .collect(),
            stable: true,
        });
        let detections: Vec<Detection> = (0..6)
            .map(|i| Detection {
                truth: Some(ObstacleId(i)),
                class: ObstacleClass::Pedestrian,
                pixel: (400.0 + 200.0 * f64::from(i), 500.0),
                radius_px: 30.0,
                depth_m: 10.0 + 5.0 * f64::from(i),
                confidence: 0.9,
            })
            .collect();
        let intrinsics = Intrinsics::hd1080();
        rows.push((
            "object tracking (ours)",
            "spatial sync, 6 tracks × 6 boxes".into(),
            time_us(1000, || {
                spatial_synchronize(&mut radar, &detections, &intrinsics, 80.0)
            }),
        ));
    }

    // Localization candidates.
    {
        let world = Scenario::fishers_indiana(seed).world;
        let camera = Camera::new(Intrinsics::hd1080(), 0.0, 1.2, 60.0, 0.5).unwrap();
        let pose = world.route.pose_at(&world.map, 10.0).unwrap();
        let mut rng = SovRng::seed_from_u64(seed + 3);
        let cam_frame = camera.capture(&pose, &world, &world.landmarks, SimTime::ZERO, &mut rng);
        let mut maploc = MapLocalizer::new(&world.landmarks, pose, MapLocConfig::default());
        rows.push((
            "localization (map-based)",
            "bearing EKF, one camera frame".into(),
            time_us(200, || {
                maploc.update_from_frame(&cam_frame, camera.intrinsics());
            }),
        ));
        let mut vio = VioFilter::new(Pose2::identity(), VioConfig::default());
        let delta = VisualDelta {
            t_from: SimTime::ZERO,
            t_to: SimTime::from_millis(33),
            forward_m: 0.187,
            lateral_m: 0.0,
            dtheta: 0.001,
            kind: FrameKind::Tracked,
        };
        rows.push((
            "localization (VIO step)",
            "EKF propagate, one increment".into(),
            time_us(1000, || vio.visual_update(&delta)),
        ));
        let mut fusion = GpsVioFusion::new(FusionConfig::default());
        let fix = GnssFix {
            timestamp: SimTime::ZERO,
            position: (0.05, -0.05),
            quality: GnssQuality::Strong,
        };
        rows.push((
            "GPS-VIO fusion",
            "EKF update, one fix".into(),
            time_us(1000, || fusion.ingest_fix(&mut vio, &fix)),
        ));
        // LiDAR localization (the rejected alternative).
        for (points, reps) in [(2_000, 10), (10_000, 3)] {
            let mut lrng = SovRng::seed_from_u64(seed + 4);
            let map = PointCloud::synthetic_street_scene(points, 0, &mut lrng);
            let tree = KdTree::build(&map);
            let scan = map.transformed(0.02, 0.3, -0.2);
            rows.push((
                "localization (LiDAR ICP)",
                format!("{}k-point scan-to-map", points / 1000),
                time_us(reps, || icp(&scan, &tree, &IcpConfig::default())),
            ));
        }
    }

    // The kd-tree under LiDAR localization, Sec. III-D's irregular kernel:
    // its build, then random nearest and 1 m radius queries.
    for (points, build_reps) in [(1_000, 50), (10_000, 10), (50_000, 3)] {
        let mut rng = SovRng::seed_from_u64(seed + 7);
        let cloud = PointCloud::synthetic_street_scene(points, 0, &mut rng);
        let k = points / 1000;
        rows.push((
            "kd-tree (LiDAR)",
            format!("build, {k}k points"),
            time_us(build_reps, || KdTree::build(&cloud)),
        ));
        let tree = KdTree::build(&cloud);
        let mut qrng = SovRng::seed_from_u64(seed + 8);
        rows.push((
            "kd-tree (LiDAR)",
            format!("nearest, {k}k points"),
            time_us(1000, || {
                let q = [
                    qrng.uniform(-30.0, 30.0),
                    qrng.uniform(-10.0, 10.0),
                    qrng.uniform(0.0, 5.0),
                ];
                tree.nearest(&q)
            }),
        ));
        rows.push((
            "kd-tree (LiDAR)",
            format!("1 m radius, {k}k points"),
            time_us(1000, || {
                let q = [qrng.uniform(-30.0, 30.0), qrng.uniform(-10.0, 10.0), 0.5];
                tree.radius_search(&q, 1.0)
            }),
        ));
    }

    // Feature extraction vs tracking (Sec. V-B3's RPR pair).
    {
        let mut rng = SovRng::seed_from_u64(seed + 5);
        let blobs: Vec<(f64, f64, f64, f64)> = (0..80)
            .map(|_| (rng.uniform(8.0, 312.0), rng.uniform(8.0, 152.0), 1.0, 0.8))
            .collect();
        let mut b1 = SovRng::seed_from_u64(seed + 6);
        let mut b2 = SovRng::seed_from_u64(seed + 6);
        let prev = render_scene(320, 160, &blobs, 0.03, &mut b1);
        let shifted: Vec<_> = blobs
            .iter()
            .map(|&(x, y, r, i)| (x + 2.0, y + 1.0, r, i))
            .collect();
        let next = render_scene(320, 160, &shifted, 0.03, &mut b2);
        rows.push((
            "feature extraction (keyframe)",
            "FAST-9 + NMS, 320×160".into(),
            time_us(20, || fast_corners(&prev, 0.12)),
        ));
        let corners = fast_corners(&prev, 0.12);
        let points: Vec<(usize, usize)> = corners.iter().take(60).map(|c| (c.x, c.y)).collect();
        rows.push((
            "feature tracking (non-key)",
            "NCC search, 60 features".into(),
            time_us(20, || track_features(&prev, &next, &points, 9, 4, 0.5)),
        ));
    }

    // Planning, and the speed QP both planners solve (EM's 50 knots).
    {
        let input = PlanningInput::cruising(5.6, 5.6).with_obstacle(PlanningObstacle {
            station_m: 14.0,
            lateral_m: 0.0,
            speed_along_mps: 0.0,
            radius_m: 0.5,
        });
        let mut mpc = MpcPlanner::new(MpcConfig::default());
        rows.push((
            "planning (ours)",
            "lane-granularity MPC".into(),
            time_us(100, || mpc.plan(&input)),
        ));
        let mut em = EmPlanner::new(EmConfig::default());
        rows.push((
            "planning (baseline)",
            "EM-style DP+QP".into(),
            time_us(20, || em.plan(&input)),
        ));
        let (refs, lo, hi) = (vec![5.6; 50], vec![0.0; 50], vec![8.9; 50]);
        rows.push((
            "planning (speed QP)",
            "SpeedQp, 50 knots".into(),
            time_us(100, || {
                SpeedQp::new(50, 1.0, 4.0)
                    .solve(&refs, &lo, &hi, 600, 1e-7)
                    .is_ok()
            }),
        ));
    }

    // The whole SoV in closed loop.
    {
        let scenario = Scenario::fishers_indiana(seed);
        rows.push((
            "closed loop (whole SoV)",
            "100-frame Fishers drive".into(),
            time_us(10, || {
                Sov::new(VehicleConfig::perceptin_pod(), seed).drive(&scenario, 100)
            }),
        ));
    }

    // The simulator's own costs: models that stand in for hardware.
    let mut substrates: Vec<Row> = Vec::new();
    {
        let mut latency = LatencyPipeline::new(&VehicleConfig::perceptin_pod(), seed);
        substrates.push((
            "latency model (Eq. 1)",
            "one frame".into(),
            time_us(1000, || latency.next_frame(0.4)),
        ));
        let mut rng = SovRng::seed_from_u64(seed + 9);
        let mut k = 0;
        for (task, strategy) in [
            ("camera sync (hardware)", SyncStrategy::HardwareAssisted),
            ("camera sync (software)", SyncStrategy::SoftwareOnly),
        ] {
            let sync = Synchronizer::new(strategy, SyncConfig::default());
            substrates.push((
                task,
                "one camera sample".into(),
                time_us(1000, || {
                    k += 1;
                    sync.camera_sample(k, &mut rng)
                }),
            ));
        }
        substrates.push((
            "LLC simulator (Fig. 4b)",
            "1 M random accesses, 9 MB LLC".into(),
            time_us(3, || {
                let mut cache = CacheSim::coffee_lake_llc();
                let mut rng = SovRng::seed_from_u64(seed + 10);
                for _ in 0..1_000_000 {
                    cache.access(rng.next_below(64 * 1024 * 1024));
                }
                cache.stats()
            }),
        ));
        let engine = RprEngine::default();
        substrates.push((
            "RPR engine (Fig. 9)",
            "1 MB bitstream, decoupled engine".into(),
            time_us(20, || {
                engine.reconfigure(1024 * 1024, RprPath::DecoupledEngine)
            }),
        ));
    }

    print_rows(&rows);
    let get = |implementation: &str| {
        rows.iter()
            .find(|r| r.1 == implementation)
            .map(|r| r.2)
            .expect("each ratio names a row")
    };
    sov_bench::section("ratios the paper reports");
    println!(
        "  EM / MPC planning:             {} (paper: 33×)",
        sov_bench::times(get("EM-style DP+QP") / get("lane-granularity MPC"))
    );
    println!(
        "  KCF / spatial sync:            {} (paper: ~100×, ~100 ms vs 1 ms)",
        sov_bench::times(get("KCF, 32×32 patch") / get("spatial sync, 6 tracks × 6 boxes"))
    );
    println!(
        "  extraction / tracking:         {} (paper: 2×, 20 ms vs 10 ms)",
        sov_bench::times(get("FAST-9 + NMS, 320×160") / get("NCC search, 60 features"))
    );
    println!(
        "  LiDAR ICP / map-based visual:  {} (paper: 100 ms–1 s vs 25 ms)",
        sov_bench::times(get("10k-point scan-to-map") / get("bearing EKF, one camera frame"))
    );
    // The paper's 24 ms VIO cost is dominated by the feature front-end,
    // which we measure separately (FAST extraction / NCC tracking above);
    // the EKF fusion arithmetic is sub-microsecond. The co-design point —
    // "in cases where sensing could replace computing, accelerating the
    // computing algorithm has little value" — survives with a wide margin:
    println!(
        "  visual front-end {:.0} µs/frame vs GPS-fusion step {:.2} µs (paper: 24 ms vs 1 ms)",
        get("FAST-9 + NMS, 320×160") + get("EKF propagate, one increment"),
        get("EKF update, one fix")
    );
    sov_bench::section("substrates");
    print_rows(&substrates);
}
