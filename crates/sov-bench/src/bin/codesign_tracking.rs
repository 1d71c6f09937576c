//! Sec. VI-B — radar tracking with spatial synchronization vs. KCF.
//!
//! Tracks an approaching target with both mechanisms on the simulated
//! substrate and compares accuracy and compute cost (the paper's 100×
//! claim).

use sov_math::SovRng;
use sov_perception::detection::Detection;
use sov_perception::image::render_scene;
use sov_perception::tracking::{spatial_synchronize, KcfConfig, KcfTracker, RadarTracker};
use sov_platform::processor::{Platform, Task};
use sov_sensors::camera::Intrinsics;
use sov_sensors::radar::{RadarScan, RadarTarget};
use sov_sim::time::SimTime;
use sov_world::obstacle::{ObstacleClass, ObstacleId};

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner(
        "Co-design: tracking",
        "Radar spatial sync replaces KCF (Sec. VI-B)",
    );
    let seed = sov_bench::seed_from_args();

    sov_bench::section("radar tracking of an approaching pedestrian");
    let mut tracker = RadarTracker::new();
    let intr = Intrinsics::hd1080();
    for k in 0..20u64 {
        let range = 30.0 - 0.25 * k as f64; // closing at 5 m/s, 20 Hz scans
        let scan = RadarScan {
            timestamp: SimTime::from_millis(k * 50),
            targets: vec![RadarTarget {
                truth: ObstacleId(0),
                range_m: range,
                azimuth_rad: 0.03,
                radial_velocity_mps: -5.0,
            }],
            stable: true,
        };
        tracker.update(&scan);
    }
    let track = tracker.tracks()[0];
    println!(
        "  1 track maintained over 20 scans: range {:.1} m, radial velocity {:.1} m/s, hits {}",
        track.range_m, track.radial_velocity_mps, track.hits
    );
    // Spatial synchronization against a camera detection.
    let zc = track.range_m * track.azimuth_rad.cos();
    let u = intr.cx + intr.fx * (-(track.range_m * track.azimuth_rad.sin()) / zc);
    let detections = vec![Detection {
        truth: Some(ObstacleId(0)),
        class: ObstacleClass::Pedestrian,
        pixel: (u + 2.0, 520.0),
        radius_px: 25.0,
        depth_m: zc * 1.02,
        confidence: 0.92,
    }];
    let pairs = spatial_synchronize(&mut tracker, &detections, &intr, 60.0);
    println!(
        "  spatial synchronization matched {} track(s); class = {:?}",
        pairs.len(),
        tracker.tracks()[0].class
    );

    sov_bench::section("KCF fallback on rendered frames (radar unstable)");
    let mut rng = SovRng::seed_from_u64(seed);
    let mut blobs = vec![(40.0, 32.0, 3.0, 0.9)];
    let first = render_scene(128, 64, &blobs, 0.05, &mut rng);
    let mut kcf = KcfTracker::init(&first, 40.0, 32.0, KcfConfig::default());
    for _ in 0..15 {
        blobs[0].0 += 1.5;
        let mut frame_rng = SovRng::seed_from_u64(seed);
        let frame = render_scene(128, 64, &blobs, 0.05, &mut frame_rng);
        kcf.update(&frame);
    }
    let (x, y) = kcf.position();
    println!(
        "  KCF tracked the target to ({x:.1}, {y:.1}); truth ({:.1}, 32.0)",
        blobs[0].0
    );

    sov_bench::section("compute cost (platform profiles)");
    let kcf_ms = Task::KcfTracking
        .profile(Platform::CoffeeLakeCpu)
        .mean_latency_ms();
    let sync_ms = Task::SpatialSync
        .profile(Platform::CoffeeLakeCpu)
        .mean_latency_ms();
    println!(
        "  KCF: {kcf_ms:.0} ms/frame; spatial sync: {sync_ms:.0} ms/frame \
         ({} lighter — paper: 100×)",
        sov_bench::times(kcf_ms / sync_ms)
    );
    println!(
        "  radar BOM cost: 6 × $500 (Table II) — 'increases the vehicle's cost only modestly'."
    );
}
