//! Sec. VI-B — GPS–VIO fusion: replacing compute with sensing.
//!
//! Drives a biased VIO along a long straight and shows the drift with and
//! without GNSS fusion, through outage and multipath windows, plus the
//! latency comparison (1 ms EKF step vs 24 ms VIO step).

use sov_math::{Pose2, SovRng};
use sov_perception::fusion::{FusionConfig, GpsVioFusion};
use sov_perception::vio::{FrameKind, VioConfig, VioFilter, VisualDelta};
use sov_platform::processor::{Platform, Task};
use sov_sensors::gps::{GnssQuality, GpsConfig, GpsReceiver};
use sov_sim::time::SimTime;

fn drive(with_gps: bool, frames: u64, seed: u64) -> Vec<(f64, f64)> {
    let mut vio = VioFilter::new(Pose2::identity(), VioConfig::default());
    let mut fusion = GpsVioFusion::new(FusionConfig::default());
    let mut gps = GpsReceiver::new(GpsConfig::default(), seed);
    let mut rng = SovRng::seed_from_u64(seed);
    let dt = 1.0 / 30.0;
    let mut truth = Pose2::identity();
    let mut out = Vec::new();
    for i in 1..=frames {
        let t_prev = SimTime::from_secs_f64((i - 1) as f64 * dt);
        let t = SimTime::from_secs_f64(i as f64 * dt);
        let next = truth.step_unicycle(5.6, 0.0, dt);
        vio.visual_update(&VisualDelta {
            t_from: t_prev,
            t_to: t,
            forward_m: next.distance(&truth) * 1.01 + rng.normal(0.0, 0.01),
            lateral_m: rng.normal(0.0, 0.01),
            dtheta: 0.0,
            kind: FrameKind::Tracked,
        });
        truth = next;
        if with_gps && i % 3 == 0 {
            let frac = i as f64 / frames as f64;
            let quality = if (0.4..0.5).contains(&frac) {
                GnssQuality::Multipath
            } else if (0.5..0.6).contains(&frac) {
                GnssQuality::NoFix
            } else {
                GnssQuality::Strong
            };
            let _ = fusion.ingest_fix(&mut vio, &gps.fix(t, &truth, quality));
        }
        if i % (frames / 10) == 0 {
            out.push((5.6 * i as f64 * dt, vio.pose().distance(&truth)));
        }
    }
    out
}

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner(
        "Co-design: GPS–VIO",
        "EKF fusion corrects cumulative VIO drift (Sec. VI-B)",
    );
    let seed = sov_bench::seed_from_args();
    let frames = 6000;
    let raw = drive(false, frames, seed);
    let fused = drive(true, frames, seed);
    println!(
        "{:>14} | {:>18} | {:>18}",
        "distance (m)", "VIO-only error (m)", "GPS-VIO error (m)"
    );
    println!("{:->14}-+-{:->18}-+-{:->18}", "", "", "");
    for ((d, e_raw), (_, e_fused)) in raw.iter().zip(&fused) {
        let note = if (0.4..0.6).contains(&(d / raw.last().unwrap().0)) {
            "  ← multipath / outage window"
        } else {
            ""
        };
        println!("{d:>14.0} | {e_raw:>18.2} | {e_fused:>18.2}{note}");
    }
    sov_bench::section("compute cost (platform profiles)");
    let vio_ms = Task::LocalizationKeyframe
        .profile(Platform::ZynqFpga)
        .mean_latency_ms();
    let ekf_ms = Task::EkfFusion
        .profile(Platform::CoffeeLakeCpu)
        .mean_latency_ms();
    println!(
        "  VIO localization step: {vio_ms:.0} ms; EKF fusion step: {ekf_ms:.0} ms \
         ({} lighter — paper: 1 ms vs 24 ms)",
        sov_bench::times(vio_ms / ekf_ms)
    );
}
