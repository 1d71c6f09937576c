//! Fig. 11b — localization error from unsynchronized camera–IMU data.
//!
//! Drives the VIO filter along a winding course at 240 Hz IMU / 30 FPS
//! camera with the camera's assigned timestamps shifted by 0/20/40 ms and
//! reports trajectory error, plus the hardware-vs-software synchronizer
//! offsets that cause it (Sec. VI-A).

use sov_math::{Pose2, SovRng};
use sov_perception::vio::{final_error_m, run_vio_with_offset};
use sov_sensors::sync::{SyncConfig, SyncStrategy, Synchronizer};
use sov_sim::time::SimTime;

fn course(duration_s: f64) -> (Vec<(SimTime, Pose2)>, Vec<f64>) {
    let dt = 1.0 / 240.0;
    let n = (duration_s / dt) as usize;
    let mut poses = Vec::with_capacity(n);
    let mut rates = Vec::with_capacity(n);
    let mut pose = Pose2::identity();
    for i in 0..n {
        let t = i as f64 * dt;
        let omega = if ((t / 4.0) as u64).is_multiple_of(3) {
            0.0
        } else {
            0.4
        };
        pose = pose.step_unicycle(5.6, omega, dt);
        poses.push((SimTime::from_secs_f64(t), pose));
        rates.push(omega);
    }
    (poses, rates)
}

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Fig. 11b", "Localization vs camera–IMU sync error");
    let seed = sov_bench::seed_from_args();
    let (poses, rates) = course(60.0);
    let dist = 5.6 * 60.0;
    println!("course: {dist:.0} m winding loop, 240 Hz IMU, 30 FPS camera\n");
    println!(
        "{:>22} | {:>16} | {:>16} | {:>14}",
        "camera-IMU offset", "final error (m)", "max error (m)", "error (% dist)"
    );
    println!("{:->22}-+-{:->16}-+-{:->16}-+-{:->14}", "", "", "", "");
    for offset_ms in [0.0, 10.0, 20.0, 40.0, 60.0] {
        let trace = run_vio_with_offset(&poses, &rates, offset_ms, seed);
        let err = final_error_m(&trace);
        let max_err = trace
            .iter()
            .map(|(est, truth)| est.distance(truth))
            .fold(0.0f64, f64::max);
        println!(
            "{:>20}ms | {:>16.2} | {:>16.2} | {:>13.2}%",
            offset_ms,
            err,
            max_err,
            err / dist * 100.0
        );
    }
    sov_bench::section("what offsets does each synchronization design produce?");
    let mut rng = SovRng::seed_from_u64(seed);
    for (label, strategy) in [
        ("software-only (Fig. 12a)", SyncStrategy::SoftwareOnly),
        (
            "hardware-assisted (Fig. 12c)",
            SyncStrategy::HardwareAssisted,
        ),
    ] {
        let sync = Synchronizer::new(
            strategy,
            SyncConfig {
                seed,
                ..SyncConfig::default()
            },
        );
        let mean: f64 = (1..200)
            .map(|k| sync.camera_imu_offset_ms(k, &mut rng))
            .sum::<f64>()
            / 199.0;
        println!("  {label:<30} mean camera–IMU association error = {mean:.2} ms");
    }
    println!(
        "\npaper: at 40 ms of desync the localization error reaches ~10 m;\n\
         the hardware synchronizer holds timestamps within 1 ms (1,443 LUTs,\n\
         1,587 registers, 5 mW)."
    );
}
