//! Fig. 11a — depth-estimation error vs. stereo synchronization error.
//!
//! Captures stereo pairs where the right camera fires late while the
//! vehicle turns through the scene, triangulates matched features, and
//! reports the mean absolute depth error per synchronization offset.

use sov_math::{Pose2, SovRng};
use sov_perception::depth::{depth_with_sync_offset, mean_abs_error_m};
use sov_sensors::camera::StereoRig;
use sov_sim::time::{SimDuration, SimTime};
use sov_world::scenario::Scenario;

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Fig. 11a", "Depth error vs stereo sync error");
    let seed = sov_bench::seed_from_args();
    let world = Scenario::nara_japan(seed).world;
    let rig = StereoRig::perceptin_default();
    // Vehicle in a gentle lane-keeping turn: the small rotation between the
    // two unsynchronized captures shifts every feature laterally, which
    // corrupts disparity (a 0.04 rad/s yaw over 30 ms is ~2 px at this
    // focal length — comparable to the disparity of a 20 m target).
    let pose_of = |t: SimTime| Pose2::new(20.0, 5.0, 0.2).step_unicycle(4.5, 0.04, t.as_secs_f64());
    println!(
        "{:>18} | {:>20} | {:>10}",
        "sync error (ms)", "mean depth error (m)", "features"
    );
    println!("{:->18}-+-{:->20}-+-{:->10}", "", "", "");
    for offset_ms in [0u64, 10, 30, 50, 70, 90, 110, 130, 150] {
        // Average over several capture instants.
        let mut err_sum = 0.0;
        let mut n_features = 0usize;
        let trials = 20;
        for trial in 0..trials {
            let mut rng = SovRng::seed_from_u64(seed ^ (offset_ms * 1000 + trial));
            let mut estimates = depth_with_sync_offset(
                &rig,
                &world,
                pose_of,
                SimTime::from_millis(trial * 40),
                SimDuration::from_millis(offset_ms),
                &mut rng,
            );
            // Stereo pipelines only trust the near field; estimates are
            // clamped at the camera's 60 m range.
            estimates.retain(|e| e.true_depth_m <= 25.0);
            for e in &mut estimates {
                e.depth_m = e.depth_m.min(60.0);
            }
            err_sum += mean_abs_error_m(&estimates);
            n_features += estimates.len();
        }
        println!(
            "{offset_ms:>18} | {:>20.2} | {:>10}",
            err_sum / trials as f64,
            n_features / trials as usize
        );
    }
    println!(
        "\npaper: even a 30 ms offset produces >5 m of depth error; the vehicle's\n\
         tolerance is ~0.2 m (lane-granularity maneuvers, Sec. III-D)."
    );
}
