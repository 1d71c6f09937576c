//! Sec. VI-A3 — scaling the hardware synchronizer to more cameras.
//!
//! "Synchronizing more cameras simply requires expanding the number of
//! trigger signals; the rest of synchronization, including timestamp
//! adjustment, is all handled at the application layer."
//!
//! All four cameras share the GPS-disciplined trigger, so pairwise capture
//! offsets stay at zero regardless of camera count; under software-only
//! sync every added camera free-runs on its own timer and pairwise offsets
//! stay large.

use sov_math::SovRng;
use sov_sensors::sync::{CameraId, SyncConfig, SyncStrategy, Synchronizer};

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Sync scaling", "Multi-camera synchronization (Sec. VI-A3)");
    let seed = sov_bench::seed_from_args();
    let mut rng = SovRng::seed_from_u64(seed);
    for (label, strategy) in [
        ("software-only", SyncStrategy::SoftwareOnly),
        ("hardware-assisted", SyncStrategy::HardwareAssisted),
    ] {
        sov_bench::section(label);
        let sync = Synchronizer::new(
            strategy,
            SyncConfig {
                seed,
                ..SyncConfig::default()
            },
        );
        println!(
            "{:>24} | {:>24} | {:>18}",
            "camera pair", "mean trigger offset (ms)", "max offset (ms)"
        );
        println!("{:->24}-+-{:->24}-+-{:->18}", "", "", "");
        let cams = CameraId::ALL;
        for i in 0..cams.len() {
            for j in (i + 1)..cams.len() {
                let mut sum = 0.0f64;
                let mut max = 0.0f64;
                for k in 0..200u64 {
                    let a = sync.camera_trigger(cams[i], k);
                    let b = sync.camera_trigger(cams[j], k);
                    let off = (a.as_millis_f64() - b.as_millis_f64()).abs();
                    sum += off;
                    max = max.max(off);
                }
                println!(
                    "{:>24} | {:>24.3} | {:>18.3}",
                    format!("{:?} vs {:?}", cams[i], cams[j]),
                    sum / 200.0,
                    max
                );
            }
        }
        // Per-camera timestamp error too.
        let mean_err: f64 = (1..100)
            .map(|k| sync.camera_sample(k, &mut rng).timestamp_error_ms().abs())
            .sum::<f64>()
            / 99.0;
        println!("mean per-frame timestamp error: {mean_err:.2} ms");
    }
    println!(
        "\nsynchronizer cost is independent of camera count up to trigger\n\
         fan-out: 1,443 LUTs, 1,587 registers, 5 mW (Sec. VI-A3)."
    );
}
