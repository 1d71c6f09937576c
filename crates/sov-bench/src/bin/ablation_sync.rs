//! Ablation: hardware-synchronizer design parameters.
//!
//! Sweeps the timestamping jitter of the near-sensor stamping and the clock
//! drift of free-running timers, measuring the camera–IMU association error
//! each produces — the input error of the Fig. 11b localization study.

use sov_math::SovRng;
use sov_sensors::sync::{SyncConfig, SyncStrategy, Synchronizer};

fn mean_offset_ms(strategy: SyncStrategy, config: SyncConfig, seed: u64) -> f64 {
    let sync = Synchronizer::new(strategy, config);
    let mut rng = SovRng::seed_from_u64(seed);
    (1..200)
        .map(|k| sync.camera_imu_offset_ms(k, &mut rng))
        .sum::<f64>()
        / 199.0
}

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner(
        "Sync ablation",
        "Synchronizer design parameters (Sec. VI-A)",
    );
    let seed = sov_bench::seed_from_args();

    sov_bench::section("hardware path: near-sensor timestamp jitter");
    println!(
        "{:>22} | {:>24} | {:>18}",
        "stamp jitter (ms)", "timestamp error (ms)", "trigger offset (ms)"
    );
    println!("{:->22}-+-{:->24}-+-{:->18}", "", "", "");
    for jitter in [0.01, 0.05, 0.2, 0.5, 1.0, 2.0] {
        let cfg = SyncConfig {
            hardware_jitter_ms: jitter,
            seed,
            ..SyncConfig::default()
        };
        let sync = Synchronizer::new(SyncStrategy::HardwareAssisted, cfg.clone());
        let mut rng = SovRng::seed_from_u64(seed);
        let stamp_err: f64 = (1..200)
            .map(|k| sync.camera_sample(k, &mut rng).timestamp_error_ms().abs())
            .sum::<f64>()
            / 199.0;
        println!(
            "{jitter:>22} | {stamp_err:>24.3} | {:>18.3}",
            mean_offset_ms(SyncStrategy::HardwareAssisted, cfg, seed)
        );
    }
    println!(
        "(timestamps degrade with stamp jitter, but the common GPS trigger\n\
keeps the *capture instants* aligned regardless — the two halves of\n\
the Sec. VI-A1 requirement are separable)"
    );

    sov_bench::section("software path: free-running clock drift");
    println!(
        "{:>22} | {:>28}",
        "drift (ppm)", "camera-IMU assoc. error (ms)"
    );
    println!("{:->22}-+-{:->28}", "", "");
    for drift in [0.0, 10.0, 50.0, 200.0, 1000.0] {
        let cfg = SyncConfig {
            clock_drift_ppm: drift,
            seed,
            ..SyncConfig::default()
        };
        println!(
            "{drift:>22} | {:>28.2}",
            mean_offset_ms(SyncStrategy::SoftwareOnly, cfg, seed)
        );
    }
    println!(
        "\nsoftware-only stamping is dominated by the variable pipeline latency\n\
         (Fig. 12b), not by clock drift: even perfect oscillators cannot fix\n\
         application-layer timestamping."
    );
}
