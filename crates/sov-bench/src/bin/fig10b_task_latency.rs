//! Fig. 10b — average-case latencies of the perception tasks.

use sov_core::characterize::Characterization;
use sov_core::config::VehicleConfig;
use sov_world::scenario::ComplexityProfile;

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Fig. 10b", "Average-case perception task latencies");
    let seed = sov_bench::seed_from_args();
    let config = VehicleConfig::perceptin_pod();
    let profile = ComplexityProfile::new(vec![(0.0, 0.3), (0.5, 0.6), (1.0, 0.3)]);
    let mut c = Characterization::run(&config, &profile, 20_000, seed);
    println!(
        "{:<16} | {:>12} | {:>12} | {:>12}",
        "task", "mean (ms)", "median (ms)", "σ (ms)"
    );
    println!("{:-<16}-+-{:->12}-+-{:->12}-+-{:->12}", "", "", "", "");
    let rows: [(&str, &mut sov_math::stats::Summary); 4] = [
        ("depth", &mut c.depth),
        ("detection", &mut c.detection),
        ("tracking", &mut c.tracking),
        ("localization", &mut c.localization),
    ];
    for (name, s) in rows {
        println!(
            "{name:<16} | {:>12.1} | {:>12.1} | {:>12.1}",
            s.mean(),
            s.median(),
            s.std_dev()
        );
    }
    println!(
        "\npaper: detection (DNN) dominates; localization median 25 ms with σ = 14 ms\n\
         caused by scene complexity; detection+tracking (serialized) dictates the\n\
         perception latency."
    );
}
