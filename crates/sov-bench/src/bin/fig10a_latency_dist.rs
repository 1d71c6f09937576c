//! Fig. 10a — computing-latency distribution of on-vehicle processing.

use sov_core::characterize::Characterization;
use sov_core::config::VehicleConfig;
use sov_world::scenario::ComplexityProfile;

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner(
        "Fig. 10a",
        "Computing latency distribution (sensing/perception/planning)",
    );
    let seed = sov_bench::seed_from_args();
    let config = VehicleConfig::perceptin_pod();
    let profile = ComplexityProfile::new(vec![(0.0, 0.3), (0.5, 0.6), (1.0, 0.3)]);
    let mut c = Characterization::run(&config, &profile, 20_000, seed);
    println!(
        "{:<16} | {:>12} | {:>12} | {:>12}",
        "stage", "best (ms)", "mean (ms)", "p99 (ms)"
    );
    println!("{:-<16}-+-{:->12}-+-{:->12}-+-{:->12}", "", "", "", "");
    let rows: [(&str, &mut sov_math::stats::Summary); 4] = [
        ("sensing", &mut c.sensing),
        ("perception", &mut c.perception),
        ("planning", &mut c.planning),
        ("computing", &mut c.computing),
    ];
    for (name, s) in rows {
        println!(
            "{name:<16} | {:>12.1} | {:>12.1} | {:>12.1}",
            s.min(),
            s.mean(),
            s.p99()
        );
    }
    println!(
        "\npaper: best-case 149 ms, mean 164 ms, with a long tail; worst-case 740 ms.\n\
         measured worst case here: {:.0} ms over {} frames",
        c.computing.max(),
        c.frames
    );
    println!(
        "avoidable obstacle distance: {:.1} m at the mean latency (paper: ~5 m), \
         {:.1} m at the worst case (paper: ~8.3 m)",
        c.avoidable_distance_mean_m(&config),
        c.avoidable_distance_worst_m(&config),
    );
}
