//! Sec. II-A — the five deployment sites, driven end to end.

use sov_core::config::VehicleConfig;
use sov_core::sov::Sov;
use sov_world::scenario::Scenario;

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Deployment fleet", "All five sites (Sec. II-A)");
    let seed = sov_bench::seed_from_args();
    println!(
        "{:<42} | {:>10} | {:>8} | {:>9} | {:>9} | {:>9}",
        "site", "outcome", "dist (m)", "mean (ms)", "proactive", "loc err"
    );
    println!(
        "{:-<42}-+-{:->10}-+-{:->8}-+-{:->9}-+-{:->9}-+-{:->9}",
        "", "", "", "", "", ""
    );
    for scenario in Scenario::all_sites(seed) {
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), seed);
        let report = sov.drive(&scenario, 400).expect("frames > 0");
        println!(
            "{:<42} | {:>10} | {:>8.0} | {:>9.0} | {:>8.1}% | {:>8.2}m",
            scenario.name,
            format!("{:?}", report.outcome),
            report.distance_m,
            report.computing.mean(),
            report.proactive_fraction() * 100.0,
            report.final_localization_error_m
        );
    }
    println!("\nvehicles are capped at 20 mph (8.9 m/s) per the micromobility mandate.");
}
