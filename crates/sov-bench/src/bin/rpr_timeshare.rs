//! Sec. V-B3 / Sec. VII — FPGA time-sharing economics, including the
//! once-hourly log-compression swap-in, with the real LZSS codec doing the
//! compressing.

use sov_cloud::compress::{compress, ratio, synthetic_operational_log};
use sov_platform::rpr::RprEngine;
use sov_platform::timeshare::{analyze, AcceleratorTask};
use std::time::Instant;

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner(
        "RPR time-sharing",
        "Spatial vs temporal FPGA sharing (Sec. V-B3, VII)",
    );
    let engine = RprEngine::default();

    sov_bench::section("localization kernel pair (swap every keyframe boundary)");
    let loc = [
        AcceleratorTask::feature_extraction(),
        AcceleratorTask::feature_tracking(),
    ];
    let a = analyze(&loc, &engine, 12.0 * 3600.0);
    println!(
        "  spatial:  {:>7} LUTs, {:.1} W static",
        a.spatial_luts, a.spatial_static_w
    );
    println!(
        "  temporal: {:>7} LUTs, {:.1} W static (area saving {:.0}%)",
        a.temporal_luts,
        a.temporal_static_w,
        a.area_saving() * 100.0
    );
    println!(
        "  reconfig cost: {:.1} s/hour ({:.2}% of time), {:.1} J/hour",
        a.reconfig_time_per_hour_s,
        a.reconfig_overhead_fraction * 100.0,
        a.reconfig_energy_per_hour_j
    );

    sov_bench::section("adding the hourly log-compression task (Sec. VII)");
    let with_compress = [
        AcceleratorTask::feature_extraction(),
        AcceleratorTask::feature_tracking(),
        AcceleratorTask::log_compression(),
    ];
    let b = analyze(&with_compress, &engine, 12.0 * 3600.0 + 2.0);
    println!(
        "  compression duty cycle: {:.4}% of the hour — 'used only infrequently'",
        AcceleratorTask::log_compression().duty_cycle() * 100.0
    );
    println!(
        "  spatial would need {} LUTs; RPR still needs only {} ({:.0}% saving)",
        b.spatial_luts,
        b.temporal_luts,
        b.area_saving() * 100.0
    );

    sov_bench::section("the compression task itself (real LZSS codec)");
    let log = synthetic_operational_log(20_000, sov_bench::seed_from_args());
    let start = Instant::now();
    let compressed = compress(&log);
    let elapsed = start.elapsed();
    println!(
        "  {} KB of operational telemetry → {} KB ({:.1}× ) in {:.1} ms on this CPU",
        log.len() / 1024,
        compressed.len() / 1024,
        ratio(log.len(), compressed.len()),
        elapsed.as_secs_f64() * 1000.0
    );
    println!(
        "\nconclusion (paper): RPR is 'a cost-effective solution to support\n\
         non-essential tasks that are used only infrequently'."
    );
}
