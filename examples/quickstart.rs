//! Quickstart: drive the deployed vehicle configuration through a
//! deployment scenario and print the end-to-end report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sov::core::config::VehicleConfig;
use sov::core::sov::Sov;
use sov::runtime::pipeline::FramePipeline;
use sov::world::scenario::Scenario;
use std::time::Duration;

fn main() {
    println!("SoV quickstart — PerceptIn pod on the Fishers, Indiana loop\n");
    let scenario = Scenario::fishers_indiana(42);
    println!("site: {}", scenario.name);
    println!(
        "map: {} lanes, {:.0} m route, {} landmarks, {} scripted obstacles",
        scenario.world.map.len(),
        scenario.world.route.length_m(),
        scenario.world.landmarks.len(),
        scenario.world.obstacles.len()
    );

    let config = VehicleConfig::perceptin_pod();
    println!(
        "\nvehicle: {} ({} W autonomy load, {} Hz control)",
        config.name,
        config.power.total_pad_w(),
        config.control_rate_hz
    );
    let mut sov = Sov::new(config, 42);
    let mut report = sov.drive(&scenario, 600).expect("at least one frame");
    println!("\ndrive report:");
    println!("  outcome:              {:?}", report.outcome);
    println!(
        "  distance:             {:.0} m over {} frames",
        report.distance_m, report.frames
    );
    println!(
        "  computing latency:    best {:.0} ms / mean {:.0} ms / p99 {:.0} ms",
        report.computing.min(),
        report.computing.mean(),
        report.computing.p99()
    );
    println!(
        "  reactive overrides:   {} (proactive {:.1}% of the time)",
        report.override_engagements,
        report.proactive_fraction() * 100.0
    );
    println!("  closest obstacle gap: {:.1} m", report.min_obstacle_gap_m);
    println!("  energy used:          {:.4} kWh", report.energy_used_kwh);
    println!(
        "  localization error:   {:.2} m (GPS–VIO fused)",
        report.final_localization_error_m
    );

    // Task-level parallelism: pipelined stages sustain the 10 Hz
    // throughput even though the serial latency exceeds the period.
    println!("\ntask-level parallelism demo (FramePipeline, 40 frames through 8+8+1 ms stages):");
    let work = |ms| std::thread::sleep(Duration::from_millis(ms));
    for (depth, mode) in [(1, "serialized"), (2, "pipelined")] {
        let run = FramePipeline::new(depth).run(
            40,
            |k| {
                work(8);
                k
            },
            |_, s| {
                work(8);
                s
            },
            |_, _| work(1),
        );
        println!(
            "  depth {depth} ({mode}): throughput {:.0} Hz, per-frame latency {:.1} ms",
            run.throughput_fps(),
            run.latency_percentile(0.5).as_secs_f64() * 1000.0
        );
    }
}
