//! Fig. 1 — the complete infrastructure loop: vehicles feed the cloud,
//! the cloud feeds the vehicles.
//!
//! Drives a site, ships telemetry per the uplink policy, trains an
//! environment-specialized model from the accumulated field data, annotates
//! the map from the drive observations, and regression-gates the update
//! before release.

use sov_cloud::mapgen::{AnnotationThresholds, LogObservation, MapAnnotator};
use sov_cloud::simulation::{regression_run, ReleaseGates};
use sov_cloud::telemetry::{raw_data_volume_per_day_bytes, DataClass, TelemetryAgent};
use sov_cloud::training::{SiteId, TrainingService};
use sov_core::config::VehicleConfig;
use sov_core::sov::Sov;
use sov_sim::time::SimTime;
use sov_world::obstacle::ObstacleClass;
use sov_world::scenario::Scenario;

fn main() {
    sov_bench::check_args(&[]);
    sov_bench::banner("Fig. 1", "The end-to-end infrastructure loop");
    let seed = sov_bench::seed_from_args();

    sov_bench::section("1. vehicles drive and observe");
    let scenario = Scenario::nara_japan(seed);
    let mut sov = Sov::new(VehicleConfig::perceptin_pod(), seed);
    let report = sov.drive(&scenario, 300).expect("frames > 0");
    println!(
        "  {}: {:?}, {:.0} m, proactive {:.1}%",
        scenario.name,
        report.outcome,
        report.distance_m,
        report.proactive_fraction() * 100.0
    );

    sov_bench::section("2. telemetry: condensed logs up now, raw data at end of day");
    let mut agent = TelemetryAgent::perceptin_defaults();
    for hour in 0..10u64 {
        let t = SimTime::from_millis(hour * 3_600_000);
        let log = agent.submit(DataClass::CondensedLog { bytes: 4 * 1024 }, t);
        let raw = agent.submit(
            DataClass::RawSensorData {
                bytes: raw_data_volume_per_day_bytes(4, 30.0, 240 * 1024, 1.0),
            },
            t,
        );
        if hour == 0 {
            println!("  hourly condensed log → {log:?}");
            println!("  hourly raw batch     → {raw:?}");
        }
    }
    println!(
        "  end of day: {:.2} TB staged on SSD, {} KB uplinked in real time",
        agent.ssd_used_bytes() as f64 / 1024f64.powi(4),
        agent.uplinked_bytes() / 1024
    );
    let uploaded = agent.manual_upload();
    println!(
        "  manual upload ships {:.2} TB to the cloud",
        uploaded as f64 / 1024f64.powi(4)
    );

    sov_bench::section("3. training: environment-specialized model improves with data");
    let mut svc = TrainingService::new();
    let site = SiteId(1);
    for (day, frames) in [(1u32, 40_000u64), (7, 240_000), (30, 1_000_000)] {
        svc.ingest(site, frames);
        let model = svc.train(site);
        println!(
            "  day {day:>2}: v{} trained on {:>9} frames → miss rate {:.3}, FP/frame {:.3}",
            model.version,
            model.training_frames,
            model.profile.miss_rate,
            model.profile.false_positives_per_frame
        );
    }

    sov_bench::section("4. map generation: drive logs become OSM annotations");
    let mut map = scenario.world.map.clone();
    let mut annotator = MapAnnotator::new();
    let thresholds = AnnotationThresholds::default();
    // Replay the scenario's pedestrian sightings as log observations.
    for obstacle in &scenario.world.obstacles {
        if obstacle.class == ObstacleClass::Pedestrian {
            for _ in 0..5 {
                annotator.ingest(
                    &map,
                    LogObservation::ObstacleSighting {
                        class: ObstacleClass::Pedestrian,
                        x: obstacle.initial_pose.x,
                        y: obstacle.initial_pose.y,
                    },
                    &thresholds,
                );
            }
        }
    }
    let added = annotator.annotate(&mut map, &thresholds);
    println!("  {added} new semantic annotations derived from the drive logs");

    sov_bench::section("5. release gate: replay every site before pushing the update");
    let gate_report = regression_run(
        &VehicleConfig::perceptin_pod(),
        &ReleaseGates::default(),
        200,
        seed,
    );
    for s in &gate_report.sites {
        println!(
            "  {:<42} {:?}  proactive {:>5.1}%  {}",
            s.site,
            s.outcome,
            s.proactive_fraction * 100.0,
            if s.passed() { "PASS" } else { "FAIL" }
        );
    }
    println!(
        "\n  release {} — the loop closes: better models and maps flow back to the fleet.",
        if gate_report.release_approved() {
            "APPROVED"
        } else {
            "BLOCKED"
        }
    );
}
