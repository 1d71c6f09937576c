//! Property-based tests for the SoV core.

use sov_core::config::VehicleConfig;
use sov_core::pipeline::LatencyPipeline;
use sov_sim::time::SimTime;
use sov_sim::trace::{Stage, TraceLog};
use sov_testkit::prelude::*;
use sov_vehicle::dynamics::{ControlCommand, VehicleParams};
use sov_vehicle::ecu::{Ecu, EcuConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn frame_latency_decomposition_is_consistent(seed in 0u64..5_000, complexity in 0.0f64..1.0) {
        let mut pipe = LatencyPipeline::new(&VehicleConfig::perceptin_pod(), seed);
        for _ in 0..20 {
            let f = pipe.next_frame(complexity);
            // Perception is the max of its two independent groups.
            prop_assert!(f.perception() >= f.localization);
            prop_assert!(f.perception() >= f.scene_understanding());
            prop_assert!(
                f.perception() == f.localization || f.perception() == f.scene_understanding()
            );
            // Computing is the serial sum of the three stages.
            prop_assert_eq!(f.computing(), f.sensing + f.perception() + f.planning);
            // Everything is positive.
            prop_assert!(f.sensing.as_nanos() > 0);
            prop_assert!(f.planning.as_nanos() > 0);
        }
    }

    #[test]
    fn latency_pipeline_is_deterministic(seed in 0u64..5_000) {
        let cfg = VehicleConfig::perceptin_pod();
        let mut a = LatencyPipeline::new(&cfg, seed);
        let mut b = LatencyPipeline::new(&cfg, seed);
        for _ in 0..10 {
            prop_assert_eq!(a.next_frame(0.5), b.next_frame(0.5));
        }
    }

    #[test]
    fn ecu_override_always_wins_over_proactive(
        ranges in prop::collection::vec(prop::option::of(0.5f64..20.0), 1..40),
    ) {
        let mut ecu = Ecu::new(EcuConfig::perceptin_defaults(), VehicleParams::perceptin_defaults());
        let mut engaged_at_tick = Vec::new();
        for (i, range) in ranges.iter().enumerate() {
            let t = SimTime::from_millis(i as u64 * 100);
            ecu.reactive_range(*range, t);
            ecu.accept_command(
                ControlCommand { throttle_mps2: 2.0, brake_mps2: 0.0, yaw_rate_rps: 0.0 },
                t,
            );
            engaged_at_tick.push(ecu.override_engaged());
            let act = ecu.actuation(t + sov_sim::time::SimDuration::from_millis(50));
            // While the override is engaged, the actuator can never be
            // throttling (either still on the old command or braking).
            if ecu.override_engaged() && i > 0 && engaged_at_tick[i - 1] {
                prop_assert!(act.net_accel_mps2() <= 0.0, "throttle during override at tick {i}");
            }
        }
    }

    #[test]
    fn trace_log_totals_match_manual_sum(durations in prop::collection::vec(1u64..100, 1..20)) {
        let mut log = TraceLog::new();
        let mut t = SimTime::ZERO;
        let mut expected_total = 0u64;
        for (i, &ms) in durations.iter().enumerate() {
            let stage = Stage::ALL[i % 3]; // sensing/perception/planning
            let end = SimTime::from_millis(t.as_nanos() / 1_000_000 + ms);
            log.record(0, stage, t, end);
            expected_total += ms;
            t = end;
        }
        let frames = log.frames();
        let fb = &frames[&0];
        prop_assert_eq!(fb.total().as_millis_f64() as u64, expected_total);
        let stage_sum: u64 = Stage::ALL
            .iter()
            .map(|&s| fb.stage(s).as_millis_f64() as u64)
            .sum();
        prop_assert_eq!(stage_sum, expected_total, "serial spans partition the frame");
    }
}

// Determinism invariant of the intra-frame layer (`sov_runtime::pool`):
// chunked pool primitives are bit-identical to serial for any worker
// count, and a pool-enabled drive produces an unchanged DriveReport.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pool_map_reduce_bit_identical_across_lanes(
        values in prop::collection::vec(-1000.0f64..1000.0, 1..400),
        chunk in 1usize..64,
        lanes in 1usize..9,
    ) {
        use sov_runtime::pool::map_reduce_chunks;
        let serial = map_reduce_chunks(
            None,
            &values,
            chunk,
            |_, c| c.iter().sum::<f64>(),
            0.0f64,
            |acc, s| acc + s,
        );
        let pool = sov_runtime::pool::WorkerPool::new(lanes);
        let pooled = map_reduce_chunks(
            Some(&pool),
            &values,
            chunk,
            |_, c| c.iter().sum::<f64>(),
            0.0f64,
            |acc, s| acc + s,
        );
        prop_assert_eq!(pooled.to_bits(), serial.to_bits());
    }

    #[test]
    fn pool_parallel_for_bit_identical_across_lanes(
        values in prop::collection::vec(-1000.0f64..1000.0, 1..400),
        chunk in 1usize..64,
        lanes in 1usize..9,
    ) {
        use sov_runtime::pool::for_chunks;
        let mut serial = values.clone();
        for_chunks(None, &mut serial, chunk, |start, c| {
            for (i, v) in c.iter_mut().enumerate() {
                *v = v.sin() * (start + i) as f64;
            }
        });
        let pool = sov_runtime::pool::WorkerPool::new(lanes);
        let mut pooled = values;
        for_chunks(Some(&pool), &mut pooled, chunk, |start, c| {
            for (i, v) in c.iter_mut().enumerate() {
                *v = v.sin() * (start + i) as f64;
            }
        });
        let serial_bits: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
        let pooled_bits: Vec<u64> = pooled.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(pooled_bits, serial_bits);
    }
}

// Whole-drive invariance is expensive per case; a few seeds suffice on
// top of the unit test in `sov::tests`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn pooled_drive_reports_are_unchanged(seed in 0u64..1_000, lanes in 2usize..9) {
        use sov_runtime::PerfContext;
        use sov_core::sov::Sov;
        use sov_world::scenario::Scenario;
        let scenario = Scenario::fishers_indiana(seed);
        let mut serial = Sov::new(VehicleConfig::perceptin_pod(), seed);
        let r_serial = serial.drive(&scenario, 80).expect("drive runs");
        let mut pooled = Sov::new(VehicleConfig::perceptin_pod(), seed);
        pooled.set_perf(PerfContext::with_workers(lanes));
        let r_pooled = pooled.drive(&scenario, 80).expect("drive runs");
        prop_assert_eq!(r_pooled, r_serial);
    }
}
