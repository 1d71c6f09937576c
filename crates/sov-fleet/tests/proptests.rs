//! Property tests for the fleet tick's three load-bearing claims.
//!
//! 1. **Byte-identity**: the fleet report is identical — every `f64`
//!    bit-equal, every `Summary` sample in the same order — whether the
//!    vehicle advance runs serially or sharded over a `WorkerPool` of any
//!    size, with or without stall-fault injection on a subset of
//!    vehicles. Fleets range past `ADVANCE_CHUNK` vehicles, so the
//!    advance splits into several chunks, and the fault-free cases'
//!    demand bursts past `DISPATCH_CHUNK` requests a tick, so the
//!    candidate search does too.
//! 2. **Dispatch equivalence**: the indexed + sharded dispatcher produces
//!    the same bytes as the retained serial linear-scan reference across
//!    worker counts and block lengths (the spatial index's cell size),
//!    with the stall-requeue coupling live — and its deterministic work
//!    counters are identical for every worker count. Stall windows that
//!    end on a long queue make dispatch batches longer than
//!    `DISPATCH_CHUNK` requests, so the candidate search splits too.
//! 3. **Allocation-free steady state**: after a warm-up tick, the control
//!    kernel's per-thread arena serves every scratch take from its pool —
//!    zero heap allocations per tick — with the spatial index active.
//!
//! One structural fact the fleet relies on rides along: every
//! `grid_network` map is geometrically contiguous (the spatial index's
//! precondition), for any size and block length.

use sov_fleet::graph::RouteTable;
use sov_fleet::sim::{DispatchMode, FleetConfig, FleetFaultPlan, FleetSim, ADVANCE_CHUNK};
use sov_fleet::vehicle::{reset_scratch_stats, scratch_stats};
use sov_runtime::pool::WorkerPool;
use sov_testkit::prelude::*;
use sov_world::map::grid_network;

/// Fleet sizes the byte-identity cases draw from: up to three advance
/// chunks, so most cases shard the advance.
const MAX_VEHICLES: u32 = 3 * ADVANCE_CHUNK as u32;

/// A small-but-busy fleet the property cases perturb: every run completes
/// rides, exercises dispatch queues, and finishes in milliseconds.
fn base_cfg(seed: u64, vehicles: u32) -> FleetConfig {
    FleetConfig {
        seed,
        ticks: 180,
        grid_rows: 4,
        grid_cols: 4,
        block_m: 60.0,
        // ~2.7× the calibrated demand: the queue grows, so FIFO dispatch
        // order matters, but each tick's batch stays short (at most 9
        // requests over the byte-identity cases), inside one
        // `DISPATCH_CHUNK`.
        requests_per_tick: f64::from(vehicles) * 0.012,
        ..FleetConfig::perceptin_fleet(vehicles)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn report_is_byte_identical_across_workers_and_shards(
        seed in 0u64..u64::MAX,
        vehicles in 8u32..MAX_VEHICLES,
    ) {
        // ~24 requests a tick: the first ticks meet an idle fleet, so
        // fleets of 17 or more dispatch batches longer than
        // `DISPATCH_CHUNK` (every such case here does, at 19–34 requests)
        // and the sharded candidate search splits into chunks.
        let cfg = FleetConfig {
            requests_per_tick: 24.0,
            ..base_cfg(seed, vehicles)
        };
        let reference = FleetSim::new(cfg.clone()).run(None);
        prop_assert!(reference.rides_completed > 0, "workload too idle to test");
        for lanes in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(lanes);
            let sharded = FleetSim::new(cfg.clone()).run(Some(&pool));
            prop_assert_eq!(&reference, &sharded, "lanes {}, vehicles {}", lanes, vehicles);
        }
    }

    #[test]
    fn report_is_byte_identical_under_fault_injection(
        seed in 0u64..u64::MAX,
        fault_seed in 0u64..u64::MAX,
        fraction in 0.1f64..0.9,
        vehicles in 8u32..MAX_VEHICLES,
    ) {
        let cfg = FleetConfig {
            fault: Some(FleetFaultPlan {
                seed: fault_seed,
                from_tick: 40,
                until_tick: 120,
                fraction,
            }),
            // Short enough to fire inside the window, so the requeue
            // coupling is exercised under sharding too.
            stall_requeue_ticks: Some(20),
            ..base_cfg(seed, vehicles)
        };
        let reference = FleetSim::new(cfg.clone()).run(None);
        prop_assert!(reference.stalled_ticks > 0, "fault window never stalled anyone");
        for lanes in [2usize, 4, 8] {
            let pool = WorkerPool::new(lanes);
            let sharded = FleetSim::new(cfg.clone()).run(Some(&pool));
            prop_assert_eq!(&reference, &sharded, "faulted run, lanes {}", lanes);
        }
    }

    #[test]
    fn checksum_is_sensitive_to_the_seed(seed in 0u64..u64::MAX - 1) {
        let a = FleetSim::new(base_cfg(seed, 16)).run(None);
        let b = FleetSim::new(base_cfg(seed + 1, 16)).run(None);
        prop_assert!(a.checksum != b.checksum, "adjacent seeds collided");
    }

    #[test]
    fn grid_network_connections_touch_exactly(
        rows in 2u32..16,
        cols in 2u32..16,
        block_m in 0.5f64..250.0,
    ) {
        // A lane's end and its successor's start are the same
        // intersection, computed by the same expression: the gap is 0.0
        // exactly, not merely within rounding, for non-integer blocks too.
        let table = RouteTable::new(&grid_network(rows, cols, block_m, 2.5, 5.6));
        prop_assert_eq!(
            table.max_connection_gap_m(),
            0.0,
            "{}×{} grid, block {} m",
            rows,
            cols,
            block_m
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The tentpole gate: indexed + sharded dispatch is byte-identical to
    // the serial linear-scan reference across every configuration axis,
    // and its work counters cannot see the worker pool.
    #[test]
    fn dispatch_equivalence_across_modes_workers_and_block_sizes(
        seed in 0u64..u64::MAX,
        vehicles in 8u32..MAX_VEHICLES,
        block_m in 30.0f64..150.0,
        fault_axis in 0u32..2,
    ) {
        let fault = (fault_axis == 1).then_some(FleetFaultPlan {
            seed: seed ^ 0xFA17,
            from_tick: 40,
            until_tick: 120,
            fraction: 0.5,
        });
        let linear_cfg = FleetConfig {
            dispatch: DispatchMode::Linear,
            stall_requeue_ticks: Some(20),
            fault,
            block_m,
            ..base_cfg(seed, vehicles)
        };
        let reference = FleetSim::new(linear_cfg.clone()).run(None);
        prop_assert!(reference.rides_completed > 0, "workload too idle to test");
        let indexed_cfg = FleetConfig {
            dispatch: DispatchMode::Indexed,
            ..linear_cfg
        };
        let mut serial_stats = None;
        for lanes in [0usize, 2, 8] {
            let pool = (lanes > 0).then(|| WorkerPool::new(lanes));
            let mut sim = FleetSim::new(indexed_cfg.clone());
            let report = sim.run(pool.as_ref());
            prop_assert_eq!(
                &reference, &report,
                "indexed != linear (lanes {}, vehicles {}, block {} m)",
                lanes, vehicles, block_m
            );
            let stats = sim.dispatch_stats();
            match serial_stats {
                None => serial_stats = Some(stats),
                Some(first) => prop_assert_eq!(
                    first, stats,
                    "work counters diverged across worker counts (lanes {})",
                    lanes
                ),
            }
        }
    }
}

#[test]
fn steady_state_fleet_tick_is_allocation_free() {
    // Serial run on this thread so the thread-local scratch arena sees
    // every control-kernel take. base_cfg defaults to indexed dispatch,
    // so the spatial index (rebuild + ring search) is on the measured
    // path.
    let mut sim = FleetSim::new(base_cfg(7, 32));
    assert_eq!(sim.config().dispatch, DispatchMode::Indexed);
    // Warm-up: enough ticks for vehicles to start driving (the kernel
    // only runs on driving ticks) and for the arena to pool its buffer.
    for _ in 0..60 {
        sim.tick_once(None);
    }
    assert!(
        sim.vehicles().iter().any(|v| v.driving_ticks > 0),
        "warm-up never drove — the assertion below would be vacuous"
    );
    reset_scratch_stats();
    for _ in 0..120 {
        sim.tick_once(None);
    }
    let stats = scratch_stats();
    assert!(
        stats.takes > 0,
        "steady state never used the kernel scratch"
    );
    assert_eq!(
        stats.allocations, 0,
        "steady-state fleet tick allocated scratch ({} takes, {} allocs)",
        stats.takes, stats.allocations
    );
    assert_eq!(stats.reuses, stats.takes, "every take must hit the pool");
}
