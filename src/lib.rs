//! # `sov` — Systems-on-a-Vehicle
//!
//! A production-quality Rust reproduction of *"Building the Computing System
//! for Autonomous Micromobility Vehicles: Design Constraints and
//! Architectural Optimizations"* (MICRO 2020).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`math`] — linear algebra, quaternions, EKF, statistics, PRNG.
//! * [`sim`] — discrete-event simulation kernel and latency models.
//! * [`world`] — lane-graph maps, obstacles, deployment scenarios.
//! * [`sensors`] — camera/IMU/GPS/radar/sonar models and synchronization.
//! * [`perception`] — depth estimation, detection, tracking (KCF), VIO,
//!   GPS–VIO fusion.
//! * [`planning`] — MPC planner and the DP+QP "EM-style" baseline.
//! * [`platform`] — CPU/GPU/TX2/FPGA execution models, task mapping, the
//!   runtime-partial-reconfiguration engine and a cache simulator.
//! * [`lidar`] — point-cloud substrate (kd-tree, ICP, clustering) used by
//!   the LiDAR-vs-camera case study.
//! * [`vehicle`] — braking dynamics, battery/energy model, CAN bus, ECU,
//!   cost model.
//! * [`core`] — the SoV itself: the staged proactive pipeline, the reactive
//!   safety path, and the end-to-end characterization harness.
//! * [`cloud`] — the offline cloud services of Fig. 1: telemetry uplink
//!   policy, environment-specialized model training, map annotation, and
//!   the release-gating simulation service.
//! * [`fleet`] — fleet-scale ride serving: seeded Poisson demand over the
//!   lane graph, nearest-available dispatch via a deterministic spatial
//!   index with a sharded candidate search and serial FIFO commit, sparse
//!   on-demand routing behind a route cache sized from the map, and
//!   vehicle ticks sharded across the worker pool — reports
//!   byte-identical for any dispatch mode and worker count.
//! * [`runtime`] — the deterministic concurrency substrate: worker pool,
//!   frame pipeline, arenas, and the latency ledger.
//!
//! # Quickstart
//!
//! ```
//! use sov::core::config::VehicleConfig;
//! use sov::core::sov::{Sov, DriveOutcome};
//! use sov::world::scenario::Scenario;
//!
//! let scenario = Scenario::fishers_indiana(42);
//! let mut sov = Sov::new(VehicleConfig::perceptin_pod(), 42);
//! let report = sov.drive(&scenario, 200).expect("simulation runs");
//! assert!(matches!(report.outcome, DriveOutcome::Completed | DriveOutcome::Stopped));
//! ```

pub use sov_cloud as cloud;
pub use sov_core as core;
pub use sov_fleet as fleet;
pub use sov_lidar as lidar;
pub use sov_math as math;
pub use sov_perception as perception;
pub use sov_planning as planning;
pub use sov_platform as platform;
pub use sov_runtime as runtime;
pub use sov_sensors as sensors;
pub use sov_sim as sim;
pub use sov_vehicle as vehicle;
pub use sov_world as world;
