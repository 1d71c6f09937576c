//! The Systems-on-a-Vehicle (SoV): the paper's end-to-end on-vehicle
//! processing system (Sec. IV–V).
//!
//! This crate ties every substrate together:
//!
//! * [`config`] — vehicle configurations: the deployed camera-based pod,
//!   the hypothetical LiDAR variant, and the rejected mobile-SoC variant.
//! * [`health`] — stale-data watchdogs and the degradation state machine
//!   (`Nominal → DegradedLocalization → ReactiveOnly → SafeStop`) that
//!   keeps the vehicle safe when sensors or compute fail.
//! * [`safety`] — ground-truth safety invariants (no-collision, min-gap,
//!   SafeStop-reachability) checked on every control tick and reported
//!   in [`sov::DriveReport::safety`]; the executable form of the paper's
//!   safety contract, used by the scenario-fuzzing harness.
//! * [`pipeline`] — the frame-latency model: sensing (camera pipeline
//!   transit) → perception (localization ∥ scene understanding, with
//!   detection→tracking serialized) → planning, using the platform
//!   execution profiles and the scenario's scene-complexity profile.
//! * [`characterize`] — the Sec. V-C characterization harness: best/mean/
//!   99th-percentile latency decompositions (Fig. 10a) and per-task
//!   averages (Fig. 10b).
//! * [`sov`] — the closed-loop vehicle: world + sensors + perception +
//!   planning + ECU + battery, with the **proactive path** subject to the
//!   computing latency and the **reactive path** overriding the ECU
//!   directly (Sec. IV).
//!
//! # Example
//!
//! ```
//! use sov_core::config::VehicleConfig;
//! use sov_core::sov::{DriveOutcome, Sov};
//! use sov_world::scenario::Scenario;
//!
//! let scenario = Scenario::fishers_indiana(42);
//! let mut sov = Sov::new(VehicleConfig::perceptin_pod(), 42);
//! let report = sov.drive(&scenario, 100).expect("simulation runs");
//! assert!(report.proactive_fraction() > 0.5);
//! # let _ = matches!(report.outcome, DriveOutcome::Completed | DriveOutcome::Stopped);
//! ```

#![deny(missing_docs)]

pub mod characterize;
pub mod config;
pub mod health;
pub mod pipeline;
pub mod safety;
pub mod sov;
pub mod tail;

pub use config::VehicleConfig;
pub use health::{DegradationMode, HealthConfig, HealthMonitor};
pub use safety::{SafetyChecker, SafetyConfig, SafetyReport};
pub use sov::{DriveOutcome, DriveReport, Sov};
pub use tail::{DeadlineMonitor, TailReport};
