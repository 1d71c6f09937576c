//! Fleet-scale ride serving: thousands of vehicles as one sharded,
//! deterministic workload.
//!
//! Every other perf layer in this workspace (arena/SoA kernels, the
//! worker pool, frame pipelining, tail levers) scales a *single* vehicle.
//! This crate adds the deployment axis the paper's economics (Sec. III-B/C,
//! Eq. 2, Table II) are really about: a whole micromobility fleet serving
//! ride demand, where per-vehicle watts and dollars multiply by the fleet
//! size and availability lost to charging is revenue lost.
//!
//! * [`graph`] — [`graph::RouteTable`]: a `LaneMap` compiled to CSR
//!   adjacency with on-demand binary-heap Dijkstra ([`graph::RouteField`]
//!   per destination, `O(E log N)` per miss — no dense N×N matrix) behind
//!   a deterministic [`graph::RouteCache`] that sizes itself from the map
//!   (every field resident within a fixed byte budget, FIFO eviction past
//!   it); `O(log n)` uniform position sampling and exact-arrival
//!   `advance_with` along shortest paths.
//! * [`index`] — [`index::SpatialIndex`]: fixed-geometry grid buckets
//!   (one street block per cell) over available vehicles;
//!   nearest-available queries expand rings of buckets with an exact
//!   Euclidean lower bound instead of scanning the whole fleet, with tie
//!   behavior (distance, then lower id) identical to the linear scan. It
//!   accepts only maps whose lane connections touch, which every
//!   `grid_network` map does exactly.
//! * [`request`] — [`request::RideGen`]: seeded Poisson ride demand with
//!   origins/destinations uniform by arclength over the network.
//! * [`vehicle`] — [`vehicle::FleetVehicle`]: the per-vehicle serving
//!   state machine (idle → to-pickup → onboard → idle/charging) with
//!   battery accounting, an arena-backed lookahead control kernel, and a
//!   stall-timeout coupling that hands a not-yet-picked-up ride back for
//!   deterministic re-dispatch.
//! * [`sim`] — [`sim::FleetSim`]: the four-phase tick (serial arrivals,
//!   indexed **sharded** dispatch with a serial FIFO commit, sharded
//!   vehicle advance over `sov-runtime`'s `WorkerPool` in fixed chunks
//!   of [`sim::ADVANCE_CHUNK`] vehicles and 16 requests, serial ordered
//!   merge) and the aggregate
//!   [`sim::FleetReport`]. [`sim::FleetConfig`] describes only the
//!   workload: no field of it changes how a tick splits or caches its
//!   work.
//!
//! # Determinism
//!
//! The fleet report is **byte-identical to the serial linear-scan
//! reference for any dispatch mode and worker count**. The argument is
//! the house invariant (DESIGN.md §8/§14/§15) applied to new job shapes:
//! chunk boundaries depend only on input sizes and the fixed chunk
//! constants; the parallel dispatch stage is a read-only search against a
//! pre-dispatch snapshot whose results a serial pass commits in strict
//! FIFO order; cache residency changes which Dijkstra runs, never the
//! field values; and every stochastic or order-sensitive phase (demand,
//! commit, summary merges, checksum) runs serially in a fixed order. The `fleet_matrix` bench bin and the
//! crate's proptests gate on exactly this property.
//!
//! # Example
//!
//! ```
//! use sov_fleet::sim::{DispatchMode, FleetConfig, FleetSim};
//! use sov_runtime::pool::WorkerPool;
//!
//! let cfg = FleetConfig {
//!     ticks: 120,
//!     grid_rows: 4,
//!     grid_cols: 4,
//!     ..FleetConfig::perceptin_fleet(16)
//! };
//! let indexed = FleetSim::new(cfg.clone()).run(None);
//! let pool = WorkerPool::new(4);
//! let sharded = FleetSim::new(cfg.clone()).run(Some(&pool));
//! assert_eq!(indexed, sharded); // byte-identical, any pool size
//! let linear = FleetSim::new(FleetConfig {
//!     dispatch: DispatchMode::Linear,
//!     ..cfg
//! })
//! .run(None);
//! assert_eq!(indexed, linear); // ... and any dispatch mode
//! ```

#![deny(missing_docs)]

pub mod graph;
pub mod index;
pub mod request;
pub mod sim;
pub mod vehicle;

pub use graph::{Bounds, FleetPos, RouteCache, RouteField, RouteTable};
pub use index::{Candidate, CandidateList, SpatialIndex, MAX_CANDIDATES};
pub use request::{RideGen, RideRequest};
pub use sim::{DispatchMode, DispatchStats, FleetConfig, FleetFaultPlan, FleetReport, FleetSim};
pub use vehicle::{Duty, FleetVehicle};
