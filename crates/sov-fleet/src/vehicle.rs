//! Per-vehicle serving state machine — the body of the sharded fleet tick.
//!
//! Each [`FleetVehicle`] owns everything its per-tick [`step`]
//! (`FleetVehicle::step`) touches: pose, battery, duty, the current
//! assignment and its accumulators. A step reads only shared immutable
//! state (the [`RouteTable`] and [`StepParams`]) besides the vehicle
//! itself, which is what makes the fleet tick shardable with no
//! synchronization: chunks of the vehicle array can run on any worker in
//! any order and produce the same bytes as a serial sweep.
//!
//! The lookahead control kernel borrows its scratch buffer from a
//! per-thread [`FrameArena`], so after one warm-up tick per worker the
//! steady-state fleet tick performs zero heap allocation
//! ([`scratch_stats`] exposes the counters the tests assert on).

use crate::graph::{FleetPos, RouteField, RouteTable};
use crate::request::RideRequest;
use crate::sim::FleetFaultPlan;
use sov_runtime::arena::{ArenaStats, FrameArena};
use sov_sim::time::SimDuration;
use sov_vehicle::battery::Battery;
use std::sync::Arc;

thread_local! {
    /// Per-thread scratch pool for the control kernel. Worker-local state
    /// never feeds back into vehicle outputs, so it cannot break the
    /// serial/sharded byte-identity invariant.
    static SCRATCH: FrameArena = FrameArena::new();
}

/// Allocation counters of the calling thread's control-kernel scratch
/// arena (see [`FrameArena::stats`]).
#[must_use]
pub fn scratch_stats() -> ArenaStats {
    SCRATCH.with(FrameArena::stats)
}

/// Zeroes the calling thread's scratch counters — warm up, reset, run a
/// tick, assert `allocations == 0`.
pub fn reset_scratch_stats() {
    SCRATCH.with(FrameArena::reset_stats);
}

/// What a vehicle is doing this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Duty {
    /// Available for dispatch.
    Idle,
    /// Driving empty to a pickup.
    ToPickup,
    /// Carrying a passenger to the drop-off.
    Onboard,
    /// On a charging stall until full (the Eq. 2 availability cost made
    /// explicit: a charging vehicle serves no rides).
    Charging,
}

/// An accepted ride being served.
///
/// Carries the compiled route fields for both legs so the per-tick
/// advance never recomputes routing: `to_origin` is dropped at pickup
/// (that leg is over), `to_dest` lives for the ride.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The request id.
    pub request_id: u64,
    /// Tick the request arrived on.
    pub request_tick: u64,
    /// Tick the passenger was picked up on (meaningful once
    /// [`Duty::Onboard`]).
    pub pickup_tick: u64,
    /// Pickup position.
    pub origin: FleetPos,
    /// Drop-off position.
    pub dest: FleetPos,
    /// Shortest origin → destination distance (meters).
    pub direct_m: f64,
    /// Route field toward the pickup lane; `None` once picked up.
    pub to_origin: Option<Arc<RouteField>>,
    /// Route field toward the drop-off lane.
    pub to_dest: Arc<RouteField>,
}

impl Assignment {
    /// Reconstructs the original request (for deterministic requeue after
    /// a stall timeout).
    #[must_use]
    pub fn to_request(&self) -> RideRequest {
        RideRequest {
            id: self.request_id,
            tick: self.request_tick,
            origin: self.origin,
            dest: self.dest,
            direct_m: self.direct_m,
        }
    }
}

/// A completed ride, recorded by the vehicle that served it and drained
/// into the fleet report on the serial merge phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RideEvent {
    /// The request id.
    pub request_id: u64,
    /// Ticks between request arrival and pickup.
    pub wait_ticks: u64,
    /// Ticks between pickup and drop-off.
    pub travel_ticks: u64,
    /// Shortest origin → destination distance (meters).
    pub direct_m: f64,
}

/// Immutable per-tick parameters shared by every vehicle step.
#[derive(Debug, Clone, Copy)]
pub struct StepParams<'a> {
    /// Compiled routing tables.
    pub table: &'a RouteTable,
    /// Current tick index.
    pub tick: u64,
    /// Tick length (seconds).
    pub dt_s: f64,
    /// Electrical load while driving (kW): base + autonomy.
    pub drive_load_kw: f64,
    /// Electrical load while idle or stalled (kW): the autonomy stack
    /// stays powered between rides.
    pub idle_load_kw: f64,
    /// Charging stall power (kW).
    pub charge_rate_kw: f64,
    /// State of charge below which an off-duty vehicle heads to charge.
    pub reserve_soc: f64,
    /// Lookahead samples of the control kernel per driving tick.
    pub lookahead: u32,
    /// Optional stall-fault plan.
    pub fault: Option<&'a FleetFaultPlan>,
    /// Consecutive stalled ticks after which a not-yet-picked-up ride is
    /// returned for requeue (`None` disables the coupling). Onboard rides
    /// are never returned — the passenger is already in the pod.
    pub stall_requeue_ticks: Option<u64>,
}

/// One vehicle of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetVehicle {
    /// Vehicle id == index in the fleet array (dispatch tie-break key).
    pub id: u32,
    /// Current network position.
    pub pos: FleetPos,
    /// Battery state.
    pub battery: Battery,
    duty: Duty,
    assignment: Option<Assignment>,
    /// Consecutive stalled ticks ending at the current tick.
    stall_run: u64,
    /// Whether the most recent step found this vehicle stalled — a
    /// stalled-but-idle vehicle is not dispatchable.
    stalled_now: bool,
    /// A ride abandoned by the stall-timeout coupling, awaiting the
    /// serial merge's requeue (at most one per tick).
    pub returned: Option<Assignment>,
    /// Completed rides awaiting the serial merge (drained every tick).
    pub completed: Vec<RideEvent>,
    /// Total distance driven (meters).
    pub odometer_m: f64,
    /// Total energy drawn from the battery (kWh).
    pub energy_kwh: f64,
    /// Accumulated lookahead curvature (radians) — the control kernel's
    /// output, folded into the fleet checksum.
    pub control_effort: f64,
    /// Ticks spent driving (to pickup or onboard).
    pub driving_ticks: u64,
    /// Ticks spent on a charging stall.
    pub charging_ticks: u64,
    /// Ticks lost to injected stall faults.
    pub stalled_ticks: u64,
}

impl FleetVehicle {
    /// Creates an idle, fully charged vehicle at `pos`.
    #[must_use]
    pub fn new(id: u32, pos: FleetPos, capacity_kwh: f64) -> Self {
        // One ride can complete per tick; reserving up front keeps the
        // steady-state tick free of event-buffer growth.
        let completed = Vec::with_capacity(2);
        Self {
            id,
            pos,
            battery: Battery::full(capacity_kwh),
            duty: Duty::Idle,
            assignment: None,
            stall_run: 0,
            stalled_now: false,
            returned: None,
            completed,
            odometer_m: 0.0,
            energy_kwh: 0.0,
            control_effort: 0.0,
            driving_ticks: 0,
            charging_ticks: 0,
            stalled_ticks: 0,
        }
    }

    /// Current duty.
    #[must_use]
    pub fn duty(&self) -> Duty {
        self.duty
    }

    /// The ride being served, if any.
    #[must_use]
    pub fn assignment(&self) -> Option<&Assignment> {
        self.assignment.as_ref()
    }

    /// Whether the dispatcher may assign a ride to this vehicle.
    ///
    /// Idle and not stalled as of the last step: a frozen pod cannot
    /// start driving toward a pickup.
    #[must_use]
    pub fn is_available(&self) -> bool {
        self.duty == Duty::Idle && !self.stalled_now
    }

    /// Whether the most recent step found this vehicle stall-faulted.
    #[must_use]
    pub fn currently_stalled(&self) -> bool {
        self.stalled_now
    }

    /// Accepts a ride (dispatcher only), carrying the compiled route
    /// fields for both legs.
    ///
    /// # Panics
    ///
    /// Panics if the vehicle is not available, or (debug builds) if a
    /// field routes to the wrong lane.
    pub fn assign(
        &mut self,
        request: &RideRequest,
        tick: u64,
        to_origin: Arc<RouteField>,
        to_dest: Arc<RouteField>,
    ) {
        assert!(self.is_available(), "dispatching to a busy vehicle");
        debug_assert_eq!(to_origin.dest(), request.origin.lane);
        debug_assert_eq!(to_dest.dest(), request.dest.lane);
        self.assignment = Some(Assignment {
            request_id: request.id,
            request_tick: request.tick,
            pickup_tick: tick,
            origin: request.origin,
            dest: request.dest,
            direct_m: request.direct_m,
            to_origin: Some(to_origin),
            to_dest,
        });
        self.duty = Duty::ToPickup;
    }

    /// Advances the vehicle by one tick. Touches only `self` plus the
    /// shared immutable `params` — the sharding contract.
    pub fn step(&mut self, p: &StepParams<'_>) {
        if p.fault.is_some_and(|f| f.stalled(self.id, p.tick)) {
            self.stalled_now = true;
            self.stalled_ticks += 1;
            self.stall_run += 1;
            self.drain(p.idle_load_kw, p.dt_s);
            // Per-ride fault coupling: a pod frozen past the timeout on
            // its way to a pickup gives the ride back for requeue. The
            // trigger is a pure function of the fault plan and the tick,
            // so it cannot perturb serial/sharded byte-identity.
            if let Some(limit) = p.stall_requeue_ticks {
                if self.duty == Duty::ToPickup && self.stall_run >= limit {
                    self.returned = self.assignment.take();
                    self.duty = Duty::Idle;
                }
            }
            return;
        }
        self.stalled_now = false;
        self.stall_run = 0;
        match self.duty {
            Duty::Charging => {
                self.charging_ticks += 1;
                self.battery
                    .recharge(p.charge_rate_kw, SimDuration::from_secs_f64(p.dt_s));
                if self.battery.is_full() {
                    self.duty = Duty::Idle;
                }
            }
            Duty::Idle => {
                self.drain(p.idle_load_kw, p.dt_s);
                if self.battery.soc() < p.reserve_soc {
                    self.duty = Duty::Charging;
                }
            }
            Duty::ToPickup | Duty::Onboard => {
                self.driving_ticks += 1;
                self.drain(p.drive_load_kw, p.dt_s);
                let budget = p.table.speed_limit(self.pos.lane) * p.dt_s;
                let a = self
                    .assignment
                    .as_ref()
                    .expect("driving implies an assignment");
                let (target, field) = if self.duty == Duty::ToPickup {
                    (
                        a.origin,
                        a.to_origin
                            .as_ref()
                            .expect("pickup field lives until pickup"),
                    )
                } else {
                    (a.dest, &a.to_dest)
                };
                let adv = p.table.advance_with(&mut self.pos, target, budget, field);
                self.odometer_m += adv.moved_m;
                self.control_kernel(p);
                if adv.arrived {
                    self.on_arrival(p);
                }
            }
        }
    }

    /// Handles reaching the current target: pickup → onboard, or drop-off
    /// → record the ride and go idle (or charge if below reserve).
    fn on_arrival(&mut self, p: &StepParams<'_>) {
        if self.duty == Duty::ToPickup {
            let a = self.assignment.as_mut().expect("arrived with assignment");
            a.pickup_tick = p.tick;
            // The pickup leg is over; release its route field.
            a.to_origin = None;
            self.duty = Duty::Onboard;
        } else {
            let a = self.assignment.take().expect("arrived with assignment");
            self.completed.push(RideEvent {
                request_id: a.request_id,
                wait_ticks: a.pickup_tick - a.request_tick,
                travel_ticks: p.tick - a.pickup_tick,
                direct_m: a.direct_m,
            });
            self.duty = if self.battery.soc() < p.reserve_soc {
                Duty::Charging
            } else {
                Duty::Idle
            };
        }
    }

    /// Drains the battery at `load_kw` for one tick, crediting the energy
    /// actually delivered (clamped by the remaining charge).
    fn drain(&mut self, load_kw: f64, dt_s: f64) {
        let before = self.battery.remaining_kwh();
        let _ = self
            .battery
            .drain(load_kw, SimDuration::from_secs_f64(dt_s));
        self.energy_kwh += before - self.battery.remaining_kwh();
    }

    /// Lookahead control kernel: samples poses along the current lane at
    /// 0.5 m spacing and accumulates the absolute heading change — the
    /// per-vehicle compute that the sharded tick parallelizes. Scratch
    /// comes from the per-thread arena, so steady state allocates nothing.
    fn control_kernel(&mut self, p: &StepParams<'_>) {
        let lane_len = p.table.lane_length(self.pos.lane);
        let effort = SCRATCH.with(|arena| {
            let mut headings: Vec<f64> = arena.take();
            for k in 0..p.lookahead {
                let s = (self.pos.s + 0.5 * f64::from(k + 1)).min(lane_len);
                headings.push(
                    p.table
                        .pose(FleetPos {
                            lane: self.pos.lane,
                            s,
                        })
                        .theta,
                );
            }
            let mut effort = 0.0;
            for w in headings.windows(2) {
                effort += sov_math::angle::diff(w[1], w[0]).abs();
            }
            arena.recycle(headings);
            effort
        });
        self.control_effort += effort;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RideGen;
    use sov_world::map::grid_network;

    fn setup() -> (RouteTable, FleetVehicle) {
        let table = RouteTable::new(&grid_network(3, 3, 50.0, 2.5, 8.0));
        let pos = table.sample(0.1);
        (table, FleetVehicle::new(0, pos, 6.0))
    }

    fn params<'a>(table: &'a RouteTable, tick: u64) -> StepParams<'a> {
        StepParams {
            table,
            tick,
            dt_s: 1.0,
            drive_load_kw: 0.775,
            idle_load_kw: 0.175,
            charge_rate_kw: 6.0,
            reserve_soc: 0.15,
            lookahead: 8,
            fault: None,
            stall_requeue_ticks: None,
        }
    }

    fn some_request(table: &RouteTable) -> RideRequest {
        let mut gen = RideGen::new(1, 1.0, 100.0);
        let mut cache = crate::graph::RouteCache::new(table);
        let mut out = Vec::new();
        let mut tick = 0;
        while out.is_empty() {
            gen.generate(tick, table, &mut cache, &mut out);
            tick += 1;
        }
        out[0]
    }

    fn assign(v: &mut FleetVehicle, table: &RouteTable, req: &RideRequest, tick: u64) {
        v.assign(
            req,
            tick,
            Arc::new(table.field_to(req.origin.lane)),
            Arc::new(table.field_to(req.dest.lane)),
        );
    }

    #[test]
    fn serves_a_ride_end_to_end() {
        let (table, mut v) = setup();
        let req = some_request(&table);
        assign(&mut v, &table, &req, 5);
        assert_eq!(v.duty(), Duty::ToPickup);
        assert!(!v.is_available());
        let mut tick = 5;
        while v.completed.is_empty() {
            v.step(&params(&table, tick));
            tick += 1;
            assert!(tick < 10_000, "ride never completed");
        }
        let e = v.completed[0];
        assert_eq!(e.request_id, req.id);
        assert!(v.duty() == Duty::Idle || v.duty() == Duty::Charging);
        assert!(v.odometer_m >= req.direct_m - 1e-6);
        assert!(v.energy_kwh > 0.0);
        assert!(v.driving_ticks > 0);
        // The last step ran at tick − 1: wait + travel spans arrival → drop.
        assert_eq!(
            e.wait_ticks + e.travel_ticks,
            (tick - 1) - req.tick,
            "wait + travel accounts for every tick since arrival"
        );
    }

    #[test]
    fn idle_vehicle_drains_and_eventually_charges() {
        let (table, mut v) = setup();
        let mut ticks = 0u64;
        while v.duty() != Duty::Charging {
            v.step(&params(&table, ticks));
            ticks += 1;
            assert!(ticks < 200_000, "never reached the reserve threshold");
        }
        // 6 kWh × 85% at 0.175 kW ≈ 29.1 h ≈ 104.9 k ticks.
        assert!(ticks > 100_000);
        // Charging at 6 kW refills within ~1 h of ticks.
        let mut charge_ticks = 0u64;
        while v.duty() == Duty::Charging {
            v.step(&params(&table, ticks + charge_ticks));
            charge_ticks += 1;
            assert!(charge_ticks < 10_000, "never finished charging");
        }
        assert!(v.battery.is_full());
        assert_eq!(v.duty(), Duty::Idle);
        assert_eq!(v.charging_ticks, charge_ticks);
    }

    #[test]
    fn stalled_vehicle_does_not_move() {
        let (table, mut v) = setup();
        let req = some_request(&table);
        assign(&mut v, &table, &req, 0);
        let plan = FleetFaultPlan {
            seed: 1,
            from_tick: 0,
            until_tick: 100,
            fraction: 1.0,
        };
        let before = v.pos;
        let mut p = params(&table, 0);
        p.fault = Some(&plan);
        v.step(&p);
        assert_eq!(v.pos, before);
        assert_eq!(v.stalled_ticks, 1);
        assert!(v.energy_kwh > 0.0, "stalled vehicles still draw idle load");
    }

    #[test]
    #[should_panic(expected = "busy vehicle")]
    fn double_dispatch_rejected() {
        let (table, mut v) = setup();
        let req = some_request(&table);
        assign(&mut v, &table, &req, 0);
        assign(&mut v, &table, &req, 0);
    }

    #[test]
    fn stall_timeout_returns_the_ride_exactly_once() {
        let (table, mut v) = setup();
        let req = some_request(&table);
        assign(&mut v, &table, &req, 0);
        let plan = FleetFaultPlan {
            seed: 1,
            from_tick: 0,
            until_tick: 1000,
            fraction: 1.0,
        };
        let mut p = params(&table, 0);
        p.fault = Some(&plan);
        p.stall_requeue_ticks = Some(5);
        // Four stalled ticks: still holding the ride.
        for tick in 0..4 {
            p.tick = tick;
            v.step(&p);
            assert!(v.returned.is_none(), "returned before the timeout");
            assert_eq!(v.duty(), Duty::ToPickup);
        }
        // Fifth consecutive stall crosses the threshold: ride comes back.
        p.tick = 4;
        v.step(&p);
        let returned = v.returned.take().expect("timeout must return the ride");
        assert_eq!(returned.to_request(), req);
        assert_eq!(v.duty(), Duty::Idle);
        assert!(v.assignment().is_none());
        assert!(
            !v.is_available(),
            "still stalled: must not be dispatchable this tick"
        );
        // Further stalled ticks do not return anything else.
        p.tick = 5;
        v.step(&p);
        assert!(v.returned.is_none());
    }

    #[test]
    fn onboard_rides_survive_stall_timeouts() {
        let (table, mut v) = setup();
        let req = some_request(&table);
        assign(&mut v, &table, &req, 0);
        // Drive (fault-free) until pickup.
        let mut p = params(&table, 0);
        let mut tick = 0;
        while v.duty() == Duty::ToPickup {
            p.tick = tick;
            v.step(&p);
            tick += 1;
            assert!(tick < 10_000, "never reached the pickup");
        }
        assert_eq!(v.duty(), Duty::Onboard);
        // Stall far past the timeout: the passenger stays aboard.
        let plan = FleetFaultPlan {
            seed: 1,
            from_tick: tick,
            until_tick: tick + 50,
            fraction: 1.0,
        };
        p.fault = Some(&plan);
        p.stall_requeue_ticks = Some(5);
        for _ in 0..50 {
            p.tick = tick;
            v.step(&p);
            tick += 1;
        }
        assert!(v.returned.is_none(), "onboard rides must never requeue");
        assert_eq!(v.duty(), Duty::Onboard);
        // Stall run resets once the fault clears; the ride completes.
        p.fault = None;
        while v.completed.is_empty() {
            p.tick = tick;
            v.step(&p);
            tick += 1;
            assert!(tick < 10_000, "ride never completed after the stall");
        }
        assert_eq!(v.completed[0].request_id, req.id);
    }

    #[test]
    fn interrupted_stall_runs_do_not_accumulate() {
        let (table, mut v) = setup();
        let req = some_request(&table);
        assign(&mut v, &table, &req, 0);
        // Alternate stalled / clear ticks: the consecutive-run counter
        // resets every clear tick, so a timeout of 2 never fires.
        let plan = FleetFaultPlan {
            seed: 1,
            from_tick: 0,
            until_tick: 1000,
            fraction: 1.0,
        };
        let mut p = params(&table, 0);
        p.stall_requeue_ticks = Some(2);
        for tick in 0..40 {
            p.tick = tick;
            p.fault = (tick % 2 == 0).then_some(&plan);
            v.step(&p);
            assert!(v.returned.is_none(), "interrupted runs must not trigger");
        }
        assert_eq!(v.duty(), Duty::ToPickup);
    }
}
