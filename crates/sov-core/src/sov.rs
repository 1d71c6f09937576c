//! The closed-loop Systems-on-a-Vehicle.
//!
//! [`Sov::drive`] runs a complete vehicle through a deployment scenario at
//! the 10 Hz control rate:
//!
//! * the **proactive path** — camera/VIO/GPS fusion → detection + radar
//!   tracking → MPC planning — produces control commands that reach the ECU
//!   only after the frame's sampled computing latency plus the CAN-bus
//!   delay (the full Fig. 2 chain), and
//! * the **reactive path** — radar/sonar minimum range fed straight into
//!   the ECU — overrides the actuator whenever an object gets inside the
//!   4.1 m envelope (Sec. IV), which is what keeps the vehicle safe when
//!   the proactive path is too slow or the detector misses an object.
//!
//! The report records how the drive went and the latency/engagement
//! statistics the paper quotes ("our deployed vehicles stay in the
//! proactive path for over 90% of the time").
//!
//! [`Sov::drive_with_plan`] additionally injects a [`FaultPlan`] —
//! camera stalls, GPS outages, ghost radar returns, CAN losses, compute
//! overruns — and a [`HealthMonitor`](crate::health::HealthMonitor)
//! degrades the vehicle through the modes of
//! [`DegradationMode`](crate::health::DegradationMode) instead of letting
//! a silent sensor drive the vehicle into an obstacle.

use crate::config::VehicleConfig;
use crate::health::{DegradationMode, HealthConfig, HealthMonitor};
use crate::pipeline::LatencyPipeline;
use crate::safety::{SafetyChecker, SafetyConfig, SafetyReport};
use crate::tail::{DeadlineMonitor, TailReport};
use sov_fault::{FaultKind, FaultPlan};
use sov_math::stats::Summary;
use sov_math::{angle, SovRng};
use sov_perception::detection::{Detection, Detector, DetectorProfile};
use sov_perception::frontend::{EgoMotionRequest, FrontEnd};
use sov_perception::fusion::{FixOutcome, FusionConfig, GpsVioFusion};
use sov_perception::vio::{VioConfig, VioFilter};
use sov_planning::mpc::MpcPlanner;
use sov_planning::{Planner, PlanningInput, PlanningObstacle};
use sov_runtime::ledger::{FrameSample, PERCEPTION, PLANNING, SENSING};
use sov_runtime::pipeline::run_inline;
use sov_runtime::PerfContext;
use sov_sensors::camera::{Camera, Intrinsics, StereoRig};
use sov_sensors::gps::{GnssQuality, GpsConfig, GpsReceiver};
use sov_sensors::radar::RadarArray;
use sov_sensors::sonar::SonarArray;
use sov_sensors::sync::Synchronizer;
use sov_sim::time::{SimDuration, SimTime};
use sov_vehicle::battery::Battery;
use sov_vehicle::dynamics::VehicleState;
use sov_vehicle::ecu::Ecu;
use sov_world::obstacle::ObstacleClass;
use sov_world::scenario::Scenario;
use std::fmt;

/// How a drive ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriveOutcome {
    /// The route was completed or the frame budget expired while moving.
    Completed,
    /// The vehicle ended the run stationary (e.g. held by the reactive
    /// override or a blocked lane).
    Stopped,
    /// Ground-truth contact with an obstacle — a safety failure.
    Collision,
}

/// Errors starting a drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SovError {
    /// `max_frames` was zero.
    NoFrames,
    /// The configured MPC horizon (`VehicleConfig::mpc.horizon`) was zero.
    ZeroHorizon,
}

impl fmt::Display for SovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoFrames => write!(f, "drive requires at least one frame"),
            Self::ZeroHorizon => write!(f, "MPC horizon must be at least one step"),
        }
    }
}

impl std::error::Error for SovError {}

/// Statistics of one drive.
///
/// `PartialEq` is exact (bitwise on every float) over every *simulated*
/// field: the determinism tests assert that a re-drive of the same seed
/// produces an identical report. The [`tail`](Self::tail) breakdown is
/// excluded — it is wall-clock telemetry and differs from run to run.
#[derive(Debug, Clone)]
pub struct DriveReport {
    /// Outcome.
    pub outcome: DriveOutcome,
    /// Control frames executed.
    pub frames: u64,
    /// Ground-truth distance covered (m).
    pub distance_m: f64,
    /// Number of reactive-override engagements.
    pub override_engagements: u64,
    /// Control ticks during which the override was engaged.
    pub override_ticks: u64,
    /// Computing latencies `T_comp` per frame (ms).
    pub computing: Summary,
    /// Closest ground-truth gap to any obstacle observed (m).
    pub min_obstacle_gap_m: f64,
    /// Energy drawn from the battery (kWh).
    pub energy_used_kwh: f64,
    /// Final localization error of the fused estimate (m).
    pub final_localization_error_m: f64,
    /// Mean ground-truth cross-track error against the route (m).
    pub mean_cross_track_error_m: f64,
    /// Control ticks spent in each degradation mode, indexed like
    /// [`DegradationMode::ALL`].
    pub mode_ticks: [u64; 4],
    /// Degradation-mode transitions taken during the drive.
    pub mode_transitions: u64,
    /// Completed recoveries back to [`DegradationMode::Nominal`], in ms
    /// from the first downgrade to re-entering nominal.
    pub recovery_ms: Summary,
    /// Control frames whose computing latency missed the health deadline.
    pub deadline_misses: u64,
    /// Planner→ECU command frames lost to CAN fault injection.
    pub can_frames_lost: u64,
    /// Camera frames deliberately shed by the deadline monitor's
    /// escalation step ([`sov_runtime::ledger::TailPolicy::shed`]).
    /// Simulated (deterministic per seed + policy), so it *is* part of
    /// report equality.
    pub frames_shed: u64,
    /// Per-tick safety-invariant outcome (no-collision, min-gap,
    /// SafeStop-reachability against ground truth; see
    /// [`crate::safety`]).
    pub safety: SafetyReport,
    /// Wall-clock tail-latency breakdown from the drive's
    /// [`LatencyLedger`](sov_runtime::ledger::LatencyLedger): the control
    /// path's planner latency and each stage's compute per call, plus the
    /// tail-policy counters. **Excluded from `PartialEq`.**
    pub tail: TailReport,
}

impl PartialEq for DriveReport {
    fn eq(&self, other: &Self) -> bool {
        // Every simulated field, bitwise; `tail` deliberately excluded
        // (wall-clock telemetry — the asymmetry it measures is real).
        self.outcome == other.outcome
            && self.frames == other.frames
            && self.distance_m == other.distance_m
            && self.override_engagements == other.override_engagements
            && self.override_ticks == other.override_ticks
            && self.computing == other.computing
            && self.min_obstacle_gap_m == other.min_obstacle_gap_m
            && self.energy_used_kwh == other.energy_used_kwh
            && self.final_localization_error_m == other.final_localization_error_m
            && self.mean_cross_track_error_m == other.mean_cross_track_error_m
            && self.mode_ticks == other.mode_ticks
            && self.mode_transitions == other.mode_transitions
            && self.recovery_ms == other.recovery_ms
            && self.deadline_misses == other.deadline_misses
            && self.can_frames_lost == other.can_frames_lost
            && self.frames_shed == other.frames_shed
            && self.safety == other.safety
    }
}

impl DriveReport {
    /// Fraction of control ticks spent on the proactive path.
    #[must_use]
    pub fn proactive_fraction(&self) -> f64 {
        if self.frames == 0 {
            return 1.0;
        }
        1.0 - self.override_ticks as f64 / self.frames as f64
    }

    /// Fraction of control ticks spent in `mode`.
    #[must_use]
    pub fn mode_fraction(&self, mode: DegradationMode) -> f64 {
        if self.frames == 0 {
            return if mode == DegradationMode::Nominal {
                1.0
            } else {
                0.0
            };
        }
        self.mode_ticks[mode as usize] as f64 / self.frames as f64
    }
}

/// The complete on-vehicle system.
#[derive(Debug)]
pub struct Sov {
    config: VehicleConfig,
    planner: MpcPlanner,
    detector: Detector,
    camera: Camera,
    radars: RadarArray,
    sonars: SonarArray,
    gps: GpsReceiver,
    latency: LatencyPipeline,
    synchronizer: Synchronizer,
    rng: SovRng,
    /// Buffer reuse, stage timing and the tail policy. Defaults to a
    /// fresh context; never affects any computed value except through
    /// shedding (determinism invariant).
    perf: PerfContext,
}

impl Sov {
    /// Builds an SoV for the given configuration and seed.
    #[must_use]
    pub fn new(config: VehicleConfig, seed: u64) -> Self {
        Self {
            planner: MpcPlanner::new(config.mpc),
            detector: Detector::new(DetectorProfile::matched(), seed),
            camera: Camera::new(Intrinsics::hd1080(), 0.0, 1.2, 60.0, 0.5)
                .expect("valid camera constants"),
            radars: RadarArray::perceptin_six(config.radar, seed),
            sonars: SonarArray::perceptin_eight(config.sonar, seed),
            gps: GpsReceiver::new(GpsConfig::default(), seed),
            latency: LatencyPipeline::new(&config, seed),
            synchronizer: Synchronizer::new(config.sync_strategy, config.sync_config.clone()),
            rng: SovRng::seed_from_u64(seed ^ 0x534F56),
            perf: PerfContext::default(),
            config,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &VehicleConfig {
        &self.config
    }

    /// Installs the performance context: the frame arena the drive's
    /// buffers come from, the ledger its stage calls are timed into, and
    /// the tail policy. The drive runs on the calling thread with any
    /// context; only [`TailPolicy::shed`](sov_runtime::ledger::TailPolicy)
    /// changes the report, by shedding camera frames on purpose.
    pub fn set_perf(&mut self, perf: PerfContext) {
        self.perf = perf;
    }

    /// The active performance context (e.g. to inspect
    /// [`ArenaStats`](sov_runtime::arena::ArenaStats) after a drive).
    #[must_use]
    pub fn perf(&self) -> &PerfContext {
        &self.perf
    }

    /// Mutable access to the detector, e.g. to deploy a newly trained model
    /// from the cloud (Sec. II-B) or to inject a degraded model in failure
    /// studies.
    pub fn detector_mut(&mut self) -> &mut Detector {
        &mut self.detector
    }

    /// Drives the scenario for up to `max_frames` control frames with no
    /// injected faults.
    ///
    /// # Errors
    ///
    /// As [`Sov::drive_with_plan`].
    pub fn drive(&mut self, scenario: &Scenario, max_frames: u64) -> Result<DriveReport, SovError> {
        self.drive_with_plan(scenario, max_frames, &FaultPlan::nominal())
    }

    /// Drives the scenario while injecting the faults scheduled in
    /// `faults`. The health monitor watches every sensor feed and the
    /// computing deadline, and degrades the vehicle (`Nominal →
    /// DegradedLocalization → ReactiveOnly → SafeStop`) rather than let a
    /// dead input steer it; recovery is automatic once the inputs return.
    /// Driving under [`FaultPlan::nominal`] is exactly [`Sov::drive`].
    ///
    /// The whole drive runs on the calling thread: the visual front-end
    /// and the detector at each camera event, the MPC planner at each
    /// control tick. Each call is timed into the context's ledger, one
    /// compute sample per call, which fills [`DriveReport::tail`].
    ///
    /// # Errors
    ///
    /// Returns [`SovError::NoFrames`] if `max_frames == 0`, and
    /// [`SovError::ZeroHorizon`] if the configured MPC horizon is zero.
    pub fn drive_with_plan(
        &mut self,
        scenario: &Scenario,
        max_frames: u64,
        faults: &FaultPlan,
    ) -> Result<DriveReport, SovError> {
        if max_frames == 0 {
            return Err(SovError::NoFrames);
        }
        if self.config.mpc.horizon == 0 {
            return Err(SovError::ZeroHorizon);
        }
        Ok(drive_loop(self, scenario, max_frames, faults))
    }
}

/// The closed-loop event kernel: sensing, the three compute stages,
/// fusion, health and bookkeeping, in event order on the calling thread.
fn drive_loop(
    sov: &mut Sov,
    scenario: &Scenario,
    max_frames: u64,
    faults: &FaultPlan,
) -> DriveReport {
    let Sov {
        config,
        planner,
        detector,
        camera,
        radars,
        sonars,
        gps,
        latency,
        synchronizer,
        rng,
        perf,
    } = sov;
    // The visual front-end draws its seed first, before any camera event.
    let mut frontend = FrontEnd::new(
        rng.next_u64(),
        camera.intrinsics().fx,
        StereoRig::perceptin_default().baseline_m(),
    );
    let dt = config.control_period_s();
    let world = &scenario.world;
    let route_len = world.route.length_m();
    let start_pose = world
        .route
        .pose_at(&world.map, 0.0)
        .expect("route built from this map");
    let mut state = VehicleState {
        pose: start_pose,
        speed_mps: 0.0,
    };
    let mut ecu = Ecu::new(config.ecu, config.vehicle);
    let mut fusion = GpsVioFusion::new(FusionConfig::default());
    let mut battery = Battery::full(config.battery.capacity_kwh);
    let mut report = DriveReport {
        outcome: DriveOutcome::Completed,
        frames: 0,
        distance_m: 0.0,
        override_engagements: 0,
        override_ticks: 0,
        computing: Summary::new(),
        min_obstacle_gap_m: f64::INFINITY,
        energy_used_kwh: 0.0,
        final_localization_error_m: 0.0,
        mean_cross_track_error_m: 0.0,
        mode_ticks: [0; 4],
        mode_transitions: 0,
        recovery_ms: Summary::new(),
        deadline_misses: 0,
        can_frames_lost: 0,
        frames_shed: 0,
        safety: SafetyReport::default(),
        tail: TailReport::default(),
    };
    let health_cfg = HealthConfig::default();
    let mut health = HealthMonitor::new(health_cfg, SimTime::ZERO);
    // Tail accounting + the deadline-driven tail policy. The monitor is
    // fed only the *modeled* computing latency — deterministic per seed —
    // so its verdicts (and any shed they trigger) never depend on timing.
    let policy = perf.tail;
    let led = &perf.ledger;
    led.begin(&perf.arena);
    let mut monitor = DeadlineMonitor::new(health_cfg.compute_deadline);
    // Ground-truth invariant checker.
    let mut safety = SafetyChecker::new(SafetyConfig {
        max_decel_mps2: config.vehicle.max_decel_mps2,
        ..SafetyConfig::default()
    });
    let mut cross_track_sum = 0.0f64;
    let mut station = 0.0f64;
    let cruise = scenario.cruise_speed_mps.min(config.vehicle.max_speed_mps);

    // Multi-rate sensing driven by the discrete-event kernel: radar and
    // sonar at 20 Hz feed the reactive path between control ticks (this
    // is what gives the reactive path its ~30–50 ms response, Sec. IV),
    // the camera runs at 30 FPS, GPS at 10 Hz, control at 10 Hz.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        RadarSonar,
        Camera(u64),
        Gps(u64),
        Control(u64),
    }
    let radar_period = SimDuration::from_millis(50);
    let camera_period = SimDuration::from_secs_f64(1.0 / 30.0);
    let gps_period = SimDuration::from_millis(100);
    let control_period = SimDuration::from_secs_f64(dt);
    let mut queue = sov_sim::event::EventQueue::new();
    // Insertion order fixes same-instant priority: sensors before
    // control, so a control tick always plans on fresh data.
    queue.schedule(SimTime::ZERO, Ev::RadarSonar);
    queue.schedule(SimTime::ZERO, Ev::Camera(0));
    queue.schedule(SimTime::from_millis(50), Ev::Gps(0));
    queue.schedule(SimTime::ZERO, Ev::Control(0));

    // Latest sensor products consumed by the control tick. The newest
    // camera frame's detections and the planner's obstacle list each live
    // in one buffer from the frame arena, reused all drive long — no
    // steady-state allocation.
    let mut last_scan: Option<sov_sensors::radar::RadarScan> = None;
    let mut vio = VioFilter::new(start_pose, VioConfig::default());
    let mut detections: Vec<Detection> = perf.arena.take();
    let mut obstacles: Vec<PlanningObstacle> = perf.arena.take();
    let class_of = |id| {
        world
            .obstacles
            .iter()
            .find(|o| o.id == id)
            .map_or(ObstacleClass::StaticObject, |o| o.class)
    };
    // Camera-frame bookkeeping for the VIO front-end.
    let mut last_camera_pose = start_pose;
    let mut last_camera_t = SimTime::ZERO;
    // Physics integration cursor.
    let mut physics_t = SimTime::ZERO;
    // Counter for the radar/sonar events' fault draws.
    let mut radar_k: u64 = 0;

    'sim: while let Some((t, ev)) = queue.pop() {
        // Advance the vehicle to `t` under the ECU's actuation,
        // promoting matured commands along the way.
        while physics_t < t {
            let step = SimDuration::from_millis(10).min(t.since(physics_t));
            let act = ecu.actuation(physics_t);
            let prev = state.pose;
            state = state.step(
                act.net_accel_mps2(),
                act.yaw_rate_rps,
                step.as_secs_f64(),
                &config.vehicle,
            );
            report.distance_m += prev.distance(&state.pose);
            physics_t += step;
        }
        let frac = (station / route_len).clamp(0.0, 1.0);

        match ev {
            Ev::RadarSonar => {
                // ---- Reactive path: straight into the ECU. ----
                let mut scan = radars.scan_all(&state.pose, state.speed_mps, world, t);
                if faults.strikes(FaultKind::RadarGhost, t, radar_k) {
                    // A phantom frontal return: the reactive path and
                    // the planner both see it, causing spurious braking
                    // — the failure is availability, never safety.
                    scan.targets.push(sov_sensors::radar::RadarTarget {
                        truth: sov_world::obstacle::ObstacleId(u32::MAX),
                        range_m: faults.uniform(FaultKind::RadarGhost, radar_k, 2.0, 12.0),
                        azimuth_rad: 0.0,
                        radial_velocity_mps: -state.speed_mps,
                    });
                }
                let sonar_range = if faults.is_active(FaultKind::SonarDropout, t) {
                    None
                } else {
                    let range = sonars.min_frontal_range(&state.pose, world, t);
                    health.sonar_seen(t);
                    range
                };
                health.radar_seen(t);
                radar_k += 1;
                // Brake for obstructions in the vehicle's *swept
                // corridor*: ahead (|azimuth| < 90°) and within ~1.2 m
                // of the path centerline — a pedestrian standing beside
                // the lane must not slam the brakes.
                let radar_frontal = scan
                    .targets
                    .iter()
                    .filter(|tg| {
                        tg.azimuth_rad.abs() < std::f64::consts::FRAC_PI_2
                            && (tg.range_m * tg.azimuth_rad.sin()).abs() < 1.2
                    })
                    .map(|tg| tg.range_m)
                    .fold(f64::INFINITY, f64::min);
                let radar_frontal = radar_frontal.is_finite().then_some(radar_frontal);
                let min_range = match (radar_frontal, sonar_range) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (Some(a), None) => Some(a),
                    (None, b) => b,
                };
                let overrides_before = ecu.overrides_engaged_count();
                ecu.reactive_range(min_range, t);
                report.override_engagements += ecu.overrides_engaged_count() - overrides_before;
                last_scan = Some(scan);
                queue.schedule(t + radar_period, Ev::RadarSonar);
            }
            Ev::Camera(k)
                if faults.is_active(FaultKind::CameraStall, t)
                    || faults.strikes(FaultKind::CameraDrop, t, k) =>
            {
                // The frame never arrives: no detections, no VIO
                // update, and the camera watchdog keeps starving. The
                // camera clock itself keeps ticking.
                queue.schedule(t + camera_period, Ev::Camera(k + 1));
            }
            Ev::Camera(k) if policy.shed && monitor.shed_predicted() => {
                // Adaptive shedding (escalation): with the predicted
                // latency far past the deadline, the lowest-priority
                // pending work — the next speculative camera frame — is
                // dropped before capture. Unlike a fault, a deliberate
                // shed still feeds the camera watchdog: the vehicle is
                // choosing to skip the frame, not losing the sensor.
                // Deterministic: the predicate depends only on the
                // seeded latency model, never on wall-clock time.
                report.frames_shed += 1;
                led.note_shed();
                health.camera_delivery(t, k);
                queue.schedule(t + camera_period, Ev::Camera(k + 1));
            }
            Ev::Camera(k) => {
                // The per-frame stage work: the visual front-end
                // (disparity, tracking, ego-motion) and detection. The
                // ego-motion increment takes the synchronizer's timestamp
                // assignment (Sec. VI-A; software-only sync corrupts the
                // increment via the rotation–translation ambiguity leak),
                // the ECU's current yaw rate, and any injected IMU bias.
                let cam_frame = camera.capture(&state.pose, world, &world.landmarks, t, rng);
                let req = (k > 0).then(|| {
                    let offset_ms = synchronizer.camera_imu_offset_ms(k, rng);
                    let shift = SimDuration::from_millis_f64(offset_ms);
                    let yaw_rate = ecu.actuation(t).yaw_rate_rps;
                    let epsilon = yaw_rate * offset_ms * 1e-3;
                    EgoMotionRequest {
                        prev_pose: last_camera_pose,
                        pose: state.pose,
                        t_from: last_camera_t + shift,
                        t_to: t + shift,
                        // Leak × ε × Z̄, plus injected IMU bias leaking
                        // spurious lateral motion into the increment.
                        lateral_bias_m: 0.15 * epsilon * 12.0
                            + faults.magnitude(FaultKind::ImuBiasJump, t, k),
                    }
                });
                let (product, sample) =
                    run_inline(SENSING, k, || frontend.process(&cam_frame, req.as_ref()));
                led.record_stage(sample);
                if let Some(delta) = &product.delta {
                    vio.visual_update(delta);
                }
                let ((), sample) = run_inline(PERCEPTION, k, || {
                    detector.detect_into(&cam_frame, class_of, &mut detections);
                });
                led.record_stage(sample);
                last_camera_pose = state.pose;
                last_camera_t = t;
                // Delivery carries the frame-sequence number so the
                // monitor can see intermittent drops (sequence gaps)
                // that never starve the stall watchdog.
                health.camera_delivery(t, k);
                queue.schedule(t + camera_period, Ev::Camera(k + 1));
            }
            Ev::Gps(k) if faults.is_active(FaultKind::GpsOutage, t) => {
                // Tunnel/canopy outage: no fix at all. Fusion keeps
                // riding the VIO dead-reckoning (Sec. VI) while the
                // GPS watchdog starves.
                queue.schedule(t + gps_period, Ev::Gps(k + 1));
            }
            Ev::Gps(k) => {
                let quality = if faults.is_active(FaultKind::GpsMultipath, t) {
                    GnssQuality::Multipath
                } else if scenario.gps_degraded_at(frac) {
                    if k % 2 == 0 {
                        GnssQuality::Multipath
                    } else {
                        GnssQuality::NoFix
                    }
                } else {
                    GnssQuality::Strong
                };
                let fix = gps.fix(t, &state.pose, quality);
                // Only a fix that actually corrected the filter counts
                // as GNSS health: a gated-out (multipath) fix leaves
                // localization running on dead-reckoned VIO, and the
                // watchdog starving on rejections is what demotes the
                // vehicle to DegradedLocalization speed.
                if fusion.ingest_fix(&mut vio, &fix) == FixOutcome::Fused {
                    health.gps_seen(t);
                }
                queue.schedule(t + gps_period, Ev::Gps(k + 1));
            }
            Ev::Control(frame) => {
                report.frames = frame + 1;
                if ecu.override_engaged() {
                    report.override_ticks += 1;
                }
                let complexity = scenario.complexity.at(frac);
                let frame_latency = latency.next_frame(complexity);
                let mut computing = frame_latency.computing();
                // Compute faults stretch this frame's critical path:
                // a constant overrun (throttling/contention) and a
                // per-frame RPR reconfiguration spike (Sec. V-B).
                if let Some(w) = faults.active(FaultKind::StageOverrun, t) {
                    computing += SimDuration::from_millis_f64(w.intensity);
                }
                let spike = faults.magnitude(FaultKind::RprDelaySpike, t, frame);
                if spike > 0.0 {
                    computing += SimDuration::from_millis_f64(spike);
                }
                report.computing.record(computing.as_millis_f64());
                // The overrun predictor sees only the modeled stream, so
                // the tail policy is deterministic per seed.
                monitor.observe(computing.as_millis_f64());
                if monitor.overrun_predicted() {
                    led.note_overrun();
                }

                // Degradation state machine: watchdogs + compute
                // deadline decide the operating mode for this tick.
                health.compute_latency(computing);
                let (mode, recovered) = health.assess(t);
                if let Some(d) = recovered {
                    report.recovery_ms.record(d.as_millis_f64());
                }
                report.mode_ticks[mode as usize] += 1;
                let ref_speed = match mode {
                    DegradationMode::Nominal => cruise,
                    // VIO-only localization drifts; trim speed so the
                    // drift stays inside the lane over the outage.
                    DegradationMode::DegradedLocalization => cruise * 0.8,
                    // Creep inside the radar+sonar reactive envelope
                    // (4.1 m engage range ≫ braking distance at 2 m/s).
                    DegradationMode::ReactiveOnly => cruise.min(2.0),
                    DegradationMode::SafeStop => 0.0,
                };
                let degraded = mode != DegradationMode::Nominal;

                // Localization estimate drives the lane-keeping inputs.
                let est = fusion.position(&vio);
                let (est_station, lateral) = world
                    .route
                    .project(&world.map, est.x, est.y)
                    .expect("route lanes exist");
                // Obstacles in *route* coordinates: the radar's
                // vehicle-frame lateral plus the vehicle's own route
                // offset, so maneuver targets and obstacles share a
                // frame.
                obstacles.clear();
                if let Some(scan) = last_scan.as_ref() {
                    obstacles.extend(
                        scan.targets
                            .iter()
                            .filter(|tg| tg.azimuth_rad.abs() < 1.2)
                            .map(|tg| PlanningObstacle {
                                station_m: tg.range_m * tg.azimuth_rad.cos(),
                                lateral_m: lateral + tg.range_m * tg.azimuth_rad.sin(),
                                speed_along_mps: (state.speed_mps + tg.radial_velocity_mps)
                                    .max(0.0),
                                radius_m: 0.6,
                            }),
                    );
                }
                // With the proactive perception path degraded the
                // camera detections are stale — plan on radar alone.
                if mode < DegradationMode::ReactiveOnly {
                    for det in &detections {
                        let covered = obstacles
                            .iter()
                            .any(|o| (o.station_m - det.depth_m).abs() < 3.0);
                        if !covered {
                            obstacles.push(PlanningObstacle {
                                station_m: det.depth_m,
                                lateral_m: 0.0,
                                speed_along_mps: 0.0,
                                radius_m: det.class.radius_m(),
                            });
                        }
                    }
                }

                let route_pose = world
                    .route
                    .pose_at(&world.map, est_station)
                    .expect("route lanes exist");
                let heading_error = angle::diff(est.theta, route_pose.theta);
                // Lane-change availability from the map's adjacency
                // (the lane-granularity maneuver space of Sec. III-D).
                let (current_lane, _) = world.route.lane_at(est_station);
                let (left_ok, right_ok, lane_width) =
                    world
                        .map
                        .lane(current_lane)
                        .map_or((false, false, 2.5), |l| {
                            (
                                l.left_neighbor().is_some(),
                                l.right_neighbor().is_some(),
                                l.width_m(),
                            )
                        });
                let input = PlanningInput {
                    speed_mps: state.speed_mps,
                    ref_speed_mps: ref_speed,
                    lateral_offset_m: lateral,
                    heading_error_rad: heading_error,
                    obstacles,
                    lane_width_m: lane_width,
                    left_lane_available: left_ok,
                    right_lane_available: right_ok,
                };
                let (plan, sample) = run_inline(PLANNING, frame, || planner.plan(&input));
                led.record_stage(sample);
                // The planner call *is* the control path: its span is the
                // end-to-end compute Eq. 1 bounds.
                led.record_frame(FrameSample::from_stage(&sample, degraded));
                obstacles = input.obstacles;
                // The command reaches the ECU after computing + CAN —
                // unless the CAN frame is lost, in which case the ECU
                // simply keeps actuating the previous command (the plan
                // above still ran, so the planner's warm start advances
                // either way). The ECU itself ignores commands while the
                // reactive override is engaged.
                let can_lost = faults.strikes(FaultKind::CanFrameLoss, t, frame);
                if can_lost {
                    report.can_frames_lost += 1;
                } else {
                    ecu.accept_command(plan.command, t + computing + SimDuration::from_millis(1));
                }

                // ---- Bookkeeping (per control tick). ----
                battery.drain(
                    config.battery.base_load_kw + config.power.total_pad_kw(),
                    control_period,
                );
                safety.check_tick(world, &state.pose, state.speed_mps, mode, t, frame);
                if let Some((_, gap)) =
                    world.nearest_frontal_obstacle(&state.pose, t, std::f64::consts::PI)
                {
                    report.min_obstacle_gap_m = report.min_obstacle_gap_m.min(gap);
                    if gap <= 0.05 {
                        report.outcome = DriveOutcome::Collision;
                        break 'sim;
                    }
                }
                let (s_now, true_lateral) = world
                    .route
                    .project(&world.map, state.pose.x, state.pose.y)
                    .expect("route lanes exist");
                cross_track_sum += true_lateral.abs();
                // Monotone progress (projection can jump at corners).
                if s_now > station || (station - s_now) > route_len / 2.0 {
                    station = s_now;
                }
                if report.distance_m >= route_len {
                    break 'sim; // one full loop completed
                }
                if frame + 1 < max_frames {
                    queue.schedule(t + control_period, Ev::Control(frame + 1));
                } else {
                    break 'sim;
                }
            }
        }
    }
    // Hand the drive's buffers back to the arena, collect the tail
    // breakdown and recycle the ledger's buffers too (allocation-free
    // across drives once warm).
    perf.arena.recycle(detections);
    perf.arena.recycle(obstacles);
    report.tail = TailReport::collect(led, &perf.arena);
    report.energy_used_kwh = config.battery.capacity_kwh - battery.remaining_kwh();
    report.mode_transitions = health.transitions().len() as u64;
    report.deadline_misses = health.deadline_misses();
    report.mean_cross_track_error_m = cross_track_sum / report.frames.max(1) as f64;
    report.final_localization_error_m = fusion.position(&vio).distance(&state.pose);
    report.safety = safety.finish();
    if report.outcome != DriveOutcome::Collision && state.speed_mps < 0.1 {
        report.outcome = DriveOutcome::Stopped;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_frames() {
        let scenario = Scenario::fishers_indiana(1);
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), 1);
        assert_eq!(sov.drive(&scenario, 0).unwrap_err(), SovError::NoFrames);
    }

    #[test]
    fn rejects_a_zero_mpc_horizon() {
        let scenario = Scenario::fishers_indiana(1);
        let mut config = VehicleConfig::perceptin_pod();
        config.mpc.horizon = 0;
        let mut sov = Sov::new(config, 1);
        assert_eq!(sov.drive(&scenario, 10).unwrap_err(), SovError::ZeroHorizon);
    }

    #[test]
    fn clear_road_cruise_completes_without_overrides() {
        let mut scenario = Scenario::fishers_indiana(2);
        scenario.world.obstacles.clear();
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), 2);
        let report = sov.drive(&scenario, 300).unwrap();
        assert_eq!(report.outcome, DriveOutcome::Completed);
        assert_eq!(report.override_engagements, 0);
        assert!(report.distance_m > 100.0, "covered {} m", report.distance_m);
        assert!(report.proactive_fraction() > 0.99);
    }

    #[test]
    fn planner_stops_for_static_obstacle_without_reactive_help() {
        let scenario = Scenario::fishers_indiana(3);
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), 3);
        // Long enough to reach the obstacle at 60 m and wait it out.
        let report = sov.drive(&scenario, 250).unwrap();
        assert_ne!(
            report.outcome,
            DriveOutcome::Collision,
            "gap {}",
            report.min_obstacle_gap_m
        );
        assert!(
            report.min_obstacle_gap_m > 1.0,
            "gap {}",
            report.min_obstacle_gap_m
        );
        // A planned stop keeps the vehicle outside the reactive envelope —
        // the paper's vehicles stay proactive > 90% of the time.
        assert!(
            report.proactive_fraction() > 0.9,
            "proactive {}",
            report.proactive_fraction()
        );
    }

    #[test]
    fn sudden_obstacle_triggers_reactive_override() {
        use sov_math::Pose2;
        use sov_sim::time::SimTime;
        use sov_world::obstacle::{Obstacle, ObstacleId};
        let mut scenario = Scenario::fishers_indiana(8);
        // A pedestrian steps out ~8 m in front of the accelerating vehicle
        // at t = 3 s and clears the road at t = 6 s — close enough that the
        // proactive stop ends inside the reactive envelope.
        scenario.world.obstacles = vec![Obstacle::fixed(
            ObstacleId(0),
            ObstacleClass::Pedestrian,
            Pose2::new(16.0, 0.3, 0.0),
            SimTime::from_millis(3_000),
        )
        .until(SimTime::from_millis(6_000))];
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), 8);
        let report = sov.drive(&scenario, 250).unwrap();
        assert_ne!(
            report.outcome,
            DriveOutcome::Collision,
            "gap {}",
            report.min_obstacle_gap_m
        );
        assert!(
            report.min_obstacle_gap_m > 0.05,
            "gap {}",
            report.min_obstacle_gap_m
        );
        assert!(
            report.override_engagements >= 1,
            "reactive path must engage"
        );
        // The override is brief; most of the drive stays proactive.
        let frac = report.proactive_fraction();
        assert!((0.5..1.0).contains(&frac), "proactive {frac}");
    }

    #[test]
    fn localization_stays_accurate_with_fusion() {
        let mut scenario = Scenario::fishers_indiana(4);
        scenario.world.obstacles.clear();
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), 4);
        let report = sov.drive(&scenario, 400).unwrap();
        assert!(
            report.final_localization_error_m < 2.0,
            "fused localization error {} m",
            report.final_localization_error_m
        );
    }

    #[test]
    fn latency_statistics_are_recorded() {
        let mut scenario = Scenario::fishers_indiana(5);
        scenario.world.obstacles.clear();
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), 5);
        let mut report = sov.drive(&scenario, 200).unwrap();
        assert_eq!(report.computing.len(), report.frames as usize);
        let mean = report.computing.mean();
        assert!((120.0..220.0).contains(&mean), "mean computing {mean} ms");
        assert!(report.computing.p99() > mean);
    }

    #[test]
    fn energy_accounting_matches_power_model() {
        let mut scenario = Scenario::fishers_indiana(6);
        scenario.world.obstacles.clear();
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), 6);
        let report = sov.drive(&scenario, 100).unwrap();
        // 10 s at (0.6 + 0.175) kW = 0.775 kW → ≈ 0.00215 kWh.
        let expected = 0.775 * (10.0 / 3600.0);
        assert!(
            (report.energy_used_kwh - expected).abs() < 1e-4,
            "energy {} vs {expected}",
            report.energy_used_kwh
        );
    }

    #[test]
    fn software_sync_localizes_worse_than_hardware() {
        use sov_sensors::sync::SyncStrategy;
        // A winding site (turning is where camera–IMU desync bites).
        let mut scenario = Scenario::fribourg_campus(11);
        scenario.world.obstacles.clear();
        let mut hw = Sov::new(VehicleConfig::perceptin_pod(), 11);
        let sw_config = VehicleConfig {
            sync_strategy: SyncStrategy::SoftwareOnly,
            ..VehicleConfig::perceptin_pod()
        };
        let mut sw = Sov::new(sw_config, 11);
        let r_hw = hw.drive(&scenario, 400).unwrap();
        let r_sw = sw.drive(&scenario, 400).unwrap();
        // GPS fusion bounds both, but the software-sync vehicle leans on it
        // far harder; compare the raw VIO corruption via final error.
        assert!(
            r_sw.final_localization_error_m >= r_hw.final_localization_error_m,
            "software {} vs hardware {}",
            r_sw.final_localization_error_m,
            r_hw.final_localization_error_m
        );
    }

    #[test]
    fn overtakes_slow_vehicle_via_lane_change() {
        // Sec. III-D: maneuvers happen at lane granularity — on the
        // two-lane course the vehicle passes a 1.5 m/s forklift instead of
        // crawling behind it.
        let scenario = Scenario::shenzhen_two_lane(42);
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), 42);
        let report = sov.drive(&scenario, 500).unwrap();
        assert_ne!(
            report.outcome,
            DriveOutcome::Collision,
            "gap {}",
            report.min_obstacle_gap_m
        );
        assert!(
            report.min_obstacle_gap_m > 0.5,
            "gap {}",
            report.min_obstacle_gap_m
        );
        // Following the forklift for 50 s would cover ~≤110 m; overtaking
        // restores cruise speed.
        assert!(
            report.distance_m > 150.0,
            "only covered {:.0} m — no overtake",
            report.distance_m
        );
        // Time spent in the outer lane shows up as cross-track offset.
        assert!(report.mean_cross_track_error_m > 0.4, "never left the lane");
    }

    #[test]
    fn flaky_radar_still_drives_safely() {
        use sov_sensors::radar::RadarConfig;
        // Failure injection: 40% of radar scans are unstable. Detection +
        // the remaining stable scans + sonar keep the vehicle safe.
        let scenario = Scenario::fishers_indiana(21);
        let config = VehicleConfig {
            radar: RadarConfig {
                instability_prob: 0.4,
                ..RadarConfig::default()
            },
            ..VehicleConfig::perceptin_pod()
        };
        let mut sov = Sov::new(config, 21);
        let report = sov.drive(&scenario, 250).unwrap();
        assert_ne!(
            report.outcome,
            DriveOutcome::Collision,
            "gap {}",
            report.min_obstacle_gap_m
        );
        assert!(report.min_obstacle_gap_m > 0.05);
    }

    #[test]
    fn serial_drive_is_allocation_free_with_a_warm_arena() {
        let scenario = Scenario::fishers_indiana(3);
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), 3);
        let _ = sov.drive(&scenario, 200).unwrap();
        // With the arena warm, a further drive's steady-state control
        // ticks allocate nothing: every buffer comes off the free list.
        sov.perf().arena.reset_stats();
        let _ = sov.drive(&scenario, 50).unwrap();
        let stats = sov.perf().arena.stats();
        assert_eq!(stats.allocations, 0, "steady state must be reuse-only");
        assert!(stats.reuses > 0, "arena must actually be exercised");
    }

    #[test]
    fn every_stage_call_records_compute() {
        // perfbench's drive split reads one compute sample per front-end,
        // detector and planner call from the tail report.
        let scenario = Scenario::fishers_indiana(3);
        let mut sov = Sov::new(VehicleConfig::perceptin_pod(), 3);
        let report = sov.drive(&scenario, 100).unwrap();
        let calls = |stage: usize| report.tail.stage_compute_ms[stage].len() as u64;
        assert_eq!(calls(PLANNING), report.frames, "one plan per control tick");
        // 30 FPS camera against the 10 Hz control loop, no camera fault.
        assert_eq!(calls(SENSING), 3 * (report.frames - 1) + 1);
        assert_eq!(calls(PERCEPTION), calls(SENSING), "one detection per frame");
        for stage in [SENSING, PERCEPTION, PLANNING] {
            let busy: f64 = report.tail.stage_compute_ms[stage].samples().iter().sum();
            assert!(busy > 0.0, "stage {stage} recorded no compute");
        }
    }

    #[test]
    fn lidar_variant_burns_more_energy() {
        let mut scenario = Scenario::fishers_indiana(7);
        scenario.world.obstacles.clear();
        let mut pod = Sov::new(VehicleConfig::perceptin_pod(), 7);
        let mut lidar = Sov::new(VehicleConfig::lidar_variant(), 7);
        let e_pod = pod.drive(&scenario, 150).unwrap().energy_used_kwh;
        let e_lidar = lidar.drive(&scenario, 150).unwrap().energy_used_kwh;
        assert!(e_lidar > e_pod * 1.05, "{e_lidar} vs {e_pod}");
    }
}
