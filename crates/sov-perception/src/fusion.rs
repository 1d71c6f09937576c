//! GPS–VIO fusion (Sec. VI-B, "Augmenting Computing with Sensors").
//!
//! VIO fundamentally accumulates error with distance; rather than running a
//! compute-intensive drift-correction backend, the paper fuses the VIO
//! estimate with GNSS fixes through an Extended Kalman Filter:
//!
//! * when the GNSS signal is **strong**, the fix both feeds planning
//!   directly and corrects the VIO state;
//! * when reception is unstable (tunnels) or **multipath** corrupts the fix,
//!   the corrected VIO carries the vehicle through — the filter gates
//!   suspicious fixes with a Mahalanobis test.
//!
//! The EKF fusion step "executes in about 1 ms, much more lightweight than
//! the VIO localization algorithm (24 ms)" — the latency comparison is
//! reproduced by the platform model and the `measured_tasks` timings.

use crate::vio::VioFilter;
use sov_math::matrix::{Matrix, Vector};
use sov_math::Pose2;
use sov_sensors::gps::{GnssFix, GnssQuality};

/// Fusion configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionConfig {
    /// Measurement σ (m) assumed for strong GNSS fixes.
    pub gnss_sigma_m: f64,
    /// Mahalanobis-squared gate (2 DoF); fixes beyond it are rejected.
    /// 13.8 ≈ χ²(2) at 0.999.
    pub gate_chi2: f64,
}

impl Default for FusionConfig {
    fn default() -> Self {
        Self {
            gnss_sigma_m: 0.7,
            gate_chi2: 13.8,
        }
    }
}

/// Outcome of offering one GNSS fix to the filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FixOutcome {
    /// Fix accepted and fused into the VIO state.
    Fused,
    /// Fix rejected by the Mahalanobis gate (likely multipath).
    GatedOut,
    /// No usable fix (receiver reported no signal).
    NoSignal,
}

/// The GPS–VIO hybrid localizer.
#[derive(Debug, Clone, PartialEq)]
pub struct GpsVioFusion {
    config: FusionConfig,
    fixes_fused: u64,
    fixes_gated: u64,
}

impl GpsVioFusion {
    /// Creates the fusion layer.
    #[must_use]
    pub fn new(config: FusionConfig) -> Self {
        Self {
            config,
            fixes_fused: 0,
            fixes_gated: 0,
        }
    }

    /// Number of fixes fused so far.
    #[must_use]
    pub fn fixes_fused(&self) -> u64 {
        self.fixes_fused
    }

    /// Number of fixes rejected by the gate so far.
    #[must_use]
    pub fn fixes_gated(&self) -> u64 {
        self.fixes_gated
    }

    /// Offers a GNSS fix to correct the VIO filter.
    ///
    /// Strong fixes update the EKF position; degraded fixes are subjected to
    /// the Mahalanobis gate first; absent fixes leave VIO untouched.
    pub fn ingest_fix(&mut self, vio: &mut VioFilter, fix: &GnssFix) -> FixOutcome {
        if fix.quality == GnssQuality::NoFix || fix.position.0.is_nan() || fix.position.1.is_nan() {
            return FixOutcome::NoSignal;
        }
        let z = Vector::from_array([fix.position.0, fix.position.1]);
        let h = Matrix::<2, 3>::from_rows([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]);
        let sigma = match fix.quality {
            GnssQuality::Strong => self.config.gnss_sigma_m,
            // Degraded fixes get an inflated noise assumption.
            GnssQuality::Multipath => self.config.gnss_sigma_m * 3.0,
            GnssQuality::NoFix => unreachable!("handled above"),
        };
        let r = Matrix::from_diagonal([sigma * sigma, sigma * sigma]);
        // Gate against the *strong-fix* noise assumption regardless of
        // reported quality: a persistent multipath bias (metres, slowly
        // wandering) would look statistically plausible under the
        // inflated covariance it is fused with, and repeated updates
        // would walk the estimate onto the reflection. Judged against
        // the honest receiver noise it fails the gate and the corrected
        // VIO carries the vehicle through instead.
        let g = self.config.gnss_sigma_m;
        let r_gate = Matrix::from_diagonal([g * g, g * g]);
        let ekf = vio.ekf_mut();
        let s = *ekf.state();
        let predicted = Vector::from_array([s[0], s[1]]);
        match ekf.mahalanobis_sq(z, predicted, h, r_gate) {
            Ok(d2) if d2 <= self.config.gate_chi2 => {
                ekf.update(z, predicted, h, r)
                    .expect("innovation covariance is PD by construction");
                self.fixes_fused += 1;
                FixOutcome::Fused
            }
            Ok(_) => {
                self.fixes_gated += 1;
                FixOutcome::GatedOut
            }
            Err(_) => {
                self.fixes_gated += 1;
                FixOutcome::GatedOut
            }
        }
    }

    /// The position fed to planning (Sec. VI-B): the fused estimate.
    #[must_use]
    pub fn position(&self, vio: &VioFilter) -> Pose2 {
        vio.pose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vio::{FrameKind, VioConfig, VisualDelta};
    use sov_math::SovRng;
    use sov_sensors::gps::{GpsConfig, GpsReceiver};
    use sov_sim::time::SimTime;

    /// Drives VIO straight with a deliberate scale bias, optionally fusing
    /// GPS, and returns the final position error.
    fn drive(with_gps: bool, multipath: bool, seed: u64) -> f64 {
        let mut vio = VioFilter::new(Pose2::identity(), VioConfig::default());
        let mut fusion = GpsVioFusion::new(FusionConfig::default());
        let mut gps = GpsReceiver::new(GpsConfig::default(), seed);
        let mut rng = SovRng::seed_from_u64(seed);
        let v = 5.6;
        let frame_dt = 1.0 / 30.0;
        let mut truth = Pose2::identity();
        for i in 1..=3000u64 {
            let t_prev = SimTime::from_secs_f64((i - 1) as f64 * frame_dt);
            let t = SimTime::from_secs_f64(i as f64 * frame_dt);
            let next_truth = truth.step_unicycle(v, 0.0, frame_dt);
            // Biased visual increment: 1% scale error → drift grows ~1 m per
            // 100 m without correction.
            vio.visual_update(&VisualDelta {
                t_from: t_prev,
                t_to: t,
                forward_m: next_truth.distance(&truth) * 1.01 + rng.normal(0.0, 0.01),
                lateral_m: rng.normal(0.0, 0.01),
                dtheta: 0.0,
                kind: FrameKind::Tracked,
            });
            truth = next_truth;
            if with_gps && i % 3 == 0 {
                let quality = if multipath && (500..1000).contains(&i) {
                    GnssQuality::Multipath
                } else if multipath && (1000..1500).contains(&i) {
                    GnssQuality::NoFix
                } else {
                    GnssQuality::Strong
                };
                let fix = gps.fix(t, &truth, quality);
                let _ = fusion.ingest_fix(&mut vio, &fix);
            }
        }
        vio.pose().distance(&truth)
    }

    #[test]
    fn vio_alone_accumulates_drift() {
        let err = drive(false, false, 1);
        // 1% scale bias over 560 m ≈ 5.6 m drift.
        assert!(err > 3.0, "expected multi-meter drift, got {err} m");
    }

    #[test]
    fn gps_fusion_bounds_drift() {
        let err_gps = drive(true, false, 1);
        let err_raw = drive(false, false, 1);
        assert!(err_gps < 1.0, "fused error {err_gps} m");
        assert!(err_gps < err_raw / 3.0);
    }

    #[test]
    fn survives_outage_and_multipath() {
        let err = drive(true, true, 2);
        // Corrected VIO carries through the outage windows; final error
        // stays bounded.
        assert!(err < 2.0, "error with outages {err} m");
    }

    #[test]
    fn multipath_fix_is_gated() {
        let mut vio = VioFilter::new(Pose2::identity(), VioConfig::default());
        let mut fusion = GpsVioFusion::new(FusionConfig::default());
        // With tight covariance, a 20 m-off fix must be rejected.
        let fix = GnssFix {
            timestamp: SimTime::ZERO,
            position: (20.0, 0.0),
            quality: GnssQuality::Multipath,
        };
        assert_eq!(fusion.ingest_fix(&mut vio, &fix), FixOutcome::GatedOut);
        assert_eq!(fusion.fixes_gated(), 1);
        // A consistent strong fix is fused.
        let good = GnssFix {
            timestamp: SimTime::ZERO,
            position: (0.1, -0.1),
            quality: GnssQuality::Strong,
        };
        assert_eq!(fusion.ingest_fix(&mut vio, &good), FixOutcome::Fused);
        assert_eq!(fusion.fixes_fused(), 1);
    }

    #[test]
    fn no_signal_leaves_vio_untouched() {
        let mut vio = VioFilter::new(Pose2::new(3.0, 4.0, 0.1), VioConfig::default());
        let before = vio.pose();
        let mut fusion = GpsVioFusion::new(FusionConfig::default());
        let fix = GnssFix {
            timestamp: SimTime::ZERO,
            position: (f64::NAN, f64::NAN),
            quality: GnssQuality::NoFix,
        };
        assert_eq!(fusion.ingest_fix(&mut vio, &fix), FixOutcome::NoSignal);
        assert_eq!(vio.pose(), before);
    }
}
