//! The stereo/VIO visual front-end: the drive's sensing stage (Fig. 5).
//!
//! [`FrontEnd`] holds the front-end work — per-feature stereo disparity,
//! feature tracking against the previous frame, and the noisy ego-motion
//! increment — together with all of its mutable state: the
//! [`VisualFrontEnd`] motion model with its RNG, and the previous frame's
//! tracker templates.
//!
//! `Sov::drive_with_plan` calls [`FrontEnd::process`] on the calling
//! thread at each camera event, timed as the sensing stage:
//!
//! * the drive loop builds an immutable [`EgoMotionRequest`] from its own
//!   state for every frame after the first,
//! * `process` — the only place the front-end's state mutates — returns a
//!   `Copy` [`FrontEndOutput`], whose increment the loop feeds to
//!   `VioFilter::visual_update`.
//!
//! Frames arrive in capture order, so the front-end's state, and with it
//! its RNG draw sequence, is a pure function of the drive's inputs.

use crate::depth::disparity_for_depth;
use crate::tracking::FeatureTrackList;
use crate::vio::{VisualDelta, VisualFrontEnd};
use sov_math::Pose2;
use sov_sensors::camera::CameraFrame;
use sov_sim::time::SimTime;

/// Everything the ego-motion increment needs from the drive loop, captured
/// at the camera event: it depends on the loop's state — the previous
/// camera pose, the synchronizer's timestamp assignment, the ECU's current
/// yaw rate and any injected IMU bias — none of which [`FrontEnd`] owns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgoMotionRequest {
    /// Ground-truth pose at the previous camera frame.
    pub prev_pose: Pose2,
    /// Ground-truth pose at this frame.
    pub pose: Pose2,
    /// Assigned (synchronizer-shifted) timestamp of the previous frame.
    pub t_from: SimTime,
    /// Assigned timestamp of this frame.
    pub t_to: SimTime,
    /// Lateral bias to fold into the increment: the rotation–translation
    /// ambiguity leak from camera–IMU desync plus any injected IMU bias.
    pub lateral_bias_m: f64,
}

/// The immutable product of one front-end frame. `Copy`, so returning it
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontEndOutput {
    /// Ego-motion increment, when the drive loop requested one (every
    /// frame after the first); fed to `VioFilter::visual_update`.
    pub delta: Option<VisualDelta>,
    /// Landmark features in view this frame.
    pub features: u32,
    /// Features associated with the previous frame's tracker templates.
    pub tracked: u32,
    /// Mean optical-flow magnitude over the tracked features (px).
    pub mean_flow_px: f64,
    /// Mean synthesized stereo disparity over all features (px).
    pub mean_disparity_px: f64,
}

impl FrontEndOutput {
    /// Features seen this frame with no template from the previous frame
    /// (replenished by keyframe extraction).
    #[must_use]
    pub fn new_features(&self) -> u32 {
        self.features - self.tracked
    }
}

/// The visual front-end stage: owns the ego-motion model and the
/// frame-to-frame tracker templates. All buffers are reused across frames
/// — steady-state processing allocates nothing once the template tables
/// reach the scene's feature count.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontEnd {
    motion: VisualFrontEnd,
    fx_px: f64,
    baseline_m: f64,
    templates: FeatureTrackList,
}

impl FrontEnd {
    /// Creates a front-end. `seed` seeds the ego-motion model exactly as
    /// [`VisualFrontEnd::new`] would; `fx_px`/`baseline_m` parameterize
    /// the stereo disparity synthesis.
    #[must_use]
    pub fn new(seed: u64, fx_px: f64, baseline_m: f64) -> Self {
        Self {
            motion: VisualFrontEnd::new(seed),
            fx_px,
            baseline_m,
            templates: FeatureTrackList::new(),
        }
    }

    /// Tracker templates currently held (features of the last frame).
    #[must_use]
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Processes one camera frame: disparity synthesis over every feature,
    /// association against the previous frame's templates, template
    /// replenishment, and — when requested — the ego-motion increment.
    ///
    /// Determinism: the only RNG in this path lives inside the motion
    /// model and is drawn iff `req` is `Some`, in frame order; disparity
    /// and tracking are pure functions of the frame and the templates.
    pub fn process(
        &mut self,
        frame: &CameraFrame,
        req: Option<&EgoMotionRequest>,
    ) -> FrontEndOutput {
        let mut disparity_sum = 0.0f64;
        let mut disparity_n = 0u32;
        let mut flow_sum = 0.0f64;
        let mut tracked = 0u32;
        for f in &frame.features {
            if let Some(d) = disparity_for_depth(self.fx_px, self.baseline_m, f.true_depth) {
                disparity_sum += d;
                disparity_n += 1;
            }
            if let Some((pu, pv)) = self.templates.find(f.landmark) {
                let (du, dv) = (f.pixel.0 - pu, f.pixel.1 - pv);
                flow_sum += du.hypot(dv);
                tracked += 1;
            }
        }
        self.templates
            .rebuild(frame.features.iter().map(|f| (f.landmark, f.pixel)));
        let delta = req.map(|r| {
            let mut d = self.motion.measure(&r.prev_pose, &r.pose, r.t_from, r.t_to);
            d.lateral_m += r.lateral_bias_m;
            d
        });
        FrontEndOutput {
            delta,
            features: frame.features.len() as u32,
            tracked,
            mean_flow_px: if tracked > 0 {
                flow_sum / f64::from(tracked)
            } else {
                0.0
            },
            mean_disparity_px: if disparity_n > 0 {
                disparity_sum / f64::from(disparity_n)
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sov_sensors::camera::FeatureObservation;
    use sov_world::landmark::LandmarkId;

    fn frame(t_ms: u64, feats: &[(u32, f64, f64, f64)]) -> CameraFrame {
        CameraFrame {
            capture_time: SimTime::from_millis(t_ms),
            features: feats
                .iter()
                .map(|&(id, u, v, z)| FeatureObservation {
                    landmark: LandmarkId(id),
                    pixel: (u, v),
                    true_depth: z,
                })
                .collect(),
            objects: Vec::new(),
        }
    }

    #[test]
    fn tracks_features_across_frames_and_measures_flow() {
        let mut fe = FrontEnd::new(7, 1000.0, 0.12);
        let out0 = fe.process(
            &frame(0, &[(1, 100.0, 50.0, 12.0), (2, 300.0, 60.0, 8.0)]),
            None,
        );
        assert_eq!(out0.features, 2);
        assert_eq!(out0.tracked, 0);
        assert_eq!(out0.new_features(), 2);
        assert_eq!(fe.template_count(), 2);
        // Landmark 1 moves 3 px right; landmark 3 is new; landmark 2 lost.
        let out1 = fe.process(
            &frame(33, &[(1, 103.0, 50.0, 12.0), (3, 500.0, 70.0, 6.0)]),
            None,
        );
        assert_eq!(out1.tracked, 1);
        assert_eq!(out1.new_features(), 1);
        assert!((out1.mean_flow_px - 3.0).abs() < 1e-12);
    }

    #[test]
    fn disparity_matches_rig_geometry() {
        let mut fe = FrontEnd::new(7, 1000.0, 0.12);
        let out = fe.process(&frame(0, &[(1, 0.0, 0.0, 12.0)]), None);
        // d = fx·B/Z = 1000 · 0.12 / 12 = 10 px.
        assert!((out.mean_disparity_px - 10.0).abs() < 1e-12);
    }

    #[test]
    fn ego_motion_matches_bare_motion_model_plus_bias() {
        let mut fe = FrontEnd::new(42, 1000.0, 0.12);
        let mut bare = VisualFrontEnd::new(42);
        let (from, to) = (Pose2::new(0.0, 0.0, 0.0), Pose2::new(0.5, 0.02, 0.01));
        let req = EgoMotionRequest {
            prev_pose: from,
            pose: to,
            t_from: SimTime::from_millis(0),
            t_to: SimTime::from_millis(33),
            lateral_bias_m: 0.25,
        };
        let out = fe.process(&frame(33, &[]), Some(&req));
        let mut expect = bare.measure(&from, &to, req.t_from, req.t_to);
        expect.lateral_m += 0.25;
        assert_eq!(out.delta, Some(expect));
    }

    #[test]
    fn identical_seeds_and_inputs_are_bit_identical() {
        let mk = || {
            let mut fe = FrontEnd::new(99, 1200.0, 0.12);
            let mut outs = Vec::new();
            for k in 0..10u64 {
                let req = (k > 0).then(|| EgoMotionRequest {
                    prev_pose: Pose2::new(k as f64 - 1.0, 0.0, 0.0),
                    pose: Pose2::new(k as f64, 0.0, 0.0),
                    t_from: SimTime::from_millis((k - 1) * 33),
                    t_to: SimTime::from_millis(k * 33),
                    lateral_bias_m: 0.0,
                });
                let f = frame(k * 33, &[(k as u32, 10.0 * k as f64, 5.0, 10.0)]);
                outs.push(fe.process(&f, req.as_ref()));
            }
            outs
        };
        assert_eq!(mk(), mk());
    }
}
