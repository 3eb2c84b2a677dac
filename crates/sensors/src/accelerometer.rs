//! Synthetic 3-axis accelerometer.
//!
//! The paper's receiver carried a Sparkfun serial accelerometer reporting
//! force on three axes once every 2 ms, in *custom units* (Sec. 2.2.1 notes
//! the hint algorithm deliberately never converts or calibrates them). This
//! model reproduces the statistical structure the jerk detector depends on:
//!
//! * **Static**: a constant gravity-plus-orientation offset per axis with
//!   small white sensor noise. Adjacent 5-report averages barely differ, so
//!   jerk stays well under the threshold of 3.
//! * **Moving**: the same baseline plus low-frequency force swings — step
//!   impacts while walking (~2 Hz), engine/road vibration and speed changes
//!   in a vehicle — that shift the 5-report average between windows and
//!   drive jerk far above 3, exactly as in Fig. 2-2.
//!
//! Calibration note (documented substitution): amplitudes below were chosen
//! so that static jerk < 3 with ≥5× margin and moving jerk exceeds 3 many
//! times per second, matching the qualitative plot in Fig. 2-2. The detector
//! constants themselves are the paper's, untouched.

use crate::motion::{MotionProfile, MotionState, SegmentCursor};
use hint_sim::{RngStream, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The paper's accelerometer report period: one report every 2 ms.
pub const ACCEL_REPORT_PERIOD: SimDuration = SimDuration::from_micros(2_000);

/// One force report `(x, y, z)` in the sensor's custom units.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ForceReport {
    /// Report timestamp.
    pub t: SimTime,
    /// Force along the x axis (custom units).
    pub x: f64,
    /// Force along the y axis (custom units).
    pub y: f64,
    /// Force along the z axis (custom units).
    pub z: f64,
}

/// Std-dev of per-axis white sensor noise (custom units).
const NOISE_SD: f64 = 0.25;
/// Peak amplitude of walking step impacts (custom units).
const WALK_AMPLITUDE: f64 = 4.0;
/// Step cadence while walking, in Hz.
const WALK_CADENCE_HZ: f64 = 2.0;
/// Amplitude of vehicle road/engine vibration (custom units).
const VEHICLE_AMPLITUDE: f64 = 3.0;
/// Gravity-plus-orientation baseline per axis (custom units).
const BASELINE: [f64; 3] = [0.0, 0.0, 9.3];

/// Synthetic accelerometer bound to a ground-truth motion profile.
///
/// Call [`Accelerometer::next_report`] repeatedly to stream 2 ms reports,
/// or [`Accelerometer::reports_until`] to materialise a whole trace.
#[derive(Clone, Debug)]
pub struct Accelerometer {
    profile: MotionProfile,
    /// Forward position in `profile` (reports walk time monotonically).
    cursor: SegmentCursor,
    rng: RngStream,
    t: SimTime,
    /// Slowly wandering orientation component while moving (models the
    /// device tilting in a hand / on a seat).
    tilt: [f64; 3],
}

impl Accelerometer {
    /// Create a sensor observing `profile`, seeded deterministically.
    pub fn new(profile: MotionProfile, rng: RngStream) -> Self {
        Accelerometer {
            profile,
            cursor: SegmentCursor::new(),
            rng,
            t: SimTime::ZERO,
            tilt: [0.0; 3],
        }
    }

    /// The motion profile this sensor observes.
    pub fn profile(&self) -> &MotionProfile {
        &self.profile
    }

    /// Produce the next 2 ms force report.
    pub fn next_report(&mut self) -> ForceReport {
        let t = self.t;
        let state = self.cursor.state(&self.profile, t);
        let secs = t.as_secs_f64();

        // Motion-induced force component per axis.
        let (ax, ay, az) = match state {
            MotionState::Static => (0.0, 0.0, 0.0),
            MotionState::Walking { speed_mps } => {
                // Step impacts: rectified sinusoid at the cadence plus
                // broadband hand/body shake. Real walking is impulsive —
                // heel strikes and hand tremor shift the short-window force
                // average between adjacent 10 ms windows, which is exactly
                // what the jerk detector keys on. Amplitude grows mildly
                // with speed.
                let scale = WALK_AMPLITUDE * (speed_mps / 1.4).clamp(0.5, 2.0);
                let phase = std::f64::consts::TAU * WALK_CADENCE_HZ * secs;
                let step = phase.sin().abs() * scale;
                self.wander(0.15);
                let shake = scale * 0.6;
                (
                    step * 0.4 + self.rng.normal_ziggurat() * shake + self.tilt[0],
                    step * 0.3 + self.rng.normal_ziggurat() * shake + self.tilt[1],
                    step + self.rng.normal_ziggurat() * shake + self.tilt[2],
                )
            }
            MotionState::Vehicle { speed_mps } => {
                // Broadband vibration growing with speed, plus occasional
                // acceleration/braking swells via the tilt random walk.
                let scale = VEHICLE_AMPLITUDE * (speed_mps / 10.0).clamp(0.3, 2.5);
                self.wander(0.25);
                (
                    self.rng.normal_ziggurat() * scale * 0.5 + self.tilt[0],
                    self.rng.normal_ziggurat() * scale * 0.5 + self.tilt[1],
                    self.rng.normal_ziggurat() * scale + self.tilt[2],
                )
            }
        };

        // Tilt decays back to zero when static so the baseline is stable.
        if !state.is_moving() {
            for v in &mut self.tilt {
                *v *= 0.98;
            }
        }

        let report = ForceReport {
            t,
            x: BASELINE[0] + ax + self.rng.normal_ziggurat() * NOISE_SD,
            y: BASELINE[1] + ay + self.rng.normal_ziggurat() * NOISE_SD,
            z: BASELINE[2] + az + self.rng.normal_ziggurat() * NOISE_SD,
        };
        self.t += ACCEL_REPORT_PERIOD;
        report
    }

    /// Random-walk the tilt vector with the given step size.
    fn wander(&mut self, step: f64) {
        for v in &mut self.tilt {
            *v += self.rng.normal_ziggurat() * step;
            *v = v.clamp(-3.0, 3.0);
        }
    }

    /// Materialise all reports from the current time until `end`.
    pub fn reports_until(&mut self, end: SimTime) -> Vec<ForceReport> {
        let mut out = Vec::new();
        while self.t < end {
            out.push(self.next_report());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hint_sim::SimDuration;

    fn rng() -> RngStream {
        RngStream::new(1234).derive("accel-test")
    }

    #[test]
    fn reports_are_2ms_apart() {
        let p = MotionProfile::stationary(SimDuration::from_secs(1));
        let mut a = Accelerometer::new(p, rng());
        let r0 = a.next_report();
        let r1 = a.next_report();
        assert_eq!((r1.t - r0.t).as_micros(), 2_000);
    }

    #[test]
    fn static_reports_hug_baseline() {
        let p = MotionProfile::stationary(SimDuration::from_secs(2));
        let mut a = Accelerometer::new(p, rng());
        let reports = a.reports_until(SimTime::from_secs(2));
        assert_eq!(reports.len(), 1000);
        let zs: Vec<f64> = reports.iter().map(|r| r.z).collect();
        let mean = zs.iter().sum::<f64>() / zs.len() as f64;
        assert!((mean - 9.3).abs() < 0.1, "mean z {mean}");
        let sd = (zs.iter().map(|z| (z - mean).powi(2)).sum::<f64>() / zs.len() as f64).sqrt();
        assert!(sd < 0.5, "static z sd {sd}");
    }

    #[test]
    fn walking_reports_swing_much_more() {
        let stat = MotionProfile::stationary(SimDuration::from_secs(2));
        let walk = MotionProfile::walking(SimDuration::from_secs(2), 1.4, 0.0);
        let var = |p: MotionProfile| {
            let mut a = Accelerometer::new(p, rng());
            let rs = a.reports_until(SimTime::from_secs(2));
            let zs: Vec<f64> = rs.iter().map(|r| r.z).collect();
            let m = zs.iter().sum::<f64>() / zs.len() as f64;
            zs.iter().map(|z| (z - m).powi(2)).sum::<f64>() / zs.len() as f64
        };
        let vs = var(stat);
        let vw = var(walk);
        assert!(vw > 10.0 * vs, "walking var {vw} vs static var {vs}");
    }

    #[test]
    fn vehicle_reports_are_noisy() {
        let p = MotionProfile::vehicle(SimDuration::from_secs(1), 15.0, 0.0);
        let mut a = Accelerometer::new(p, rng());
        let rs = a.reports_until(SimTime::from_secs(1));
        let zs: Vec<f64> = rs.iter().map(|r| r.z).collect();
        let m = zs.iter().sum::<f64>() / zs.len() as f64;
        let sd = (zs.iter().map(|z| (z - m).powi(2)).sum::<f64>() / zs.len() as f64).sqrt();
        assert!(sd > 1.0, "vehicle z sd {sd}");
    }

    #[test]
    fn deterministic_given_seed() {
        let p = MotionProfile::walking(SimDuration::from_secs(1), 1.4, 0.0);
        let mut a = Accelerometer::new(p.clone(), RngStream::new(7).derive("a"));
        let mut b = Accelerometer::new(p, RngStream::new(7).derive("a"));
        for _ in 0..500 {
            assert_eq!(a.next_report(), b.next_report());
        }
    }
}
