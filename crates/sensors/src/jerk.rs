//! The jerk-based movement detector of Sec. 2.2.1, implemented verbatim.
//!
//! For each 2 ms force report `t`, the detector computes the average force
//! vector over the five most recent reports and over the five before those,
//! and defines the **jerk**
//!
//! ```text
//! J_t = (x̄ − x̄′)² + (ȳ − ȳ′)² + (z̄ − z̄′)²
//! ```
//!
//! — "roughly, the recent change in force on the accelerometer". The
//! movement hint `H_t` then follows the paper's four-case rule with
//! threshold 3 and a 50-report (100 ms) hysteresis window:
//!
//! * `H_{t−1} = 0` and `J_t > 3`  ⇒ `H_t = 1` (instant rising edge)
//! * `H_{t−1} = 1` and some `J` in the last 50 reports `> 3` ⇒ `H_t = 1`
//! * `H_{t−1} = 1` and all `J` in the last 50 reports `≤ 3` ⇒ `H_t = 0`
//! * `H_{t−1} = 0` and `J_t ≤ 3` ⇒ `H_t = 0`
//!
//! `H_0 = 0`. Because the raw units are never calibrated, the same constants
//! work across devices (the paper's point); our synthetic sensor honours the
//! same unit conventions.

use crate::accelerometer::ForceReport;
use hint_sim::SimTime;

/// The paper's empirically determined jerk threshold.
pub const JERK_THRESHOLD: f64 = 3.0;

/// Number of reports in each averaging half-window.
pub const AVG_WINDOW: usize = 5;

/// Hysteresis window in reports (50 reports × 2 ms = 100 ms).
pub const HYSTERESIS_REPORTS: usize = 50;

/// Output of feeding one report into the detector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JerkSample {
    /// Report timestamp.
    pub t: SimTime,
    /// The jerk value `J_t` (zero until ten reports have been seen).
    pub jerk: f64,
    /// The movement hint `H_t` after this report.
    pub moving: bool,
}

/// Streaming implementation of the Sec. 2.2.1 movement-hint algorithm.
///
/// ```
/// use hint_sensors::{Accelerometer, MovementDetector, MotionProfile};
/// use hint_sim::{RngStream, SimDuration, SimTime};
///
/// let profile = MotionProfile::static_move_static(
///     SimDuration::from_secs(2), SimDuration::from_secs(2), SimDuration::from_secs(2));
/// let mut accel = Accelerometer::new(profile, RngStream::new(1).derive("accel"));
/// let mut det = MovementDetector::new();
/// let mut hint_at_5s = false;
/// while accel.profile().duration() > (SimDuration::from_secs(0)) {
///     let r = accel.next_report();
///     let s = det.push(&r);
///     if r.t >= SimTime::from_secs(5) { hint_at_5s = s.moving; break; }
/// }
/// assert!(!hint_at_5s); // static again by t = 5 s
/// ```
#[derive(Clone, Debug, Default)]
pub struct MovementDetector {
    /// Ring of the last `AVG_WINDOW` reports' force vectors; report `n`
    /// (0-based) lives in slot `n % AVG_WINDOW`.
    reports: [[f64; 3]; AVG_WINDOW],
    /// Ring of the per-axis sums of the `AVG_WINDOW` reports ending at
    /// each of the last `AVG_WINDOW + 1` reports; the sum ending at report
    /// `n` lives in slot `n % (AVG_WINDOW + 1)`. The "recent" sum at
    /// report `t` is the "older" sum at report `t + AVG_WINDOW`, so each
    /// half-window is summed once.
    sums: [[f64; 3]; AVG_WINDOW + 1],
    /// Current hint value `H_t`.
    moving: bool,
    /// Reports elapsed since a jerk value last exceeded the threshold.
    reports_since_jerk: usize,
    /// Total reports consumed.
    count: u64,
}

impl MovementDetector {
    /// Fresh detector with `H_0 = 0`.
    pub fn new() -> Self {
        MovementDetector {
            reports: [[0.0; 3]; AVG_WINDOW],
            sums: [[0.0; 3]; AVG_WINDOW + 1],
            moving: false,
            reports_since_jerk: HYSTERESIS_REPORTS + 1,
            count: 0,
        }
    }

    /// Current movement hint — "the most recently calculated hint value"
    /// returned by the paper's hint service when queried.
    pub fn is_moving(&self) -> bool {
        self.moving
    }

    /// Feed one force report; returns the jerk and updated hint.
    pub fn push(&mut self, report: &ForceReport) -> JerkSample {
        let n = self.count as usize;
        self.count += 1;
        self.reports[n % AVG_WINDOW] = [report.x, report.y, report.z];

        let jerk = if n + 1 >= AVG_WINDOW {
            // Sum the last five reports oldest-first from zero, exactly as
            // a sliding ten-report window would sum its recent half.
            let mut sum = [0.0f64; 3];
            for k in 1..=AVG_WINDOW {
                let r = &self.reports[(n + k) % AVG_WINDOW];
                for (acc, v) in sum.iter_mut().zip(r) {
                    *acc += v;
                }
            }
            self.sums[n % (AVG_WINDOW + 1)] = sum;
            if n + 1 >= 2 * AVG_WINDOW {
                // The older half is the sum taken five reports ago.
                let old = self.sums[(n + 1) % (AVG_WINDOW + 1)];
                let w = AVG_WINDOW as f64;
                let (new, old) = (sum.map(|s| s / w), old.map(|s| s / w));
                (new[0] - old[0]).powi(2) + (new[1] - old[1]).powi(2) + (new[2] - old[2]).powi(2)
            } else {
                0.0
            }
        } else {
            0.0
        };

        if jerk > JERK_THRESHOLD {
            self.reports_since_jerk = 0;
        } else {
            self.reports_since_jerk = self.reports_since_jerk.saturating_add(1);
        }

        // The four-case update from Sec. 2.2.1.
        self.moving = if self.moving {
            // Stay moving while any of the last 50 jerks exceeded the
            // threshold; clear once the whole window is quiet.
            self.reports_since_jerk <= HYSTERESIS_REPORTS
        } else {
            jerk > JERK_THRESHOLD
        };

        JerkSample {
            t: report.t,
            jerk,
            moving: self.moving,
        }
    }

    /// Convenience: run the detector over a whole report slice, returning
    /// the per-report samples (used to regenerate Fig. 2-2).
    pub fn run(reports: &[ForceReport]) -> Vec<JerkSample> {
        let mut det = MovementDetector::new();
        reports.iter().map(|r| det.push(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerometer::{Accelerometer, ACCEL_REPORT_PERIOD};
    use crate::motion::MotionProfile;
    use hint_sim::{RngStream, SimDuration};

    fn report(t_idx: u64, x: f64, y: f64, z: f64) -> ForceReport {
        ForceReport {
            t: SimTime::ZERO + ACCEL_REPORT_PERIOD * t_idx,
            x,
            y,
            z,
        }
    }

    #[test]
    fn quiet_input_never_triggers() {
        let mut det = MovementDetector::new();
        for i in 0..1000 {
            let s = det.push(&report(i, 0.0, 0.0, 9.3));
            assert!(!s.moving);
            assert!(s.jerk.is_finite() && s.jerk >= 0.0);
            assert!(s.jerk < JERK_THRESHOLD);
        }
    }

    #[test]
    fn step_change_triggers_immediately() {
        let mut det = MovementDetector::new();
        // 10 quiet reports to fill the window.
        for i in 0..10 {
            det.push(&report(i, 0.0, 0.0, 9.3));
        }
        assert!(!det.is_moving());
        // A 3-unit jump on z: averages differ by ~3 within a few reports,
        // J ≈ 9 > 3.
        let mut fired_at = None;
        for i in 10..20 {
            let s = det.push(&report(i, 0.0, 0.0, 12.3));
            if s.moving && fired_at.is_none() {
                fired_at = Some(i);
            }
        }
        let fired = fired_at.expect("detector should fire");
        assert!(
            fired <= 14,
            "fired at report {fired}, want within 5 reports"
        );
    }

    #[test]
    fn hint_clears_after_hysteresis_window() {
        let mut det = MovementDetector::new();
        for i in 0..10 {
            det.push(&report(i, 0.0, 0.0, 9.3));
        }
        // One violent report burst.
        for i in 10..15 {
            det.push(&report(i, 5.0, 5.0, 15.0));
        }
        assert!(det.is_moving());
        // Quiet again: hint must persist for ~50 reports then clear.
        let mut cleared_at = None;
        for i in 15..200 {
            let s = det.push(&report(i, 0.0, 0.0, 9.3));
            if !s.moving {
                cleared_at = Some(i);
                break;
            }
        }
        let cleared = cleared_at.expect("hint should eventually clear");
        // The burst's influence on the averaging window lasts ~10 reports
        // past report 14, and the hysteresis a further 50.
        assert!(
            (60..=90).contains(&(cleared - 14)),
            "cleared {} reports after burst end",
            cleared - 14
        );
    }

    #[test]
    fn jerk_is_zero_until_window_full() {
        let mut det = MovementDetector::new();
        for i in 0..9 {
            let s = det.push(&report(i, 100.0 * i as f64, 0.0, 0.0));
            assert_eq!(s.jerk, 0.0, "report {i} should have no jerk yet");
        }
    }

    #[test]
    fn detects_synthetic_walk_with_low_latency() {
        // End-to-end: synthetic accelerometer + detector reproduce the
        // paper's "<100 ms detection" claim on a static→walk transition.
        let profile = MotionProfile::static_move_static(
            SimDuration::from_secs(5),
            SimDuration::from_secs(5),
            SimDuration::from_secs(5),
        );
        let mut accel = Accelerometer::new(profile, RngStream::new(99).derive("walk"));
        let reports = accel.reports_until(SimTime::from_secs(15));
        let samples = MovementDetector::run(&reports);

        // No false positive during the first static phase (allow the first
        // 100 ms of warm-up).
        for s in &samples {
            if s.t > SimTime::from_millis(100) && s.t < SimTime::from_secs(5) {
                assert!(!s.moving, "false positive at {:?}", s.t);
            }
        }
        // Rising edge within 300 ms of movement onset (walking ramps in with
        // the step cycle, so allow a touch more than the paper's 100 ms).
        let rise = samples
            .iter()
            .find(|s| s.t >= SimTime::from_secs(5) && s.moving)
            .expect("movement detected");
        let latency_ms = rise.t.as_millis() as i64 - 5000;
        assert!(
            (0..=300).contains(&latency_ms),
            "rising-edge latency {latency_ms} ms"
        );
        // Falling edge within 500 ms of movement end.
        let fall = samples
            .iter()
            .find(|s| s.t >= SimTime::from_secs(10) && !s.moving)
            .expect("stop detected");
        let latency_ms = fall.t.as_millis() as i64 - 10_000;
        assert!(
            (0..=500).contains(&latency_ms),
            "falling-edge latency {latency_ms} ms"
        );
        // Hint held through the moving phase (after onset).
        let held = samples
            .iter()
            .filter(|s| s.t > SimTime::from_millis(5500) && s.t < SimTime::from_millis(9500))
            .filter(|s| s.moving)
            .count();
        let total = samples
            .iter()
            .filter(|s| s.t > SimTime::from_millis(5500) && s.t < SimTime::from_millis(9500))
            .count();
        assert!(
            held as f64 / total as f64 > 0.95,
            "hint held {}/{} of moving phase",
            held,
            total
        );
    }

    #[test]
    fn static_jerk_values_stay_below_threshold_with_margin() {
        let profile = MotionProfile::stationary(SimDuration::from_secs(10));
        let mut accel = Accelerometer::new(profile, RngStream::new(5).derive("static"));
        let reports = accel.reports_until(SimTime::from_secs(10));
        let samples = MovementDetector::run(&reports);
        let max_jerk = samples.iter().map(|s| s.jerk).fold(0.0, f64::max);
        assert!(
            max_jerk < JERK_THRESHOLD,
            "static max jerk {max_jerk} exceeds threshold"
        );
    }
}
