//! Fig. 2-2 — jerk values over a static → moving → static trace.
//!
//! Paper: "the device started stationary, was moved, and then returned to
//! a stationary position. Notice that the jerk values clearly identify the
//! interval of movement" — never exceeding the threshold of 3 while
//! stationary, exceeding it frequently and by a large margin while moving.

use crate::report::Report;
use crate::rline;
use hint_sensors::accelerometer::Accelerometer;
use hint_sensors::jerk::{MovementDetector, JERK_THRESHOLD};
use hint_sensors::motion::MotionProfile;
use hint_sim::series::ascii_plot;
use hint_sim::{RngStream, SimDuration, SimTime};

/// Summary statistics of the Fig. 2-2 run.
#[derive(Clone, Copy, Debug)]
pub struct Fig22Result {
    /// Maximum jerk during the stationary phases.
    pub max_jerk_static: f64,
    /// Fraction of moving-phase reports whose jerk exceeds the threshold.
    pub moving_exceed_frac: f64,
    /// Rising-edge detection latency, ms.
    pub rise_latency_ms: i64,
    /// Falling-edge detection latency, ms.
    pub fall_latency_ms: i64,
}

/// Run the experiment, returning the figure as a [`Report`] plus the
/// statistics.
pub fn report() -> (Report, Fig22Result) {
    let mut r = Report::new("fig_2_2");
    r.header("Fig. 2-2: jerk over time (static -> moving -> static)");
    let lead = SimDuration::from_secs(60);
    let moving = SimDuration::from_secs(80);
    let tail = SimDuration::from_secs(60);
    let profile = MotionProfile::static_move_static(lead, moving, tail);
    let end = profile.duration();
    let mut accel = Accelerometer::new(profile.clone(), RngStream::new(22).derive("fig2-2"));
    let reports = accel.reports_until(SimTime::ZERO + end);
    let samples = MovementDetector::run(&reports);

    // Statistics the caption claims.
    let t_move_start = SimTime::ZERO + lead;
    let t_move_end = t_move_start + moving;
    let mut max_static: f64 = 0.0;
    let mut exceed = 0u64;
    let mut total_moving = 0u64;
    for s in &samples {
        if s.t < t_move_start || s.t >= t_move_end + SimDuration::from_millis(200) {
            // Skip the first 200 ms after stop: window washout.
            if s.t < t_move_start || s.t >= t_move_end + SimDuration::from_millis(200) {
                max_static = max_static.max(s.jerk);
            }
        } else if s.t >= t_move_start + SimDuration::from_millis(500) && s.t < t_move_end {
            total_moving += 1;
            if s.jerk > JERK_THRESHOLD {
                exceed += 1;
            }
        }
    }
    let rise = samples
        .iter()
        .find(|s| s.t >= t_move_start && s.moving)
        .map(|s| s.t.as_millis() as i64 - t_move_start.as_millis() as i64)
        .unwrap_or(-1);
    let fall = samples
        .iter()
        .find(|s| s.t >= t_move_end && !s.moving)
        .map(|s| s.t.as_millis() as i64 - t_move_end.as_millis() as i64)
        .unwrap_or(-1);

    // Figure: jerk over time, decimated for display.
    let pts: Vec<(f64, f64)> = samples
        .iter()
        .step_by(100)
        .map(|s| (s.t.as_secs_f64(), s.jerk.min(40.0)))
        .collect();
    rline!(r, "{}", ascii_plot(&pts, 100, "jerk(t)"));
    let hint_pts: Vec<(f64, f64)> = samples
        .iter()
        .step_by(100)
        .map(|s| (s.t.as_secs_f64(), if s.moving { 1.0 } else { 0.0 }))
        .collect();
    rline!(r, "{}", ascii_plot(&hint_pts, 100, "hint(t)"));

    r.blank();
    rline!(
        r,
        "movement interval: {lead} .. {}",
        SimTime::ZERO + lead + moving
    );
    rline!(
        r,
        "max jerk while stationary: {max_static:.3}  (threshold {JERK_THRESHOLD})"
    );
    rline!(
        r,
        "moving-phase reports with jerk > {JERK_THRESHOLD}: {:.1}%",
        100.0 * exceed as f64 / total_moving as f64
    );
    rline!(
        r,
        "detection latency: rise {rise} ms, fall {fall} ms (paper: <100 ms rise)"
    );

    let res = Fig22Result {
        max_jerk_static: max_static,
        moving_exceed_frac: exceed as f64 / total_moving as f64,
        rise_latency_ms: rise,
        fall_latency_ms: fall,
    };
    (r, res)
}

#[cfg(test)]
mod tests {
    #[test]
    fn shape_holds() {
        let r = super::report().1;
        assert!(r.max_jerk_static < super::JERK_THRESHOLD);
        assert!(r.moving_exceed_frac > 0.1);
        assert!((0..=300).contains(&r.rise_latency_ms));
        assert!((0..=500).contains(&r.fall_latency_ms));
    }
}
