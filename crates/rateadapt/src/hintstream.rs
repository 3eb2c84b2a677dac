//! Movement-hint time series feeding the link simulator.
//!
//! In the real system, the receiver's hint service (Sec. 2.2.1) computes
//! the movement hint from its accelerometer and ships it to the sender in
//! ACK frames (Sec. 2.3). The link simulator consumes hints as a
//! precomputed boolean time series sampled at the accelerometer report
//! period, produced either:
//!
//! * **end-to-end** ([`HintStream::from_sensors`]): a synthetic
//!   accelerometer observes the trace's motion profile and the paper's
//!   jerk detector produces the hints — including its real detection
//!   latency and any transient errors; or
//! * **oracle** ([`HintStream::oracle`]): ground truth delayed by a fixed
//!   latency, for ablations isolating the effect of detector quality.

use hint_sensors::accelerometer::{Accelerometer, ACCEL_REPORT_PERIOD};
use hint_sensors::jerk::MovementDetector;
use hint_sensors::motion::{MotionProfile, SegmentCursor};
use hint_sim::{RngStream, SimDuration, SimTime};

/// A boolean movement-hint series sampled every 2 ms.
///
/// Stored as transitions: the first report's value plus the sorted
/// instants at which the hint flips. A hint holds for seconds at a time,
/// so a 90 s stream of 45 000 reports is typically zero or one flip.
#[derive(Clone, Debug)]
pub struct HintStream {
    /// Hint value at the first report (`false` for an empty stream).
    initial: bool,
    /// Instants at which the hint flips, strictly increasing.
    toggles: Vec<SimTime>,
    /// Number of 2 ms reports the stream covers.
    len: usize,
}

impl HintStream {
    /// Record `n` reports, report `i` answering `sample(i)`, as
    /// transitions.
    fn collect(n: u64, mut sample: impl FnMut(u64) -> bool) -> Self {
        let mut stream = HintStream {
            initial: false,
            toggles: Vec::new(),
            len: n as usize,
        };
        let mut last = false;
        for i in 0..n {
            let moving = sample(i);
            if i == 0 {
                stream.initial = moving;
            } else if moving != last {
                stream.toggles.push(report_time(i));
            }
            last = moving;
        }
        stream
    }

    /// Run the full sensor pipeline (synthetic accelerometer → jerk
    /// detector) over `profile` for `duration`.
    pub fn from_sensors(profile: &MotionProfile, duration: SimDuration, seed: u64) -> Self {
        let rng = RngStream::new(seed).derive("hintstream-accel");
        let mut accel = Accelerometer::new(profile.clone(), rng);
        let mut det = MovementDetector::new();
        let n = duration.as_micros() / ACCEL_REPORT_PERIOD.as_micros();
        Self::collect(n, |_| det.push(&accel.next_report()).moving)
    }

    /// Ground-truth hints delayed by `latency` (an idealised detector).
    pub fn oracle(profile: &MotionProfile, duration: SimDuration, latency: SimDuration) -> Self {
        let n = duration.as_micros() / ACCEL_REPORT_PERIOD.as_micros();
        let mut cursor = SegmentCursor::new();
        Self::collect(n, |i| {
            let shifted = report_time(i).saturating_since(SimTime::ZERO + latency);
            cursor.state(profile, SimTime::ZERO + shifted).is_moving()
        })
    }

    /// The hint value at time `t` (clamped to the series bounds): the
    /// value of the last report at or before `t`.
    #[inline]
    pub fn query(&self, t: SimTime) -> bool {
        // Flips sit on report instants, so counting the flips at or
        // before `t` needs no grid arithmetic, and past the end every
        // flip counts — the last report's value.
        let flips = self.toggles.partition_point(|&at| at <= t);
        self.initial ^ (flips % 2 == 1)
    }

    /// The stream as seen from `from`, up to `to`: for every `t` with
    /// `from + t < to`, `window(from, to).query(t) == self.query(from + t)`
    /// exactly, whether or not `from` lies on the 2 ms report grid. Past
    /// `to - from` the window holds its value at the last instant before
    /// `to` (so it agrees with `self` everywhere when `to` is at or past
    /// the end of the stream). [`HintStream::len`] counts the reports of
    /// `self` that fall in `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> HintStream {
        let lo = self.toggles.partition_point(|&at| at <= from);
        let hi = self.toggles.partition_point(|&at| at < to).max(lo);
        let period = ACCEL_REPORT_PERIOD.as_micros();
        let first = from.as_micros().div_ceil(period);
        let end = to.as_micros().div_ceil(period).min(self.len as u64);
        HintStream {
            initial: self.query(from),
            toggles: self.toggles[lo..hi]
                .iter()
                .map(|&at| SimTime::ZERO + at.saturating_since(from))
                .collect(),
            len: end.saturating_sub(first) as usize,
        }
    }

    /// Number of 2 ms samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the stream holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The hint value at each report instant, in order.
    fn samples(&self) -> impl Iterator<Item = bool> + '_ {
        let mut value = self.initial;
        let mut next = 0;
        (0..self.len as u64).map(move |i| {
            let t = report_time(i);
            while self.toggles.get(next).is_some_and(|&at| at <= t) {
                value = !value;
                next += 1;
            }
            value
        })
    }

    /// Fraction of samples reporting movement.
    pub fn moving_fraction(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.samples().filter(|&m| m).count() as f64 / self.len as f64
    }

    /// Agreement with ground truth over the stream (hint-accuracy metric).
    pub fn accuracy_vs(&self, profile: &MotionProfile) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let mut cursor = SegmentCursor::new();
        let agree = self
            .samples()
            .enumerate()
            .filter(|&(i, m)| m == cursor.state(profile, report_time(i as u64)).is_moving())
            .count();
        agree as f64 / self.len as f64
    }
}

/// The instant of report `i`.
fn report_time(i: u64) -> SimTime {
    SimTime::from_micros(i * ACCEL_REPORT_PERIOD.as_micros())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_with_zero_latency_matches_truth() {
        let p = MotionProfile::half_and_half(SimDuration::from_secs(5), true);
        let h = HintStream::oracle(&p, SimDuration::from_secs(10), SimDuration::ZERO);
        assert!(h.accuracy_vs(&p) > 0.999);
        assert!(!h.query(SimTime::from_secs(2)));
        assert!(h.query(SimTime::from_secs(7)));
    }

    #[test]
    fn oracle_latency_shifts_transitions() {
        let p = MotionProfile::half_and_half(SimDuration::from_secs(5), true);
        let h = HintStream::oracle(
            &p,
            SimDuration::from_secs(10),
            SimDuration::from_millis(500),
        );
        // Just after the true transition the delayed oracle still says
        // static.
        assert!(!h.query(SimTime::from_millis(5200)));
        assert!(h.query(SimTime::from_millis(5800)));
    }

    #[test]
    fn sensor_stream_tracks_profile_well() {
        let p = MotionProfile::half_and_half(SimDuration::from_secs(10), true);
        let h = HintStream::from_sensors(&p, SimDuration::from_secs(20), 7);
        let acc = h.accuracy_vs(&p);
        assert!(acc > 0.95, "sensor hint accuracy {acc:.3}");
        assert!((h.moving_fraction() - 0.5).abs() < 0.05);
    }

    #[test]
    fn queries_clamp_past_end() {
        let p = MotionProfile::walking(SimDuration::from_secs(1), 1.4, 0.0);
        let h = HintStream::oracle(&p, SimDuration::from_secs(1), SimDuration::ZERO);
        assert!(h.query(SimTime::from_secs(100)));
    }
}
