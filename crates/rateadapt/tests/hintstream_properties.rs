//! Property tests for the transition-stored [`HintStream`] and the
//! ring-buffer jerk detector behind it: both must answer exactly what the
//! straightforward `Vec`-based forms answer, bit for bit.

use hint_channel::{Environment, Trace, SLOT_DURATION};
use hint_rateadapt::scenario::MotionSpec;
use hint_rateadapt::HintStream;
use hint_sensors::accelerometer::{Accelerometer, ForceReport, ACCEL_REPORT_PERIOD};
use hint_sensors::jerk::{MovementDetector, AVG_WINDOW, HYSTERESIS_REPORTS, JERK_THRESHOLD};
use hint_sensors::motion::{MotionProfile, MotionSegment, MotionState, SegmentCursor};
use hint_sim::{RngStream, SimDuration, SimTime};
use proptest::prelude::*;

const PERIOD_US: u64 = 2_000;

/// The detector as a sliding ten-report `Vec`: shift out the oldest
/// report, then average each half from scratch.
struct VecDetector {
    window: Vec<[f64; 3]>,
    moving: bool,
    reports_since_jerk: usize,
}

impl VecDetector {
    fn new() -> Self {
        VecDetector {
            window: Vec::with_capacity(2 * AVG_WINDOW),
            moving: false,
            reports_since_jerk: HYSTERESIS_REPORTS + 1,
        }
    }

    fn push(&mut self, r: &ForceReport) -> (f64, bool) {
        if self.window.len() == 2 * AVG_WINDOW {
            self.window.remove(0);
        }
        self.window.push([r.x, r.y, r.z]);
        let jerk = if self.window.len() == 2 * AVG_WINDOW {
            let avg = |range: std::ops::Range<usize>| {
                let mut s = [0.0f64; 3];
                for i in range.clone() {
                    for (a, acc) in s.iter_mut().enumerate() {
                        *acc += self.window[i][a];
                    }
                }
                let n = range.len() as f64;
                [s[0] / n, s[1] / n, s[2] / n]
            };
            let old = avg(0..AVG_WINDOW);
            let new = avg(AVG_WINDOW..2 * AVG_WINDOW);
            (new[0] - old[0]).powi(2) + (new[1] - old[1]).powi(2) + (new[2] - old[2]).powi(2)
        } else {
            0.0
        };
        if jerk > JERK_THRESHOLD {
            self.reports_since_jerk = 0;
        } else {
            self.reports_since_jerk = self.reports_since_jerk.saturating_add(1);
        }
        self.moving = if self.moving {
            self.reports_since_jerk <= HYSTERESIS_REPORTS
        } else {
            jerk > JERK_THRESHOLD
        };
        (jerk, self.moving)
    }
}

/// One of the motion shapes the engine feeds the sensors.
fn profile(shape: u8, duration: SimDuration) -> MotionProfile {
    match shape % 5 {
        0 => MotionProfile::walking(duration, 1.4, 90.0),
        1 => MotionProfile::stationary(duration),
        2 => MotionProfile::half_and_half(duration / 2, shape % 2 == 0),
        3 => MotionProfile::vehicle(duration, 12.0, 0.0),
        _ => MotionProfile::alternating(SimDuration::from_millis(700), 8),
    }
}

/// The hint series `from_sensors` synthesizes, one `bool` per report,
/// built directly from the accelerometer and detector.
fn reference_samples(p: &MotionProfile, duration: SimDuration, seed: u64) -> Vec<bool> {
    let rng = RngStream::new(seed).derive("hintstream-accel");
    let mut accel = Accelerometer::new(p.clone(), rng);
    let mut det = MovementDetector::new();
    let n = duration.as_micros() / ACCEL_REPORT_PERIOD.as_micros();
    (0..n)
        .map(|_| det.push(&accel.next_report()).moving)
        .collect()
}

/// `Vec<bool>` query: the sample containing `t`, clamped to the last.
fn reference_query(samples: &[bool], t_us: u64) -> bool {
    match samples.len() {
        0 => false,
        n => samples[((t_us / PERIOD_US) as usize).min(n - 1)],
    }
}

proptest! {
    /// The transition-stored stream answers every query like the
    /// `Vec<bool>` it replaces: on the report grid, between reports, and
    /// past the end (including the empty stream's `false`).
    #[test]
    fn toggle_stream_equals_vec_reference(
        shape in 0u8..10,
        seed in any::<u64>(),
        duration_us in 0u64..8_000_000,
        offset_us in 1u64..PERIOD_US,
    ) {
        let duration = SimDuration::from_micros(duration_us);
        let p = profile(shape, duration);
        let samples = reference_samples(&p, duration, seed);
        let stream = HintStream::from_sensors(&p, duration, seed);
        prop_assert_eq!(stream.len(), samples.len());
        let end_us = samples.len() as u64 * PERIOD_US;
        for i in 0..samples.len() as u64 + 3 {
            for t_us in [i * PERIOD_US, i * PERIOD_US + offset_us] {
                prop_assert_eq!(
                    stream.query(SimTime::from_micros(t_us)),
                    reference_query(&samples, t_us),
                    "shape {} seed {} t {} µs", shape, seed, t_us
                );
            }
        }
        for t_us in [end_us + 1, end_us * 3 + offset_us, u64::MAX / 4] {
            prop_assert_eq!(
                stream.query(SimTime::from_micros(t_us)),
                reference_query(&samples, t_us)
            );
        }
        let moving = samples.iter().filter(|&&m| m).count();
        let fraction = if samples.is_empty() { 0.0 } else { moving as f64 / samples.len() as f64 };
        prop_assert_eq!(stream.moving_fraction().to_bits(), fraction.to_bits());
    }

    /// `window(from, to).query(t) == query(from + t)` for every `t` before
    /// the window's end, on and off the report grid, and for every `t` at
    /// all when the window runs to the end of the stream.
    #[test]
    fn window_obeys_the_offset_identity(
        shape in 0u8..10,
        seed in any::<u64>(),
        from_us in 0u64..6_000_000,
        span_us in 0u64..4_000_000,
        t_us in 0u64..5_000_000,
    ) {
        let duration = SimDuration::from_secs(6);
        let p = profile(shape, duration);
        let full = HintStream::from_sensors(&p, duration, seed);
        let from = SimTime::from_micros(from_us);
        let to = SimTime::from_micros(from_us + span_us);
        let w = full.window(from, to);
        let mut checks = vec![t_us, t_us % (span_us + 1), span_us.saturating_sub(1)];
        // Every flip of the parent inside the window, and one µs either
        // side of it.
        for i in 0..full.len() as u64 {
            let at = i * PERIOD_US;
            let flips = at > 0
                && full.query(SimTime::from_micros(at)) != full.query(SimTime::from_micros(at - 1));
            if flips && at > from_us && at < from_us + span_us {
                let rel = at - from_us;
                checks.extend([rel - 1, rel, rel + 1]);
            }
        }
        for t in checks {
            if t < span_us {
                prop_assert_eq!(
                    w.query(SimTime::from_micros(t)),
                    full.query(SimTime::from_micros(from_us + t)),
                    "from {} µs, t {} µs", from_us, t
                );
            }
        }
        // A window that runs to the end agrees everywhere after `from`.
        let tail = full.window(from, SimTime::ZERO + duration);
        for t in [t_us, t_us * 7, 1 << 40] {
            prop_assert_eq!(
                tail.query(SimTime::from_micros(t)),
                full.query(SimTime::from_micros(from_us + t))
            );
        }
        // The window counts the parent's reports in [from, to).
        let in_window = (0..full.len() as u64)
            .filter(|i| (from_us..from_us + span_us).contains(&(i * PERIOD_US)))
            .count();
        prop_assert_eq!(w.len(), in_window);
    }

    /// The ring detector reproduces the sliding-`Vec` detector's jerk bit
    /// for bit, and its hint exactly, on the accelerometer's own output.
    #[test]
    fn ring_detector_matches_vec_detector(
        shape in 0u8..10,
        seed in any::<u64>(),
        reports in 0usize..3_000,
    ) {
        let p = profile(shape, SimDuration::from_secs(6));
        let mut accel = Accelerometer::new(p, RngStream::new(seed).derive("ring-vs-vec"));
        let mut ring = MovementDetector::new();
        let mut vec = VecDetector::new();
        for i in 0..reports {
            let r = accel.next_report();
            let s = ring.push(&r);
            let (jerk, moving) = vec.push(&r);
            prop_assert_eq!(s.jerk.to_bits(), jerk.to_bits(), "report {}", i);
            prop_assert_eq!(s.moving, moving, "report {}", i);
        }
    }

    /// The same on raw, wide-ranged force values (not just the sensor's
    /// calibrated output), where rounding differences would show.
    #[test]
    fn ring_detector_matches_vec_detector_on_arbitrary_forces(
        forces in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3, -1e3f64..1e3), 0..400),
    ) {
        let mut ring = MovementDetector::new();
        let mut vec = VecDetector::new();
        for (i, &(x, y, z)) in forces.iter().enumerate() {
            let r = ForceReport { t: SimTime::from_micros(i as u64 * PERIOD_US), x, y, z };
            let s = ring.push(&r);
            let (jerk, moving) = vec.push(&r);
            prop_assert_eq!(s.jerk.to_bits(), jerk.to_bits(), "report {}", i);
            prop_assert_eq!(s.moving, moving, "report {}", i);
        }
    }
}

#[test]
fn oracle_stream_equals_vec_reference() {
    let p = MotionProfile::alternating(SimDuration::from_millis(333), 12);
    let duration = SimDuration::from_secs(9);
    for latency_ms in [0, 1, 7, 250] {
        let latency = SimDuration::from_millis(latency_ms);
        let stream = HintStream::oracle(&p, duration, latency);
        let samples: Vec<bool> = (0..duration.as_micros() / PERIOD_US)
            .map(|i| {
                let t = SimTime::from_micros(i * PERIOD_US);
                p.is_moving_at(SimTime::ZERO + t.saturating_since(SimTime::ZERO + latency))
            })
            .collect();
        for t_us in (0..duration.as_micros() + 10 * PERIOD_US).step_by(997) {
            assert_eq!(
                stream.query(SimTime::from_micros(t_us)),
                reference_query(&samples, t_us),
                "latency {latency_ms} ms, t {t_us} µs"
            );
        }
    }
}

/// A hostile 5 000-segment `Custom` schedule reads the same through the
/// forward segment cursor as through `state_at`, in every caller that
/// walks it: the accelerometer-backed stream's ground truth, the oracle,
/// and the channel trace's per-slot truth.
#[test]
fn custom_5000_segment_profile_reads_the_same_through_the_cursor() {
    let segments: Vec<MotionSegment> = (0..5_000u64)
        .map(|i| MotionSegment {
            state: match i % 3 {
                0 => MotionState::Static,
                1 => MotionState::Walking { speed_mps: 1.4 },
                _ => MotionState::Vehicle { speed_mps: 9.0 },
            },
            duration: SimDuration::from_micros(1_000 + (i * 7_919) % 4_000),
            heading_deg: (i % 360) as f64,
        })
        .collect();
    let p = MotionSpec::Custom(segments).profile(SimDuration::ZERO);
    let duration = p.duration();

    let mut cursor = SegmentCursor::new();
    for t_us in (0..duration.as_micros() + 20_000).step_by(500) {
        let t = SimTime::from_micros(t_us);
        assert_eq!(cursor.state(&p, t), p.state_at(t), "t {t_us} µs");
    }

    let oracle = HintStream::oracle(&p, duration, SimDuration::ZERO);
    for i in 0..oracle.len() as u64 {
        let t = SimTime::from_micros(i * PERIOD_US);
        assert_eq!(oracle.query(t), p.is_moving_at(t), "oracle report {i}");
    }
    let sensed = HintStream::from_sensors(&p, duration, 41);
    let agree = (0..sensed.len() as u64)
        .filter(|i| {
            let t = SimTime::from_micros(i * PERIOD_US);
            sensed.query(t) == p.is_moving_at(t)
        })
        .count();
    assert_eq!(
        sensed.accuracy_vs(&p).to_bits(),
        (agree as f64 / sensed.len() as f64).to_bits()
    );

    let trace = Trace::generate(&Environment::office(), &p, duration, 9);
    for (i, slot) in trace.slots.iter().enumerate() {
        let t = SimTime::from_micros(i as u64 * SLOT_DURATION.as_micros());
        assert_eq!(slot.moving, p.is_moving_at(t), "slot {i}");
        assert_eq!(slot.speed_mps, p.speed_at(t), "slot {i}");
    }
}
