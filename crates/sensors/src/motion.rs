//! Ground-truth mobility schedules.
//!
//! A [`MotionProfile`] is the *actual* motion of a device over a trace —
//! the hidden truth that sensors observe noisily and that the channel model
//! (in `hint-channel`) uses to set its coherence time. The paper's
//! experiment types (Fig. 3-4) map onto profiles directly:
//!
//! * *Stationary* — a single [`MotionState::Static`] segment.
//! * *Human/Mobile* — walking speed (~1.4 m/s) segments.
//! * *Vehicle/Mobile* — driving segments at 8–72 km/h.
//! * Mixed-mobility traces (Fig. 3-5's 10 s static + 10 s mobile) are
//!   segment sequences.

use hint_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The coarse mobility state of a device at an instant.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum MotionState {
    /// Not moving (resting on a desk, standing user).
    Static,
    /// Carried by a walking human at roughly the given speed (m/s).
    Walking {
        /// Walking speed in metres/second (typical indoor walk ≈ 1.4).
        speed_mps: f64,
    },
    /// Riding in a vehicle at roughly the given speed (m/s).
    Vehicle {
        /// Vehicle speed in metres/second (paper: 8–72 km/h ≈ 2.2–20 m/s).
        speed_mps: f64,
    },
}

impl MotionState {
    /// True when the device is in motion.
    pub fn is_moving(self) -> bool {
        !matches!(self, MotionState::Static)
    }

    /// Nominal speed in m/s (zero when static).
    pub fn speed_mps(self) -> f64 {
        match self {
            MotionState::Static => 0.0,
            MotionState::Walking { speed_mps } | MotionState::Vehicle { speed_mps } => speed_mps,
        }
    }
}

/// One segment of a motion schedule: a state held for a duration, moving
/// along a heading (degrees clockwise from north; irrelevant when static).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MotionSegment {
    /// Mobility state during the segment.
    pub state: MotionState,
    /// How long the segment lasts.
    pub duration: SimDuration,
    /// Heading of travel in degrees `[0, 360)`, clockwise from north.
    pub heading_deg: f64,
}

/// A piecewise-constant ground-truth mobility schedule.
///
/// Queries past the end of the schedule return the last segment's state, so
/// a profile behaves as if its final segment extends forever — convenient
/// when a trace is slightly longer than the schedule that produced it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MotionProfile {
    segments: Vec<MotionSegment>,
}

impl MotionProfile {
    /// Build from an explicit segment list.
    ///
    /// # Panics
    /// Panics if `segments` is empty (a profile must define some motion).
    pub fn new(segments: Vec<MotionSegment>) -> Self {
        assert!(!segments.is_empty(), "motion profile needs >= 1 segment");
        MotionProfile { segments }
    }

    /// A profile that is static for `duration`.
    pub fn stationary(duration: SimDuration) -> Self {
        MotionProfile::new(vec![MotionSegment {
            state: MotionState::Static,
            duration,
            heading_deg: 0.0,
        }])
    }

    /// A profile walking at `speed_mps` for `duration` along `heading_deg`.
    pub fn walking(duration: SimDuration, speed_mps: f64, heading_deg: f64) -> Self {
        MotionProfile::new(vec![MotionSegment {
            state: MotionState::Walking { speed_mps },
            duration,
            heading_deg,
        }])
    }

    /// A profile driving at `speed_mps` for `duration` along `heading_deg`.
    pub fn vehicle(duration: SimDuration, speed_mps: f64, heading_deg: f64) -> Self {
        MotionProfile::new(vec![MotionSegment {
            state: MotionState::Vehicle { speed_mps },
            duration,
            heading_deg,
        }])
    }

    /// The paper's mixed-mobility trace shape (Fig. 3-5): `first` held for
    /// `half`, then `second` for another `half`. Walking uses 1.4 m/s.
    pub fn half_and_half(half: SimDuration, static_first: bool) -> Self {
        let stat = MotionSegment {
            state: MotionState::Static,
            duration: half,
            heading_deg: 0.0,
        };
        let walk = MotionSegment {
            state: MotionState::Walking { speed_mps: 1.4 },
            duration: half,
            heading_deg: 90.0,
        };
        let segs = if static_first {
            vec![stat, walk]
        } else {
            vec![walk, stat]
        };
        MotionProfile::new(segs)
    }

    /// Fig. 2-2's shape: static, then moving, then static again.
    pub fn static_move_static(lead: SimDuration, moving: SimDuration, tail: SimDuration) -> Self {
        MotionProfile::new(vec![
            MotionSegment {
                state: MotionState::Static,
                duration: lead,
                heading_deg: 0.0,
            },
            MotionSegment {
                state: MotionState::Walking { speed_mps: 1.4 },
                duration: moving,
                heading_deg: 45.0,
            },
            MotionSegment {
                state: MotionState::Static,
                duration: tail,
                heading_deg: 0.0,
            },
        ])
    }

    /// Alternating static/walking segments, `n_pairs` of them — models the
    /// supermarket shopper of the paper's introduction.
    pub fn alternating(each: SimDuration, n_pairs: usize) -> Self {
        assert!(n_pairs > 0, "need at least one pair");
        let mut segs = Vec::with_capacity(n_pairs * 2);
        for i in 0..n_pairs {
            segs.push(MotionSegment {
                state: MotionState::Static,
                duration: each,
                heading_deg: 0.0,
            });
            segs.push(MotionSegment {
                state: MotionState::Walking { speed_mps: 1.4 },
                duration: each,
                heading_deg: (i as f64 * 73.0) % 360.0,
            });
        }
        MotionProfile::new(segs)
    }

    /// The segments making up this profile.
    pub fn segments(&self) -> &[MotionSegment] {
        &self.segments
    }

    /// Total scheduled duration.
    pub fn duration(&self) -> SimDuration {
        self.segments
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration)
    }

    /// The segment active at time `t` (the last segment if `t` is past the
    /// end of the schedule).
    ///
    /// This scans the schedule from the start; callers that walk time
    /// forward use a [`SegmentCursor`] instead.
    pub fn segment_at(&self, t: SimTime) -> &MotionSegment {
        let mut elapsed = SimDuration::ZERO;
        for seg in &self.segments {
            elapsed += seg.duration;
            if t.as_micros() < elapsed.as_micros() {
                return seg;
            }
        }
        self.segments.last().expect("non-empty by construction")
    }

    /// Mobility state at time `t`.
    pub fn state_at(&self, t: SimTime) -> MotionState {
        self.segment_at(t).state
    }

    /// True if the device is moving at time `t`.
    pub fn is_moving_at(&self, t: SimTime) -> bool {
        self.state_at(t).is_moving()
    }

    /// Ground-truth speed in m/s at time `t`.
    pub fn speed_at(&self, t: SimTime) -> f64 {
        self.state_at(t).speed_mps()
    }

    /// Ground-truth heading in degrees at time `t`.
    pub fn heading_at(&self, t: SimTime) -> f64 {
        self.segment_at(t).heading_deg
    }

    /// Fraction of the schedule spent moving (by time).
    pub fn moving_fraction(&self) -> f64 {
        let total = self.duration().as_micros() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let moving: u64 = self
            .segments
            .iter()
            .filter(|s| s.state.is_moving())
            .map(|s| s.duration.as_micros())
            .sum();
        moving as f64 / total
    }

    /// The times at which the moving/static status flips, in order.
    pub fn transition_times(&self) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut elapsed = SimDuration::ZERO;
        let mut prev = self.segments[0].state.is_moving();
        for seg in &self.segments {
            let moving = seg.state.is_moving();
            if moving != prev {
                out.push(SimTime::ZERO + elapsed);
                prev = moving;
            }
            elapsed += seg.duration;
        }
        out
    }
}

/// A forward cursor over a [`MotionProfile`]'s segments.
///
/// [`SegmentCursor::segment`] answers exactly what
/// [`MotionProfile::segment_at`] answers — the first segment whose
/// cumulative end is past `t`, else the last — but resumes from the
/// previous answer, so a caller walking time forward pays O(1) amortized
/// per query instead of a scan from the start. A query earlier than the
/// current segment restarts from the first segment, so any query order
/// stays correct. The cursor holds no reference: pass it the same profile
/// on every call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SegmentCursor {
    /// Index of the current segment.
    idx: usize,
    /// Cumulative end of the segments before `idx`, µs.
    start_us: u64,
}

impl SegmentCursor {
    /// A cursor positioned at the first segment.
    pub fn new() -> Self {
        Self::default()
    }

    /// The segment of `profile` active at time `t` (the last segment if
    /// `t` is past the end of the schedule).
    pub fn segment<'p>(&mut self, profile: &'p MotionProfile, t: SimTime) -> &'p MotionSegment {
        let segs = &profile.segments;
        let t_us = t.as_micros();
        if t_us < self.start_us {
            *self = SegmentCursor::default();
        }
        loop {
            let seg = &segs[self.idx];
            let end_us = self.start_us + seg.duration.as_micros();
            if t_us < end_us || self.idx + 1 == segs.len() {
                return seg;
            }
            self.idx += 1;
            self.start_us = end_us;
        }
    }

    /// Mobility state of `profile` at time `t`.
    pub fn state(&mut self, profile: &MotionProfile, t: SimTime) -> MotionState {
        self.segment(profile, t).state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_queries_follow_schedule() {
        let p = MotionProfile::half_and_half(SimDuration::from_secs(10), true);
        assert!(!p.is_moving_at(SimTime::from_secs(3)));
        assert!(p.is_moving_at(SimTime::from_secs(13)));
        assert_eq!(p.duration(), SimDuration::from_secs(20));
        assert!((p.moving_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mobile_first_variant() {
        let p = MotionProfile::half_and_half(SimDuration::from_secs(10), false);
        assert!(p.is_moving_at(SimTime::from_secs(1)));
        assert!(!p.is_moving_at(SimTime::from_secs(15)));
    }

    #[test]
    fn queries_past_end_hold_last_segment() {
        let p = MotionProfile::stationary(SimDuration::from_secs(1));
        assert!(!p.is_moving_at(SimTime::from_secs(100)));
        let w = MotionProfile::walking(SimDuration::from_secs(1), 1.4, 90.0);
        assert!(w.is_moving_at(SimTime::from_secs(100)));
        assert_eq!(w.heading_at(SimTime::from_secs(100)), 90.0);
    }

    #[test]
    fn static_move_static_shape() {
        let p = MotionProfile::static_move_static(
            SimDuration::from_secs(5),
            SimDuration::from_secs(10),
            SimDuration::from_secs(5),
        );
        assert!(!p.is_moving_at(SimTime::from_secs(2)));
        assert!(p.is_moving_at(SimTime::from_secs(10)));
        assert!(!p.is_moving_at(SimTime::from_secs(18)));
        assert_eq!(
            p.transition_times(),
            vec![SimTime::from_secs(5), SimTime::from_secs(15)]
        );
    }

    #[test]
    fn speeds_and_states() {
        assert_eq!(MotionState::Static.speed_mps(), 0.0);
        assert!(!MotionState::Static.is_moving());
        let v = MotionState::Vehicle { speed_mps: 20.0 };
        assert!(v.is_moving());
        assert_eq!(v.speed_mps(), 20.0);
    }

    #[test]
    fn alternating_profile_alternates() {
        let p = MotionProfile::alternating(SimDuration::from_secs(5), 3);
        assert_eq!(p.segments().len(), 6);
        assert_eq!(p.duration(), SimDuration::from_secs(30));
        assert_eq!(p.transition_times().len(), 5);
        assert!(!p.is_moving_at(SimTime::from_secs(2)));
        assert!(p.is_moving_at(SimTime::from_secs(7)));
    }

    #[test]
    #[should_panic]
    fn empty_profile_rejected() {
        let _ = MotionProfile::new(vec![]);
    }

    #[test]
    fn boundary_belongs_to_next_segment() {
        let p = MotionProfile::half_and_half(SimDuration::from_secs(10), true);
        // Exactly at t=10s the walking segment has begun.
        assert!(p.is_moving_at(SimTime::from_secs(10)));
    }

    #[test]
    fn cursor_matches_segment_at_on_a_5000_segment_custom_profile() {
        // Irregular durations, zero-length segments included, so segment
        // boundaries fall both on and off the query grid.
        let segs: Vec<MotionSegment> = (0..5_000u64)
            .map(|i| MotionSegment {
                state: match i % 3 {
                    0 => MotionState::Static,
                    1 => MotionState::Walking { speed_mps: 1.4 },
                    _ => MotionState::Vehicle { speed_mps: 9.0 },
                },
                duration: SimDuration::from_micros((i * 7_919) % 4_000),
                heading_deg: (i % 360) as f64,
            })
            .collect();
        let p = MotionProfile::new(segs);
        let end = p.duration().as_micros() + 50_000;
        let mut forward = SegmentCursor::new();
        let mut t = 0;
        while t < end {
            let at = SimTime::from_micros(t);
            assert_eq!(forward.segment(&p, at), p.segment_at(at), "t = {t} µs");
            t += 1_000;
        }
        // Backwards and jumping queries restart the cursor correctly.
        let mut jumpy = SegmentCursor::new();
        for &t in &[end, 0, 3_999, 1, end / 2, end / 3, end / 2 + 1, 0] {
            let at = SimTime::from_micros(t);
            assert_eq!(jumpy.state(&p, at), p.state_at(at), "t = {t} µs");
        }
    }
}
