//! Mobility hint values (Sec. 2.2).
//!
//! "Hints about mobility include movement, heading, speed and position."
//! The movement and speed hints are the value types that local hint-aware
//! protocols consume; the over-the-air encoding, which also carries a
//! heading, lives in `hint-mac`.

use serde::{Deserialize, Serialize};

/// Movement hint: "a boolean hint that is true if, and only if, a device is
/// moving" (Sec. 2.2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MovementHint(pub bool);

impl MovementHint {
    /// True when the device is in motion.
    pub fn is_moving(self) -> bool {
        self.0
    }
}

/// Speed hint in metres/second (Sec. 2.2.3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpeedHint(pub f64);

impl SpeedHint {
    /// Speed in m/s (non-negative by construction).
    pub fn new(mps: f64) -> Self {
        SpeedHint(mps.max(0.0))
    }

    /// Speed in m/s.
    pub fn mps(self) -> f64 {
        self.0
    }

    /// Speed in km/h.
    pub fn kmh(self) -> f64 {
        self.0 * 3.6
    }
}

/// The hints a device currently reports. Absent hints (e.g. speed on a
/// device with only an accelerometer) are `None`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MobilityHints {
    /// Movement hint, if the movement service is running.
    pub movement: Option<MovementHint>,
    /// Speed hint, if available.
    pub speed: Option<SpeedHint>,
}

impl MobilityHints {
    /// No hints at all (hint-oblivious device).
    pub fn none() -> Self {
        Self::default()
    }

    /// Only a movement hint — the common indoor accelerometer-only case
    /// used by the Ch. 3 and Ch. 4 protocols.
    pub fn movement_only(moving: bool) -> Self {
        MobilityHints {
            movement: Some(MovementHint(moving)),
            ..Default::default()
        }
    }

    /// True if a movement hint is present and indicates motion.
    pub fn is_moving(&self) -> bool {
        self.movement.map(MovementHint::is_moving).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_clamps_and_converts() {
        assert_eq!(SpeedHint::new(-3.0).mps(), 0.0);
        assert!((SpeedHint::new(10.0).kmh() - 36.0).abs() < 1e-12);
    }

    #[test]
    fn mobility_hints_defaults() {
        let h = MobilityHints::none();
        assert!(!h.is_moving());
        assert!(h.movement.is_none());
        let m = MobilityHints::movement_only(true);
        assert!(m.is_moving());
        assert!(m.speed.is_none());
    }
}
