//! Mobility hint values (Sec. 2.2).
//!
//! "Hints about mobility include movement, heading, speed and position."
//! These are the value types the sensor layer produces and every hint-aware
//! protocol consumes; the over-the-air encoding lives in `hint-mac`, and
//! the publish/subscribe architecture in the `sensor-hints` core crate.

use crate::gps::Position;
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

/// Heading hint in degrees `[0, 360)` clockwise from north (Sec. 2.2.2).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HeadingHint(pub f64);

impl HeadingHint {
    /// Construct, normalising into `[0, 360)`.
    pub fn new(deg: f64) -> Self {
        HeadingHint(deg.rem_euclid(360.0))
    }

    /// Heading in degrees.
    pub fn degrees(self) -> f64 {
        self.0
    }

    /// Smallest absolute difference to another heading, degrees `[0, 180]`.
    pub fn difference(self, other: HeadingHint) -> f64 {
        heading_difference(self.0, other.0)
    }
}

/// Smallest absolute angular difference between two headings, degrees
/// `[0, 180]`.
pub fn heading_difference(a_deg: f64, b_deg: f64) -> f64 {
    let d = (a_deg - b_deg).rem_euclid(360.0);
    if d > 180.0 {
        360.0 - d
    } else {
        d
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

/// Position hint on the local tangent plane (Sec. 2.2.3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PositionHint(pub Position);

/// A device's full current hint set, as a hint service would report when
/// queried. Absent hints (e.g. heading indoors without a compass) are
/// `None`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MobilityHints {
    /// Movement hint, if the movement service is running.
    pub movement: Option<MovementHint>,
    /// Heading hint, if available.
    pub heading: Option<HeadingHint>,
    /// Speed hint, if available.
    pub speed: Option<SpeedHint>,
    /// Position hint, if available.
    pub position: Option<PositionHint>,
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
    fn heading_normalises() {
        assert_eq!(HeadingHint::new(370.0).degrees(), 10.0);
        assert_eq!(HeadingHint::new(-10.0).degrees(), 350.0);
        assert!((HeadingHint::new(350.0).difference(HeadingHint::new(10.0)) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn heading_difference_properties() {
        assert_eq!(heading_difference(0.0, 0.0), 0.0);
        assert_eq!(heading_difference(0.0, 180.0), 180.0);
        assert!((heading_difference(350.0, 10.0) - 20.0).abs() < 1e-12);
        assert!((heading_difference(10.0, 350.0) - 20.0).abs() < 1e-12);
        assert!((heading_difference(90.0, 270.0) - 180.0).abs() < 1e-12);
        // Symmetry.
        for (a, b) in [(15.0, 200.0), (359.0, 1.0), (123.4, 321.0)] {
            assert_eq!(heading_difference(a, b), heading_difference(b, a));
        }
    }

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
        assert!(m.heading.is_none());
    }
}
