//! Positions on the local plane (Sec. 2.2.3).
//!
//! The paper's position hint comes from GPS outdoors or Wi-Fi
//! localisation indoors. Neither receiver is modelled: the experiments
//! that need a position (AP association, the fleet engine) read it from
//! the ground-truth path, on the plane defined here.

use serde::{Deserialize, Serialize};

/// A 2-D position in metres on a local tangent plane (x east, y north).
#[derive(Clone, Copy, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct Position {
    /// Metres east of the origin.
    pub x: f64,
    /// Metres north of the origin.
    pub y: f64,
}

impl Position {
    /// Euclidean distance to another position, metres.
    pub fn distance(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_distance_is_euclidean() {
        let a = Position { x: 0.0, y: 0.0 };
        let b = Position { x: 3.0, y: 4.0 };
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(a), 0.0);
    }
}
