//! Adaptive association (Sec. 5.2.1).
//!
//! "Most clients today associate with the AP that has the strongest
//! signal. When a client node is moving, however, other factors such as
//! the node's heading might provide an important clue about the best AP to
//! associate with."
//!
//! The hint-aware policy scores each candidate AP by its *predicted
//! association lifetime*: how long the client's current course keeps it
//! inside the AP's coverage disk, combined with whether the link is usable
//! at all right now. The signal-strength policy is the baseline.
//! [`best_ap`] is the one selection rule under either score; the fleet
//! engine calls it with its handoff policy's score.

use hint_sensors::gps::Position;

/// A candidate AP as seen during a scan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApCandidate {
    /// AP identifier (index into the scan list).
    pub id: usize,
    /// AP position on the local plane, metres.
    pub position: Position,
    /// Received signal strength, dBm (stronger = closer, typically).
    pub rssi_dbm: f64,
    /// Usable coverage radius, metres.
    pub coverage_m: f64,
}

/// The client's motion hints at scan time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClientMotion {
    /// Client position, metres.
    pub position: Position,
    /// Movement hint: is the client moving at all?
    pub moving: bool,
    /// Heading, degrees clockwise from north (meaningful when moving).
    pub heading_deg: f64,
    /// Speed, m/s.
    pub speed_mps: f64,
}

/// Predicted time (seconds) the client remains inside the AP's coverage
/// disk on its current course. Infinite for a static client already in
/// coverage; zero if already outside.
///
/// Total over all `f64` inputs: non-finite positions or coverage score
/// as "outside" (0.0), and a non-finite heading or speed degrades to the
/// static prediction — the scoring a scan loop runs on live sensor data
/// must never panic or emit NaN.
pub fn predicted_dwell_s(ap: &ApCandidate, client: &ClientMotion) -> f64 {
    let dx = client.position.x - ap.position.x;
    let dy = client.position.y - ap.position.y;
    let dist2 = dx * dx + dy * dy;
    let r2 = ap.coverage_m * ap.coverage_m;
    // Written so NaN geometry lands in the "outside coverage" arm (a
    // NaN comparison is false) instead of reaching the ray
    // intersection, and a NaN speed or heading degrades to the static
    // prediction.
    let inside = dist2 <= r2;
    if !inside {
        return 0.0;
    }
    let moving_fast = client.speed_mps >= 0.05;
    if !client.moving || !moving_fast || !client.heading_deg.is_finite() {
        return f64::INFINITY;
    }
    // Ray–circle intersection: position p + t·v, |p + t·v|² = r².
    let h = client.heading_deg.to_radians();
    let vx = client.speed_mps * h.sin();
    let vy = client.speed_mps * h.cos();
    let a = vx * vx + vy * vy;
    let b = 2.0 * (dx * vx + dy * vy);
    let c = dist2 - r2;
    let disc = b * b - 4.0 * a * c;
    if disc <= 0.0 || a == 0.0 {
        return 0.0;
    }
    let t = (-b + disc.sqrt()) / (2.0 * a);
    if t.is_finite() {
        t.max(0.0)
    } else {
        0.0
    }
}

/// The best AP in `candidates` under `score` (signal: RSSI in dBm;
/// hint: predicted dwell in seconds), with its score. The highest score
/// wins, ties go to the stronger RSSI, then to the later candidate.
/// `None` only for an empty scan.
///
/// Total over all `f64` inputs: `total_cmp`, not `partial_cmp`, so a NaN
/// score or RSSI from a corrupt scan entry cannot panic the scan loop
/// (NaN sorts above +inf in the IEEE total order, so such an entry can
/// win; selection stays deterministic either way).
pub fn best_ap(
    candidates: &[ApCandidate],
    score: impl Fn(&ApCandidate) -> f64,
) -> Option<(usize, f64)> {
    candidates
        .iter()
        .map(|ap| (ap.id, score(ap), ap.rssi_dbm))
        .max_by(|a, b| a.1.total_cmp(&b.1).then(a.2.total_cmp(&b.2)))
        .map(|(id, score, _)| (id, score))
}

/// Hysteresis-gated handoff decision: switch from the association scored
/// `current` to a candidate scored `candidate` only when the candidate
/// clears the current score by more than `margin` (score units: dB for a
/// signal policy, seconds of predicted dwell for the hint policy).
///
/// `None` for `current` means the client is unassociated (or its AP has
/// fallen out of range): any meaningfully scored candidate is taken —
/// even a weak link beats no link. (Signal-policy scores are negative
/// dBm, so the bar here is "not NaN", not "positive".)
///
/// Total and ping-pong-free by construction: for any scores and any
/// `margin >= 0`, `should_handoff(a, b)` and `should_handoff(b, a)`
/// cannot both be true (NaN scores never justify a switch), so a scan
/// loop applying it repeatedly to an unchanged scan cannot oscillate.
pub fn should_handoff(current: Option<f64>, candidate: f64, margin: f64) -> bool {
    match current {
        None => !candidate.is_nan(),
        Some(cur) => candidate > cur + margin.max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap(id: usize, x: f64, y: f64, rssi: f64) -> ApCandidate {
        ApCandidate {
            id,
            position: Position { x, y },
            rssi_dbm: rssi,
            coverage_m: 100.0,
        }
    }

    fn walking_east(x: f64, y: f64) -> ClientMotion {
        ClientMotion {
            position: Position { x, y },
            moving: true,
            heading_deg: 90.0,
            speed_mps: 1.4,
        }
    }

    #[test]
    fn dwell_geometry() {
        // Client at the west edge of coverage walking east through the
        // centre: dwell = diameter / speed.
        let a = ap(0, 100.0, 0.0, -50.0);
        let c = walking_east(0.0, 0.0);
        let d = predicted_dwell_s(&a, &c);
        assert!((d - 200.0 / 1.4).abs() < 1.0, "dwell {d}");
        // Walking straight *away* from a covering AP: small dwell.
        let mut away = walking_east(90.0, 0.0);
        away.heading_deg = 270.0; // west, away from AP at x=100
        let d = predicted_dwell_s(&a, &away);
        assert!(d < 70.0, "dwell when leaving {d}");
    }

    #[test]
    fn outside_coverage_is_zero() {
        let a = ap(0, 1000.0, 0.0, -90.0);
        assert_eq!(predicted_dwell_s(&a, &walking_east(0.0, 0.0)), 0.0);
    }

    #[test]
    fn static_client_in_coverage_dwells_forever() {
        let a = ap(0, 10.0, 0.0, -40.0);
        let c = ClientMotion {
            position: Position::default(),
            moving: false,
            heading_deg: 0.0,
            speed_mps: 0.0,
        };
        assert_eq!(predicted_dwell_s(&a, &c), f64::INFINITY);
    }

    fn signal(ap: &ApCandidate) -> f64 {
        ap.rssi_dbm
    }

    #[test]
    fn hint_aware_prefers_ap_ahead() {
        // The paper's motivating example: AP 0 is behind the moving client
        // (stronger right now), AP 1 is ahead (slightly weaker). Signal
        // scoring picks 0; dwell scoring picks 1 and earns a much longer
        // association.
        let behind = ap(0, -20.0, 0.0, -45.0);
        let ahead = ap(1, 80.0, 0.0, -55.0);
        let c = walking_east(0.0, 0.0);
        let dwell = |a: &ApCandidate| predicted_dwell_s(a, &c);
        assert_eq!(best_ap(&[behind, ahead], signal), Some((0, -45.0)));
        let (id, lt_hint) = best_ap(&[behind, ahead], dwell).expect("an AP");
        assert_eq!(id, 1);
        let lt_signal = predicted_dwell_s(&behind, &c);
        assert!(
            lt_hint > 1.5 * lt_signal,
            "hint {lt_hint:.0}s vs signal {lt_signal:.0}s"
        );
    }

    #[test]
    fn static_client_falls_back_to_signal() {
        let near = ap(0, 10.0, 0.0, -40.0);
        let far = ap(1, 60.0, 0.0, -70.0);
        let c = ClientMotion {
            position: Position::default(),
            moving: false,
            heading_deg: 0.0,
            speed_mps: 0.0,
        };
        // Both dwell forever; tie broken by RSSI, as under signal scoring.
        let dwell = |a: &ApCandidate| predicted_dwell_s(a, &c);
        assert_eq!(best_ap(&[near, far], dwell), Some((0, f64::INFINITY)));
        assert_eq!(best_ap(&[near, far], signal), Some((0, -40.0)));
    }

    #[test]
    fn empty_scan_returns_none() {
        let c = walking_east(0.0, 0.0);
        assert_eq!(best_ap(&[], |a| predicted_dwell_s(a, &c)), None);
        assert_eq!(best_ap(&[], signal), None);
    }

    #[test]
    fn scoring_is_total_on_degenerate_inputs() {
        // NaN geometry: outside-coverage arm, never NaN out.
        let mut bad = ap(0, f64::NAN, 0.0, -50.0);
        let c = walking_east(0.0, 0.0);
        assert_eq!(predicted_dwell_s(&bad, &c), 0.0);
        bad.position.x = 0.0;
        bad.coverage_m = f64::NAN;
        assert_eq!(predicted_dwell_s(&bad, &c), 0.0);
        // NaN heading/speed on a covered client: static prediction.
        let a = ap(0, 10.0, 0.0, -40.0);
        let mut weird = walking_east(0.0, 0.0);
        weird.heading_deg = f64::NAN;
        assert_eq!(predicted_dwell_s(&a, &weird), f64::INFINITY);
        weird.heading_deg = 90.0;
        weird.speed_mps = f64::NAN;
        assert_eq!(predicted_dwell_s(&a, &weird), f64::INFINITY);
        // NaN RSSI must not panic selection under either scoring.
        let nan_rssi = ApCandidate {
            rssi_dbm: f64::NAN,
            ..a
        };
        let c = walking_east(0.0, 0.0);
        assert!(best_ap(&[a, nan_rssi], signal).is_some());
        assert!(best_ap(&[a, nan_rssi], |ap| predicted_dwell_s(ap, &c)).is_some());
    }

    #[test]
    fn handoff_hysteresis_is_stable() {
        // A 3 dB margin: -58 does not displace -60, -56 does.
        assert!(!should_handoff(Some(-60.0), -58.0, 3.0));
        assert!(should_handoff(Some(-60.0), -56.0, 3.0));
        // Unassociated: any non-NaN candidate beats no link.
        assert!(should_handoff(None, -89.0, 3.0));
        assert!(!should_handoff(None, f64::NAN, 3.0));
        // Two static clients both dwelling forever never ping-pong.
        assert!(!should_handoff(Some(f64::INFINITY), f64::INFINITY, 0.0));
        // No pair of scores can justify a switch in both directions.
        for (a, b) in [(-60.0, -56.0), (10.0, 10.0), (0.0, f64::INFINITY)] {
            assert!(!(should_handoff(Some(a), b, 1.0) && should_handoff(Some(b), a, 1.0)));
        }
    }

    #[test]
    fn hint_aware_ignores_aps_out_of_range() {
        let unreachable = ap(0, 5000.0, 0.0, -30.0); // absurd RSSI, far away
        let ok = ap(1, 50.0, 0.0, -60.0);
        let c = walking_east(0.0, 0.0);
        // Out of range dwells zero seconds, so any covering AP beats it;
        // signal scoring falls for the absurd RSSI.
        let dwell = |a: &ApCandidate| predicted_dwell_s(a, &c);
        assert_eq!(best_ap(&[unreachable, ok], dwell).map(|b| b.0), Some(1));
        assert_eq!(best_ap(&[unreachable, ok], signal).map(|b| b.0), Some(0));
    }
}
