//! Property-based tests for AP policies.

use hint_ap::association::{best_ap, predicted_dwell_s, should_handoff, ApCandidate, ClientMotion};
use hint_ap::disassociation::{ApSimulator, ClientConfig, DisassociationPolicy, FairnessModel};
use hint_ap::scheduler::{simulate_two_client_schedule, SchedulePolicy};
use hint_mac::BitRate;
use hint_sensors::gps::Position;
use hint_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn client(x: f64, y: f64, heading: f64, speed: f64) -> ClientMotion {
    ClientMotion {
        position: Position { x, y },
        moving: speed > 0.0,
        heading_deg: heading,
        speed_mps: speed,
    }
}

proptest! {
    /// Dwell time is non-negative, zero outside coverage, and scales
    /// inversely with speed along the same course.
    #[test]
    fn dwell_time_properties(
        ax in -500.0f64..500.0, ay in -500.0f64..500.0,
        heading in 0.0f64..360.0, speed in 0.1f64..30.0,
    ) {
        let ap = ApCandidate {
            id: 0,
            position: Position { x: ax, y: ay },
            rssi_dbm: -60.0,
            coverage_m: 100.0,
        };
        let c = client(0.0, 0.0, heading, speed);
        let d = predicted_dwell_s(&ap, &c);
        prop_assert!(d >= 0.0);
        let inside = (ax * ax + ay * ay).sqrt() <= 100.0;
        if !inside {
            prop_assert_eq!(d, 0.0);
        } else if d.is_finite() && d > 0.0 {
            // Double the speed ⇒ half the dwell (same geometry).
            let c2 = client(0.0, 0.0, heading, speed * 2.0);
            let d2 = predicted_dwell_s(&ap, &c2);
            prop_assert!((d2 - d / 2.0).abs() < 1e-6 * d.max(1.0), "d {d} d2 {d2}");
        }
    }

    /// best_ap returns an id from the candidate list, and None only for
    /// an empty scan, under signal and dwell scoring alike.
    #[test]
    fn best_ap_total(
        n in 0usize..6,
        seedx in -300.0f64..300.0,
        heading in 0.0f64..360.0,
        speed in 0.0f64..20.0,
    ) {
        let candidates: Vec<ApCandidate> = (0..n)
            .map(|i| ApCandidate {
                id: i,
                position: Position {
                    x: seedx + i as f64 * 60.0 - 150.0,
                    y: (i as f64 * 37.0) % 120.0 - 60.0,
                },
                rssi_dbm: -40.0 - i as f64 * 5.0,
                coverage_m: 100.0,
            })
            .collect();
        let c = client(0.0, 0.0, heading, speed);
        for best in [
            best_ap(&candidates, |a| a.rssi_dbm),
            best_ap(&candidates, |a| predicted_dwell_s(a, &c)),
        ] {
            match best {
                Some((id, _)) => prop_assert!(candidates.iter().any(|a| a.id == id)),
                None => prop_assert!(candidates.is_empty()),
            }
        }
    }

    /// Scheduling conservation: the static batch is never over-delivered,
    /// and a larger mobile share never reduces aggregate delivery while
    /// the mobile client is present.
    #[test]
    fn scheduling_conservation(batch in 100u64..30_000, window in 0.0f64..30.0, share in 0.5f64..1.0) {
        let base = simulate_two_client_schedule(
            SchedulePolicy::EqualShare, BitRate::R54, batch, window, 60.0);
        let fav = simulate_two_client_schedule(
            SchedulePolicy::FavorMobile { mobile_share: share }, BitRate::R54, batch, window, 60.0);
        prop_assert!(base.static_delivered <= batch);
        prop_assert!(fav.static_delivered <= batch);
        prop_assert!(fav.aggregate() + 1 >= base.aggregate(),
            "favoring lost aggregate: {} vs {}", fav.aggregate(), base.aggregate());
        if window == 0.0 {
            prop_assert_eq!(fav.mobile_delivered, 0);
        }
    }
}

/// Replace a sampled float with a degenerate value on some tags, so the
/// totality properties cover NaN/±inf (the shim's `any::<f64>()` only
/// produces finite values).
fn degenerate(v: f64, tag: usize) -> f64 {
    match tag {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => v,
    }
}

proptest! {
    /// Association scoring is total: for ANY float inputs — including
    /// NaN and ±inf in positions, coverage, RSSI, heading, and speed —
    /// `predicted_dwell_s` returns a non-NaN, non-negative value and
    /// `best_ap` returns an id from the list without panicking, under
    /// signal and dwell scoring alike.
    #[test]
    fn association_scoring_is_total(
        raw in proptest::collection::vec(any::<f64>(), 12..13),
        tags in proptest::collection::vec(0usize..10, 12..13),
    ) {
        let v: Vec<f64> = raw
            .iter()
            .zip(&tags)
            .map(|(&x, &t)| degenerate(x, t))
            .collect();
        let candidates = [
            ApCandidate {
                id: 0,
                position: Position { x: v[0], y: v[1] },
                rssi_dbm: v[2],
                coverage_m: v[3],
            },
            ApCandidate {
                id: 1,
                position: Position { x: v[4], y: v[5] },
                rssi_dbm: v[6],
                coverage_m: v[7],
            },
        ];
        let c = ClientMotion {
            position: Position { x: v[8], y: v[9] },
            moving: tags[11] % 2 == 0,
            heading_deg: v[10],
            speed_mps: v[11],
        };
        for ap in &candidates {
            let d = predicted_dwell_s(ap, &c);
            prop_assert!(!d.is_nan(), "dwell NaN for {ap:?} / {c:?}");
            prop_assert!(d >= 0.0, "dwell negative: {d}");
        }
        for best in [
            best_ap(&candidates, |a| a.rssi_dbm),
            best_ap(&candidates, |a| predicted_dwell_s(a, &c)),
        ] {
            prop_assert!(best.is_some_and(|(id, _)| id < 2));
        }
    }

    /// Handoff hysteresis is stable: for any pair of scores and any
    /// non-negative margin, a switch is never justified in both
    /// directions (no ping-pong on an unchanged scan), and the decision
    /// is total (never panics, NaN candidates never win).
    #[test]
    fn handoff_decisions_are_hysteresis_stable(
        a in any::<f64>(), b in any::<f64>(),
        margin in 0.0f64..20.0,
        tag_a in 0usize..8, tag_b in 0usize..8,
    ) {
        let (a, b) = (degenerate(a, tag_a), degenerate(b, tag_b));
        let ab = should_handoff(Some(a), b, margin);
        let ba = should_handoff(Some(b), a, margin);
        prop_assert!(!(ab && ba), "ping-pong between {a} and {b} at margin {margin}");
        if b.is_nan() {
            prop_assert!(!ab, "NaN candidate must never win");
            prop_assert!(!should_handoff(None, b, margin));
        } else {
            prop_assert!(should_handoff(None, b, margin), "any real link beats no link");
        }
    }

    /// The AP disassociation simulator is total over its scenario space:
    /// any mix of resident/departing/hinting clients, fairness model,
    /// policy and seed runs to completion with per-second series of the
    /// right length and no delivery after a client departs.
    #[test]
    fn ap_simulator_runs_any_scenario(
        seed in any::<u64>(),
        depart_s in 1u64..15,
        hinting in any::<bool>(),
        frame_fair in any::<bool>(),
        hint_policy in any::<bool>(),
    ) {
        let policy = if hint_policy {
            DisassociationPolicy::HintAware { probe_interval: SimDuration::from_secs(1) }
        } else {
            DisassociationPolicy::Timeout { prune_after: SimDuration::from_secs(5) }
        };
        let fairness = if frame_fair {
            FairnessModel::FrameLevel
        } else {
            FairnessModel::TimeBased
        };
        let departing = if hinting {
            ClientConfig::departing_with_hints(SimTime::from_secs(depart_s))
        } else {
            ClientConfig::departing(SimTime::from_secs(depart_s))
        };
        let secs = 16u64;
        let r = ApSimulator::new(
            fairness,
            policy,
            vec![ClientConfig::resident(), departing],
            seed,
        )
        .run(SimDuration::from_secs(secs));
        prop_assert_eq!(r.delivered_per_second.len(), 2);
        for series in &r.delivered_per_second {
            prop_assert_eq!(series.len(), secs as usize);
        }
        // The departed client delivers nothing once it is out of range.
        let after: u64 = r.delivered_per_second[1][(depart_s as usize) + 1..]
            .iter()
            .sum();
        prop_assert_eq!(after, 0, "departed client delivered after leaving");
    }
}
