//! Metro fleet — the scaling scenario: 224 clients sharing 32 APs on a
//! city-block grid (ROADMAP's "metro-scale fleets" direction).
//!
//! Where `fig_fleet` isolates the *mechanisms* (four clients, two APs,
//! policy ablations), this experiment exercises the *engine*: a fleet
//! big enough that the spatial AP index, the span-task arena, and the
//! sharded Phase B actually carry the load. One second of simulated
//! time covers 224 clients × 32 APs under a shared medium with the
//! hint-aware handoff policy; the run completes in well under a second
//! of wall-clock single-threaded (`perfbench`'s `metro` workload times
//! it; `tests/work_counts.rs` pins its exact work, such as the AP ids
//! the spatial index returns), and the outcome is byte-identical for any
//! `--jobs` value.
//!
//! The geometry is an 8 × 4 AP grid on a 100 m pitch with 75 m coverage
//! disks, so adjacent disks overlap (no dead zones on the walkways) but
//! a client is only ever inside a handful of disks — the regime where a
//! spatial index beats the all-APs scan. Clients spread deterministically
//! around the AP anchors via a golden-angle spiral: most are parked,
//! every sixth walks and every seventh rides a vehicle, giving the
//! handoff machinery real work.

use crate::report::Report;
use crate::rline;
use hint_rateadapt::fleet::{FleetOutcome, FleetSpec, MediumSpec};
use hint_rateadapt::scenario::{HintSpec, MotionSpec};
use hint_rateadapt::Workload;
use hint_sim::SimDuration;
use sensor_hints::fleet::FleetScenario;

/// Clients in the metro fleet (7 per AP anchor).
pub const METRO_CLIENTS: usize = 224;

/// APs in the metro fleet (8 × 4 grid).
pub const METRO_APS: usize = 32;

/// The metro fleet: identical (bounds, APs, clients, duration, seed) to
/// the checked-in `scenarios/fleet_metro.json`, which pins the
/// spec-file run bit-identical to this builder.
pub fn metro_fleet() -> FleetSpec {
    let mut b = FleetSpec::builder()
        .bounds(800.0, 400.0)
        .duration(SimDuration::from_secs(1))
        .seed(0x3E7120)
        .protocol("HintAware")
        .handoff_policy("hint-aware")
        .hints(HintSpec::Sensors { seed: None })
        .scan_interval(SimDuration::from_millis(250))
        .reassociation_cost(SimDuration::from_millis(20))
        .medium(MediumSpec::shared());
    // 8 x 4 AP grid, 100 m pitch, overlapping 75 m coverage disks.
    for j in 0..4 {
        for i in 0..8 {
            b = b.ap(50.0 + 100.0 * i as f64, 50.0 + 100.0 * j as f64, 75.0);
        }
    }
    // 7 clients spiralled around each AP anchor (golden angle keeps the
    // placements spread and deterministic). Every sixth client walks,
    // every seventh drives; the rest are parked.
    let mut n = 0usize;
    for j in 0..4 {
        for i in 0..8 {
            let (ax, ay) = (50.0 + 100.0 * i as f64, 50.0 + 100.0 * j as f64);
            for s in 0..7 {
                let angle = n as f64 * 2.399;
                let r = 6.0 + 4.0 * s as f64;
                let x = (ax + r * angle.cos()).clamp(0.0, 800.0);
                let y = (ay + r * angle.sin()).clamp(0.0, 400.0);
                let motion = if n % 7 == 6 {
                    MotionSpec::Vehicle {
                        speed_mps: 12.0,
                        heading_deg: if j % 2 == 0 { 90.0 } else { 270.0 },
                    }
                } else if n % 6 == 5 {
                    MotionSpec::Walking {
                        speed_mps: 1.5,
                        heading_deg: (n % 4) as f64 * 90.0,
                    }
                } else {
                    MotionSpec::Stationary
                };
                b = b.client(x, y, motion, Workload::Udp);
                n += 1;
            }
        }
    }
    b.into_spec()
}

/// The metro outcome plus the derived headline numbers.
#[derive(Clone, Debug)]
pub struct MetroSummary {
    /// The full fleet outcome.
    pub outcome: FleetOutcome,
}

/// Run the metro fleet, returning its summary as a [`Report`] plus the
/// outcome.
pub fn report() -> (Report, MetroSummary) {
    let mut r = Report::new("fig_metro");
    r.header("Metro fleet: 224 clients x 32 APs, 1 s, shared medium (scaling)");

    let spec = metro_fleet();
    let fleet = FleetScenario::compile(&spec).expect("metro spec is valid");
    let outcome = fleet.run();

    let associated = outcome
        .clients
        .iter()
        .filter(|c| !c.aps_visited.is_empty())
        .count();
    let busiest = outcome
        .aps
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.association_s.total_cmp(&b.1.association_s))
        .expect("non-empty AP set");
    rline!(
        r,
        "clients     : {} ({} associated)",
        outcome.clients.len(),
        associated
    );
    rline!(r, "aps         : {}", outcome.aps.len());
    rline!(
        r,
        "handoffs    : {} total, {} forced",
        outcome.total_handoffs,
        outcome.forced_handoffs
    );
    rline!(
        r,
        "aggregate   : {:.2} Mbit/s, Jain fairness {:.3}",
        outcome.aggregate_goodput_mbps,
        outcome.jain_fairness
    );
    rline!(
        r,
        "busiest AP  : AP{} with {:.1} client-s associated",
        busiest.0,
        busiest.1.association_s
    );
    rline!(
        r,
        "\nEngine claim held: 224x32 in well under a second single-threaded"
    );
    rline!(
        r,
        "(spatial index + span arena), byte-identical at any --jobs count."
    );

    (r, MetroSummary { outcome })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metro_spec_shape() {
        let spec = metro_fleet();
        assert!(
            spec.clients.len() >= 200 && spec.aps.len() >= 32,
            "scale floor"
        );
        assert_eq!(spec.clients.len(), METRO_CLIENTS);
        assert_eq!(spec.aps.len(), METRO_APS);
        // Compiles (validates) cleanly.
        FleetScenario::compile(&spec).expect("valid");
    }

    #[test]
    fn metro_outcome_is_healthy() {
        let (_, s) = report();
        let o = &s.outcome;
        // Overlapping coverage: everyone associates, nearly everyone
        // moves traffic, fairness is defined.
        let associated = o.clients.iter().filter(|c| !c.aps_visited.is_empty());
        assert_eq!(associated.count(), METRO_CLIENTS, "no dead zones");
        assert!(
            o.aggregate_goodput_mbps > 1.0,
            "{}",
            o.aggregate_goodput_mbps
        );
        assert!(o.jain_fairness > 0.2 && o.jain_fairness <= 1.0);
        // The shared medium did real arbitration somewhere.
        assert!(o.aps.iter().any(|a| a.contended_busy_s > 0.0));
    }
}
