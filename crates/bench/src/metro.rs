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
//! The experiment is `scenarios/fleet_metro.json` as checked in. Its
//! geometry is an 8 × 4 AP grid on a 100 m pitch with 75 m coverage
//! disks, so adjacent disks overlap (no dead zones on the walkways) but
//! a client is only ever inside a handful of disks — the regime where a
//! spatial index beats the all-APs scan. Clients spread deterministically
//! around the AP anchors via a golden-angle spiral: most are parked,
//! every sixth walks and every seventh rides a vehicle, giving the
//! handoff machinery real work.

use crate::fleet::checked_in;
use crate::report::Report;
use crate::rline;
use hint_rateadapt::fleet::FleetOutcome;
use sensor_hints::fleet::FleetScenario;

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

    let spec = checked_in(include_str!("../../../scenarios/fleet_metro.json"));
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
    fn metro_outcome_is_healthy() {
        let (_, s) = report();
        let o = &s.outcome;
        // Overlapping coverage: everyone associates, nearly everyone
        // moves traffic, fairness is defined.
        let associated = o.clients.iter().filter(|c| !c.aps_visited.is_empty());
        assert_eq!(associated.count(), 224, "no dead zones");
        assert_eq!(o.aps.len(), 32);
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
