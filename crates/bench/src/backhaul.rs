//! Backhaul experiment — where does the bottleneck live, and do hints
//! still pay when it moves off the air?
//!
//! Every other experiment in the battery is air-limited: the wireless
//! hop is the scarce resource, so airtime saved by hints converts
//! directly into goodput. This one adds the wire behind each AP. Four
//! configurations of the same two-AP office floor, all running the
//! closed-loop [`hint_rateadapt::Workload::flow`] (Reno over a
//! drop-tail queue) instead of open-loop saturation:
//!
//! 1. **air-bound, legacy** — 100 Mbit/s backhaul (never the
//!    bottleneck), no hints, signal-strength handoff.
//! 2. **air-bound, hint-aware** — same fast wire, predicted-dwell
//!    handoff fed by sensor hints.
//! 3. **wire-bound, legacy** — a 2 Mbit/s backhaul per AP: the wire is
//!    now slower than even a conservative air link.
//! 4. **wire-bound, hint-aware** — same slow wire, hints on.
//!
//! The claim under test: the hint policies' goodput advantage is a
//! property of the *air* bottleneck. Once the wire is the bottleneck,
//! both policies drain the same 2 Mbit/s pipe and the ordering
//! **compresses toward parity** — hints still win on handoff metrics
//! (forced handoffs, outage, ghost airtime are air-side effects), but
//! the goodput gap collapses, because airtime saved on a starved radio
//! buys nothing. The shape test pins this compression (a documented
//! non-flip: hints never *lose*, they stop mattering).

use crate::fleet::{checked_in, with_policy, Comparison};
use crate::report::Report;
use crate::rline;
use hint_cc::BackhaulSpec;
use hint_rateadapt::fleet::{FleetOutcome, FleetSpec};
use hint_rateadapt::scenario::HintSpec;
use hint_sim::SimDuration;

/// The fast wire: 100 Mbit/s, 2 ms, 50-packet queue — never the
/// bottleneck against a ≤ 54 Mbit/s air link.
pub fn fast_wire() -> BackhaulSpec {
    BackhaulSpec {
        rate_bps: 100_000_000,
        delay: SimDuration::from_millis(2),
        queue_pkts: 50,
    }
}

/// The four configurations under comparison, in presentation order.
/// The wire-bound rows are `scenarios/fleet_backhaul_office.json` (the
/// `fig_fleet` geometry with every client on the closed-loop flow
/// workload behind a 2 Mbit/s, 8-packet backhaul per AP); the air-bound
/// rows swap every AP's backhaul for [`fast_wire`].
pub fn configurations() -> Vec<(&'static str, FleetSpec)> {
    let wire_bound = checked_in(include_str!(
        "../../../scenarios/fleet_backhaul_office.json"
    ));
    let mut air_bound = wire_bound.clone();
    for ap in &mut air_bound.aps {
        ap.backhaul = Some(fast_wire());
    }
    let sensors = || HintSpec::Sensors { seed: None };
    vec![
        (
            "air-bound, legacy",
            with_policy(&air_bound, "strongest-signal", HintSpec::None),
        ),
        (
            "air-bound, hint-aware",
            with_policy(&air_bound, "hint-aware", sensors()),
        ),
        (
            "wire-bound, legacy",
            with_policy(&wire_bound, "strongest-signal", HintSpec::None),
        ),
        (
            "wire-bound, hint-aware",
            with_policy(&wire_bound, "hint-aware", sensors()),
        ),
    ]
}

/// hint-aware ÷ legacy aggregate goodput for a bottleneck regime
/// (`"air-bound"` or `"wire-bound"`).
pub fn hint_gain(cmp: &Comparison, regime: &str) -> f64 {
    let hint = cmp
        .get(&format!("{regime}, hint-aware"))
        .aggregate_goodput_mbps;
    let legacy = cmp.get(&format!("{regime}, legacy")).aggregate_goodput_mbps;
    hint / legacy
}

/// Total queue drops across a fleet's clients.
pub fn total_backhaul_dropped(o: &FleetOutcome) -> u64 {
    o.clients
        .iter()
        .map(|c| c.outcome.result.backhaul_dropped)
        .sum()
}

/// Run the comparison, returning its output as a [`Report`] plus the
/// outcomes.
pub fn report() -> (Report, Comparison) {
    let mut r = Report::new("fig_backhaul");
    r.header("Backhaul: closed-loop flows, air-bound vs wire-bound bottleneck");

    let res = Comparison::run(configurations());

    let rows: Vec<Vec<String>> = res
        .outcomes
        .iter()
        .map(|(label, o)| {
            let ghost: f64 = o.aps.iter().map(|a| a.wasted_airtime_s).sum();
            vec![
                (*label).to_string(),
                format!("{:.2}", o.aggregate_goodput_mbps),
                format!("{:.3}", o.jain_fairness),
                format!("{}", o.forced_handoffs),
                format!("{:.2}", o.total_outage().as_secs_f64()),
                format!("{ghost:.2}"),
                format!("{}", total_backhaul_dropped(o)),
            ]
        })
        .collect();
    r.table(
        &[
            "configuration",
            "aggregate Mbit/s",
            "Jain",
            "forced",
            "outage s",
            "ghost s",
            "queue drops",
        ],
        &rows,
    );

    r.blank();
    rline!(
        r,
        "hint/legacy goodput gain: {:.2}x air-bound, {:.2}x wire-bound.",
        hint_gain(&res, "air-bound"),
        hint_gain(&res, "wire-bound")
    );
    rline!(
        r,
        "Moving the bottleneck off the air compresses the hint advantage"
    );
    rline!(
        r,
        "toward parity: both policies drain the same wire, and airtime"
    );
    rline!(
        r,
        "saved on a starved radio buys no goodput. Hints keep their"
    );
    rline!(
        r,
        "handoff-metric lead (forced handoffs, outage) in both regimes."
    );

    (r, res)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds() {
        let (_, cmp) = report();
        let air_legacy = cmp.get("air-bound, legacy");
        let air_hint = cmp.get("air-bound, hint-aware");
        let wire_legacy = cmp.get("wire-bound, legacy");
        let wire_hint = cmp.get("wire-bound, hint-aware");

        // The slow wire is a real bottleneck: per-client goodput is
        // capped by the 2 Mbit/s backhaul (aggregate by 4x that), far
        // below the air-bound runs, and its queue visibly tail-drops.
        for o in [wire_legacy, wire_hint] {
            for c in &o.clients {
                assert!(
                    c.outcome.goodput_mbps() <= 2.0 + 1e-9,
                    "{}: client {} at {} Mbit/s exceeds the 2 Mbit/s wire",
                    o.policy,
                    c.client,
                    c.outcome.goodput_mbps()
                );
            }
            assert!(
                o.aggregate_goodput_mbps < 4.0 * 2.0,
                "{}: wire-bound aggregate {} exceeds 4 x wire rate",
                o.policy,
                o.aggregate_goodput_mbps
            );
            assert!(
                o.aggregate_goodput_mbps < air_hint.aggregate_goodput_mbps * 0.8,
                "{}: slow wire did not throttle ({} vs air {})",
                o.policy,
                o.aggregate_goodput_mbps,
                air_hint.aggregate_goodput_mbps
            );
            assert!(
                total_backhaul_dropped(o) > 0,
                "{}: Reno against an 8-slot queue must tail-drop",
                o.policy
            );
        }
        // The fast wire never drops: it is not the bottleneck.
        assert_eq!(total_backhaul_dropped(air_legacy), 0);
        assert_eq!(total_backhaul_dropped(air_hint), 0);

        // The ordering claim (documented non-flip): hints win goodput
        // where the air is scarce, and the advantage compresses toward
        // parity when the wire is — it does not invert.
        let air_gain = hint_gain(&cmp, "air-bound");
        let wire_gain = hint_gain(&cmp, "wire-bound");
        assert!(
            air_gain > wire_gain,
            "hint advantage must compress when the bottleneck moves to \
             the wire: air {air_gain:.3}x vs wire {wire_gain:.3}x"
        );
        assert!(
            wire_gain > 0.9,
            "hints must not lose materially even wire-bound: {wire_gain:.3}x"
        );

        // Hints keep their air-side handoff lead in both regimes.
        assert!(air_hint.forced_handoffs < air_legacy.forced_handoffs);
        assert!(wire_hint.forced_handoffs < wire_legacy.forced_handoffs);
    }
}
