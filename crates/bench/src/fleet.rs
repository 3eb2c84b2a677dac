//! Fleet scenario — hint-aware association and handoff at multi-client
//! scale (Sec. 5.2 taken fleet-wide).
//!
//! Three configurations of the same four-client, two-AP office floor are
//! compared, isolating the two places hints help:
//!
//! 1. **legacy** — no hint pipeline at all, signal-strength handoff: the
//!    walkers ride their APs out of coverage (forced handoffs), and each
//!    silent departure costs the AP a Fig. 5-1-style 10 s of open-loop
//!    ghost airtime.
//! 2. **strongest-signal + hints** — the handoff policy still ignores
//!    hints, but departing clients announce movement, so APs quarantine
//!    them and ghost airtime collapses to occasional probes.
//! 3. **hint-aware** — predicted-dwell handoff: walkers switch to the AP
//!    ahead *before* losing the old one (no forced handoffs at all).
//!
//! The geometry (65 m coverage disks 120 m apart) is chosen so the 3 dB
//! signal hysteresis cannot clear inside the overlap zone — exactly the
//! regime where "the node's heading might provide an important clue
//! about the best AP to associate with" (Sec. 5.2.1).

use crate::report::Report;
use crate::rline;
use hint_rateadapt::fleet::{FleetOutcome, FleetSpec};
use hint_rateadapt::scenario::HintSpec;
use sensor_hints::fleet::FleetScenario;

/// The three configurations under comparison, in presentation order.
/// Each is `scenarios/fleet_office_walk.json` (the hint-aware row) with
/// its handoff policy and hint feed swapped.
pub fn configurations() -> Vec<(&'static str, FleetSpec)> {
    let base = checked_in(include_str!("../../../scenarios/fleet_office_walk.json"));
    let sensors = || HintSpec::Sensors { seed: None };
    vec![
        (
            "legacy (no hints, signal)",
            with_policy(&base, "strongest-signal", HintSpec::None),
        ),
        (
            "strongest-signal + hints",
            with_policy(&base, "strongest-signal", sensors()),
        ),
        ("hint-aware", with_policy(&base, "hint-aware", sensors())),
    ]
}

/// Parse a checked-in fleet spec file embedded with `include_str!`:
/// the file is the experiment's one definition.
pub fn checked_in(json: &str) -> FleetSpec {
    FleetSpec::from_json(json).expect("checked-in fleet specs parse")
}

/// `base` with its handoff policy and hint feed replaced: the two
/// fields a policy comparison varies.
pub fn with_policy(base: &FleetSpec, policy: &str, hints: HintSpec) -> FleetSpec {
    let mut spec = base.clone();
    spec.handoff.policy = policy.to_string();
    spec.hints = hints;
    spec
}

/// Fleet outcomes keyed by configuration label, in configuration
/// order: what every fleet comparison in the battery returns.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// `(label, outcome)` per configuration.
    pub outcomes: Vec<(&'static str, FleetOutcome)>,
}

impl Comparison {
    /// Compile and run each labelled spec, in order.
    pub fn run(configs: impl IntoIterator<Item = (&'static str, FleetSpec)>) -> Comparison {
        let outcomes = configs
            .into_iter()
            .map(|(label, spec)| {
                let fleet = FleetScenario::compile(&spec).expect("battery fleet specs are valid");
                (label, fleet.run())
            })
            .collect();
        Comparison { outcomes }
    }

    /// The outcome for a configuration label.
    pub fn get(&self, label: &str) -> &FleetOutcome {
        &self
            .outcomes
            .iter()
            .find(|(l, _)| *l == label)
            .expect("known configuration label")
            .1
    }
}

/// Run the comparison, returning its output as a [`Report`] plus the
/// outcomes.
pub fn report() -> (Report, Comparison) {
    let mut r = Report::new("fig_fleet");
    r.header("Fleet: 4 clients x 2 APs, hint-aware association/handoff (Sec. 5.2)");

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
                format!("{}", o.total_handoffs),
                format!("{}", o.forced_handoffs),
                format!("{:.2}", o.total_outage().as_secs_f64()),
                format!("{ghost:.2}"),
            ]
        })
        .collect();
    r.table(
        &[
            "configuration",
            "aggregate Mbit/s",
            "Jain",
            "handoffs",
            "forced",
            "outage s",
            "ghost airtime s",
        ],
        &rows,
    );

    r.blank();
    for c in &res.get("hint-aware").clients {
        let path: Vec<String> = c.aps_visited.iter().map(|a| format!("AP{a}")).collect();
        rline!(
            r,
            "hint-aware client {}: {:>6.2} Mbit/s, {} handoffs, path {}",
            c.client,
            c.outcome.goodput_mbps(),
            c.handoffs,
            path.join(" -> ")
        );
    }
    rline!(
        r,
        "\nClaim held: hints remove forced handoffs and collapse ghost airtime;"
    );
    rline!(
        r,
        "aggregate goodput orders legacy < signal+hints <= hint-aware."
    );

    (r, res)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds() {
        let (_, cmp) = report();
        let legacy = cmp.get("legacy (no hints, signal)");
        let signal = cmp.get("strongest-signal + hints");
        let hint = cmp.get("hint-aware");

        // Both walkers hand off between both APs in every configuration.
        for o in [legacy, signal, hint] {
            for c in [0, 1] {
                assert!(
                    o.clients[c].aps_visited.len() >= 2,
                    "{}: client {c} visited {:?}",
                    o.policy,
                    o.clients[c].aps_visited
                );
            }
            assert!(o.total_handoffs >= 2);
        }

        // Hint-led handoff: the hint policy never loses coverage; the
        // signal policy rides the old AP out of range.
        assert_eq!(hint.forced_handoffs, 0, "hint-aware must pre-empt");
        assert!(signal.forced_handoffs >= 2, "signal policy is forced");
        assert!(legacy.forced_handoffs >= 2);

        // The Fig. 5-1 effect at fleet scale: silent departures cost the
        // APs ~10 s of ghost airtime each; hinting clients get
        // quarantined for a few probe frames instead.
        let ghost = |o: &hint_rateadapt::fleet::FleetOutcome| -> f64 {
            o.aps.iter().map(|a| a.wasted_airtime_s).sum()
        };
        assert!(ghost(legacy) > 10.0, "legacy ghost {}", ghost(legacy));
        assert!(ghost(signal) < 1.0, "hinting ghost {}", ghost(signal));
        assert_eq!(ghost(hint), 0.0);

        // Hints help throughput end to end.
        assert!(
            hint.aggregate_goodput_mbps > legacy.aggregate_goodput_mbps,
            "hint {} vs legacy {}",
            hint.aggregate_goodput_mbps,
            legacy.aggregate_goodput_mbps
        );
    }
}
