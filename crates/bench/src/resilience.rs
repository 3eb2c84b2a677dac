//! Fault injection at fleet scale: does hint-aware handoff degrade
//! gracefully when APs fail and hint streams drop out?
//!
//! The paper's evaluation (and every other battery figure) runs the
//! happy path: APs stay up, sensors never fail. This experiment asks
//! the resilience question instead. A metro-derived floor — 56 clients
//! on a 4 × 2 AP grid, quarter-scale `fig_metro` geometry — runs under
//! an *identical* deterministic fault schedule (three staggered AP
//! outages, hint dropouts on every vehicle, two radio blackouts) in
//! three configurations:
//!
//! 1. **legacy signal** — no hints, strongest-signal handoff: the
//!    baseline that never had hints to lose.
//! 2. **hint-aware, naive** — hint-aware handoff that keeps trusting a
//!    dropped-out stream's last reading (`hint_fallback: false`). The
//!    frozen "stationary" verdict scores every candidate as an infinite
//!    dwell, hysteresis never clears, and the client rides its AP to
//!    the coverage edge — the catastrophic-degradation ablation.
//! 3. **hint-aware + fallback** — the headline behavior: while a
//!    client's hints are out (past the stale hold), handoff falls back
//!    to legacy RSSI scoring and resumes hint use on recovery. This
//!    configuration is the checked-in `scenarios/fleet_resilience.json`,
//!    which holds the geometry, the 30 s duration and the fault schedule.
//!
//! Every configuration sees byte-identical faults (the schedule lives
//! in the spec, not the policy), so differences are pure policy
//! response: AP downtime matches across the board (evictions do not:
//! they count the clients each policy had on an AP when it died), and
//! the `shape_holds` test pins that hinted fallback degrades no worse
//! than naive hint-trusting.

use crate::fleet::{checked_in, with_policy, Comparison};
use crate::report::Report;
use crate::rline;
use hint_rateadapt::fleet::{FleetOutcome, FleetSpec};
use hint_rateadapt::scenario::HintSpec;

/// The three configurations compared under the identical fault schedule.
/// Each is `scenarios/fleet_resilience.json` (the "hint-aware +
/// fallback" row) with its handoff policy and hint feed swapped; the
/// naive row also switches the hint fallback off.
pub fn configurations() -> [(&'static str, FleetSpec); 3] {
    let base = checked_in(include_str!("../../../scenarios/fleet_resilience.json"));
    let sensors = || HintSpec::Sensors { seed: None };
    let mut naive = with_policy(&base, "hint-aware", sensors());
    naive.faults.hint_fallback = false;
    [
        (
            "legacy signal",
            with_policy(&base, "strongest-signal", HintSpec::None),
        ),
        ("hint-aware, naive", naive),
        (
            "hint-aware + fallback",
            with_policy(&base, "hint-aware", sensors()),
        ),
    ]
}

/// Total client outage across the fleet, seconds.
pub fn total_outage_s(o: &FleetOutcome) -> f64 {
    o.clients.iter().map(|c| c.outage.as_secs_f64()).sum()
}

/// Run the comparison, returning its output as a [`Report`] plus the
/// outcomes.
pub fn report() -> (Report, Comparison) {
    let mut r = Report::new("fig_resilience");
    r.header("Fault injection: 56 clients x 8 APs, 3 AP outages + hint dropouts + blackouts");

    let summary = Comparison::run(configurations());

    let rows: Vec<Vec<String>> = summary
        .outcomes
        .iter()
        .map(|(label, o)| {
            vec![
                label.to_string(),
                format!("{:.2}", o.aggregate_goodput_mbps),
                format!("{:.3}", o.jain_fairness),
                format!("{}", o.forced_handoffs),
                format!("{}", o.aps.iter().map(|a| a.evictions).sum::<u32>()),
                format!("{:.1}", total_outage_s(o)),
                format!("{:.1}", o.clients.iter().map(|c| c.fallback_s).sum::<f64>()),
                format!("{}", o.clients.iter().map(|c| c.scan_retries).sum::<u32>()),
            ]
        })
        .collect();
    r.table(
        &[
            "configuration",
            "Mbit/s",
            "Jain",
            "forced",
            "evictions",
            "outage s",
            "fallback s",
            "retries",
        ],
        &rows,
    );

    r.blank();
    rline!(
        r,
        "Every configuration sees the identical fault schedule (AP downtime"
    );
    rline!(
        r,
        "matches; evictions count the clients each policy had on an AP when"
    );
    rline!(
        r,
        "it died), so the rows differ only in policy response. The"
    );
    rline!(
        r,
        "naive ablation keeps trusting frozen hints and rides failing links"
    );
    rline!(
        r,
        "to the coverage edge; the fallback policy degrades to RSSI scoring"
    );
    rline!(r, "while a stream is out and resume hint use on recovery.");

    (r, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensor_hints::fleet::FleetScenario;

    #[test]
    fn resilience_spec_shape() {
        for (label, spec) in configurations() {
            assert_eq!(spec.clients.len(), 56, "{label}");
            assert_eq!(spec.aps.len(), 8, "{label}");
            assert_eq!(spec.faults.ap_outages.len(), 3, "{label}");
            assert_eq!(spec.faults.hint_dropouts.len(), 8, "{label}");
            assert_eq!(spec.faults.radio_blackouts.len(), 2, "{label}");
            FleetScenario::compile(&spec).expect("valid");
        }
    }

    #[test]
    fn shape_holds() {
        let (_, s) = report();

        // The fault schedule is identical across configurations, so the
        // AP downtime matches. Evictions need not: they count the
        // clients each policy had on an AP when it died.
        let down = |label: &str| -> f64 { s.get(label).aps.iter().map(|a| a.down_s).sum() };
        let legacy_down = down("legacy signal");
        assert!(legacy_down > 10.0, "storm too small: {legacy_down}");
        for label in ["hint-aware, naive", "hint-aware + fallback"] {
            assert_eq!(down(label), legacy_down, "{label}");
        }
        for (label, o) in &s.outcomes {
            assert!(
                o.aps.iter().map(|a| a.evictions).sum::<u32>() > 0,
                "{label}: no evictions"
            );
            assert!(
                o.clients.iter().map(|c| c.scan_retries).sum::<u32>() > 0,
                "{label}: no rescans"
            );
            assert!(o.aggregate_goodput_mbps > 0.5, "{label}: fleet collapsed");
        }

        // Fallback time accrues only where hints exist *and* fallback is
        // on.
        let fallback =
            |label: &str| -> f64 { s.get(label).clients.iter().map(|c| c.fallback_s).sum() };
        assert_eq!(fallback("legacy signal"), 0.0);
        assert_eq!(fallback("hint-aware, naive"), 0.0);
        assert!(fallback("hint-aware + fallback") > 10.0);

        // The headline: hinted fallback degrades no worse than naive
        // hint-trusting — the naive ablation's frozen hints pin clients
        // to failing links, costing forced handoffs and outage.
        let naive = s.get("hint-aware, naive");
        let fb = s.get("hint-aware + fallback");
        assert!(
            (fb.forced_handoffs, total_outage_s(fb).round() as u64)
                <= (naive.forced_handoffs, total_outage_s(naive).round() as u64),
            "fallback (forced {}, outage {:.1}) worse than naive (forced {}, outage {:.1})",
            fb.forced_handoffs,
            total_outage_s(fb),
            naive.forced_handoffs,
            total_outage_s(naive)
        );
    }
}
