//! Fault injection at fleet scale: does hint-aware handoff degrade
//! gracefully when APs fail and hint streams drop out?
//!
//! The paper's evaluation (and every other battery figure) runs the
//! happy path: APs stay up, sensors never fail. This experiment asks
//! the resilience question instead. A metro-derived floor — 56 clients
//! on a 4 × 2 AP grid, quarter-scale `fig_metro` geometry — runs under
//! an *identical* deterministic fault schedule (three staggered AP
//! outages, hint dropouts on every vehicle, two radio blackouts) in
//! four configurations:
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
//!    configuration at 30 s is the checked-in
//!    `scenarios/fleet_resilience.json`.
//! 4. **hint-etx + fallback** — the ETX-weighted hint policy under the
//!    same fallback rule.
//!
//! Every configuration sees byte-identical faults (the schedule lives
//! in the spec, not the policy), so differences are pure policy
//! response: evictions and AP downtime match across the board, and the
//! `shape_holds` test pins that hinted fallback degrades no worse than
//! naive hint-trusting.

use crate::fleet::Comparison;
use crate::report::Report;
use crate::rline;
use hint_rateadapt::fleet::{
    ApOutage, FaultSpec, FleetOutcome, FleetSpec, HintDropout, MediumSpec, RadioBlackout,
};
use hint_rateadapt::scenario::{HintSpec, MotionSpec};
use hint_rateadapt::Workload;
use hint_sim::SimDuration;

/// Clients in the resilience fleet (7 per AP anchor).
pub const RESILIENCE_CLIENTS: usize = 56;

/// APs in the resilience fleet (4 × 2 grid).
pub const RESILIENCE_APS: usize = 8;

/// The canonical run length; `scenarios/fleet_resilience.json` pins the
/// "hint-aware + fallback" configuration at this duration.
pub const RESILIENCE_DURATION: SimDuration = SimDuration::from_secs(30);

/// The deterministic fault schedule for a run of `duration`, expressed
/// as integer-microsecond fractions so the 10 s hot-path variant and
/// the 30 s battery run exercise the same *shape* of storm: three
/// staggered AP outages (middle of the grid, where the vehicles drive
/// through), a hint dropout on every vehicle, and two radio blackouts
/// on parked clients.
pub fn resilience_faults(duration: SimDuration) -> FaultSpec {
    let d = duration.as_micros();
    let frac = |pct: u64| SimDuration::from_micros(d * pct / 100);
    let mut faults = FaultSpec {
        ap_outages: vec![
            ApOutage {
                ap: 1,
                start: frac(20),
                duration: frac(20),
            },
            ApOutage {
                ap: 5,
                start: frac(45),
                duration: frac(25),
            },
            ApOutage {
                ap: 6,
                start: frac(70),
                duration: frac(20),
            },
        ],
        radio_blackouts: vec![
            RadioBlackout {
                client: 3,
                start: frac(30),
                duration: frac(10),
            },
            RadioBlackout {
                client: 31,
                start: frac(60),
                duration: frac(15),
            },
        ],
        ..FaultSpec::default()
    };
    // Every seventh client is a vehicle (metro motion mix); each one
    // loses its hint stream for a quarter of the run, staggered so the
    // dropouts sweep across the storm windows.
    for (k, client) in (0..RESILIENCE_CLIENTS).filter(|c| c % 7 == 6).enumerate() {
        faults.hint_dropouts.push(HintDropout {
            client,
            start: frac(5 + 8 * k as u64),
            duration: frac(25),
        });
    }
    faults
}

/// The resilience floor: quarter-scale `fig_metro` geometry (4 × 2 AP
/// grid on a 100 m pitch with 75 m disks, 7 clients golden-angle
/// spiralled around each anchor, every sixth walking and every seventh
/// driving) under a shared medium, with `faults` injected.
pub fn resilience_fleet(
    policy: &str,
    hints: HintSpec,
    faults: FaultSpec,
    duration: SimDuration,
) -> FleetSpec {
    let mut b = FleetSpec::builder()
        .bounds(400.0, 200.0)
        .duration(duration)
        .seed(0xFA017)
        .protocol("HintAware")
        .handoff_policy(policy)
        .hints(hints)
        .scan_interval(SimDuration::from_millis(500))
        .reassociation_cost(SimDuration::from_millis(20))
        .medium(MediumSpec::shared())
        .faults(faults);
    for j in 0..2 {
        for i in 0..4 {
            b = b.ap(50.0 + 100.0 * i as f64, 50.0 + 100.0 * j as f64, 75.0);
        }
    }
    let mut n = 0usize;
    for j in 0..2 {
        for i in 0..4 {
            let (ax, ay) = (50.0 + 100.0 * i as f64, 50.0 + 100.0 * j as f64);
            for s in 0..7 {
                let angle = n as f64 * 2.399;
                let r = 6.0 + 4.0 * s as f64;
                let x = (ax + r * angle.cos()).clamp(0.0, 400.0);
                let y = (ay + r * angle.sin()).clamp(0.0, 200.0);
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

/// The four configurations compared under the identical fault schedule.
pub fn configurations(duration: SimDuration) -> [(&'static str, FleetSpec); 4] {
    let faults = resilience_faults(duration);
    let naive = FaultSpec {
        hint_fallback: false,
        ..faults.clone()
    };
    [
        (
            "legacy signal",
            resilience_fleet("strongest-signal", HintSpec::None, faults.clone(), duration),
        ),
        (
            "hint-aware, naive",
            resilience_fleet(
                "hint-aware",
                HintSpec::Sensors { seed: None },
                naive,
                duration,
            ),
        ),
        (
            "hint-aware + fallback",
            resilience_fleet(
                "hint-aware",
                HintSpec::Sensors { seed: None },
                faults.clone(),
                duration,
            ),
        ),
        (
            "hint-etx + fallback",
            resilience_fleet(
                "hint-etx",
                HintSpec::Sensors { seed: None },
                faults,
                duration,
            ),
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

    let summary = Comparison::run(configurations(RESILIENCE_DURATION));

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
        "Every configuration sees the identical fault schedule (downtime and"
    );
    rline!(
        r,
        "evictions match), so the rows differ only in policy response. The"
    );
    rline!(
        r,
        "naive ablation keeps trusting frozen hints and rides failing links"
    );
    rline!(
        r,
        "to the coverage edge; the fallback policies degrade to RSSI scoring"
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
        for (label, spec) in configurations(RESILIENCE_DURATION) {
            assert_eq!(spec.clients.len(), RESILIENCE_CLIENTS, "{label}");
            assert_eq!(spec.aps.len(), RESILIENCE_APS, "{label}");
            assert_eq!(spec.faults.ap_outages.len(), 3, "{label}");
            assert_eq!(spec.faults.hint_dropouts.len(), 8, "{label}");
            assert_eq!(spec.faults.radio_blackouts.len(), 2, "{label}");
            FleetScenario::compile(&spec).expect("valid");
        }
    }

    #[test]
    fn shape_holds() {
        let (_, s) = report();

        // The fault schedule is identical across configurations: same
        // downtime, same evictions (everyone was parked on the same
        // grid when the APs died).
        let down = |label: &str| -> f64 { s.get(label).aps.iter().map(|a| a.down_s).sum() };
        let evicted = |label: &str| -> u32 { s.get(label).aps.iter().map(|a| a.evictions).sum() };
        let legacy_down = down("legacy signal");
        assert!(legacy_down > 10.0, "storm too small: {legacy_down}");
        for label in [
            "hint-aware, naive",
            "hint-aware + fallback",
            "hint-etx + fallback",
        ] {
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
        let _ = evicted("legacy signal");

        // Fallback time accrues only where hints exist *and* fallback is
        // on.
        let fallback =
            |label: &str| -> f64 { s.get(label).clients.iter().map(|c| c.fallback_s).sum() };
        assert_eq!(fallback("legacy signal"), 0.0);
        assert_eq!(fallback("hint-aware, naive"), 0.0);
        assert!(fallback("hint-aware + fallback") > 10.0);
        assert!(fallback("hint-etx + fallback") > 10.0);

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
