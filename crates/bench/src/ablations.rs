//! Ablations of the design choices DESIGN.md §5 calls out.
//!
//! 1. **RapidSample's `δ_success`** — the paper "experimented with
//!    different values of δ_success across a range of experiments, and
//!    found little difference"; the sweep verifies that flatness.
//! 2. **Hint detection latency** — how much of the hint-aware protocol's
//!    mixed-mobility gain survives as the movement hint gets staler
//!    (the paper's detector delivers <100 ms).
//! 3. **Adaptive prober hold-down** — the 1 s fast-probing tail after
//!    movement stops, which keeps the estimation window trustworthy.

use crate::report::Report;
use crate::rline;
use hint_mac::BitRate;
use hint_rateadapt::protocols::RapidSample;
use hint_rateadapt::scenario::{EnvironmentSpec, MotionSpec, ScenarioBuilder};
use hint_rateadapt::Workload;
use hint_sim::{mean, SimDuration};
use hint_topology::adaptive::{AdaptiveConfig, AdaptiveProber};
use hint_topology::delivery::{actual_series, held_tracking_error};
use hint_topology::ProbeStream;

/// Sweep RapidSample's `δ_success` on mobile traces; returns the output
/// as a [`Report`] plus `(delta_success_ms, mean goodput Mbps)` rows.
pub fn rapidsample_delta_success_report() -> (Report, Vec<(u64, f64)>) {
    let mut r = Report::new("ablation_delta_success");
    r.header("Ablation: RapidSample delta_success sweep (mobile, office, UDP)");
    let dur = SimDuration::from_secs(20);
    // One compiled scenario per trace; every delta runs over the same
    // traces (the scenario's default protocol is overridden per run).
    let scenarios: Vec<_> = (0..6u64)
        .map(|i| {
            ScenarioBuilder::new()
                .motion(MotionSpec::Walking {
                    speed_mps: 1.4,
                    heading_deg: 0.0,
                })
                .duration(dur)
                .seed(7000 + i)
                .build()
                .expect("valid ablation scenario")
        })
        .collect();
    let mut rows_out = Vec::new();
    let mut rows = Vec::new();
    for delta_ms in [1u64, 2, 5, 8, 10, 20] {
        let goodputs: Vec<f64> = scenarios
            .iter()
            .map(|scenario| {
                let mut rs = RapidSample::with_params(
                    SimDuration::from_millis(delta_ms),
                    SimDuration::from_millis(10),
                );
                scenario.run_with(&mut rs).goodput_bps / 1e6
            })
            .collect();
        let m = mean(&goodputs);
        rows.push(vec![format!("{delta_ms}"), format!("{m:.2}")]);
        rows_out.push((delta_ms, m));
    }
    r.table(&["delta_success (ms)", "goodput (Mbps)"], &rows);
    rline!(
        r,
        "(paper: 'found little difference' across delta_success values)"
    );
    (r, rows_out)
}

/// Sweep the movement-hint latency fed to the hint-aware protocol on
/// mixed traces; returns the output as a [`Report`] plus
/// `(latency_ms, mean goodput Mbps)` rows.
pub fn hint_latency_report() -> (Report, Vec<(u64, f64)>) {
    let mut r = Report::new("ablation_hint_latency");
    r.header("Ablation: movement-hint latency vs hint-aware goodput (mixed, TCP)");
    let dur = SimDuration::from_secs(20);
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for latency_ms in [0u64, 100, 300, 1000, 3000, 8000] {
        let goodputs: Vec<f64> = (0..6u64)
            .map(|i| {
                ScenarioBuilder::new()
                    .motion(MotionSpec::HalfAndHalf {
                        static_first: i % 2 == 0,
                    })
                    .duration(dur)
                    .seed(7100 + i)
                    .workload(Workload::tcp())
                    .protocol("HintAware")
                    .oracle_hints(SimDuration::from_millis(latency_ms))
                    .build()
                    .expect("valid ablation scenario")
                    .run()
                    .result
                    .goodput_bps
                    / 1e6
            })
            .collect();
        let m = mean(&goodputs);
        rows.push(vec![format!("{latency_ms}"), format!("{m:.2}")]);
        out.push((latency_ms, m));
    }
    r.table(&["hint latency (ms)", "HintAware goodput (Mbps)"], &rows);
    rline!(
        r,
        "(the <100 ms sensor detector sits on the flat part of this curve)"
    );
    (r, out)
}

/// Sweep the adaptive prober's hold-down; returns the output as a
/// [`Report`] plus `(hold_down_ms, mean held tracking error)` rows.
pub fn prober_hold_down_report() -> (Report, Vec<(u64, f64)>) {
    let mut r = Report::new("ablation_prober_hold_down");
    r.header("Ablation: adaptive prober hold-down vs tracking error (mixed trace)");
    // The traces are invariant across the hold-down sweep: build each
    // scenario's trace, probe stream and actual-delivery series once.
    let motion = MotionSpec::Alternating {
        each: SimDuration::from_secs(10),
        n_pairs: 3,
    };
    let profile = motion.profile(motion.implied_duration().expect("self-sizing motion"));
    let cases: Vec<_> = (0..6u64)
        .map(|i| {
            let trace = ScenarioBuilder::new()
                .environment(EnvironmentSpec::MeshEdge)
                .motion_sized(motion.clone())
                .seed(7500 + i)
                .build_trace()
                .expect("valid ablation trace");
            let stream = ProbeStream::from_trace(&trace, BitRate::R6, i);
            let actual = actual_series(&stream);
            (stream, actual)
        })
        .collect();

    let mut out = Vec::new();
    let mut rows = Vec::new();
    for hold_ms in [0u64, 250, 500, 1000, 2000, 5000] {
        let mut errs = Vec::new();
        for (stream, actual) in &cases {
            let prober = AdaptiveProber::with_config(AdaptiveConfig {
                slow_hz: 1.0,
                fast_hz: 10.0,
                hold_down: SimDuration::from_millis(hold_ms),
            });
            let run = prober.run(stream, |t| profile.is_moving_at(t));
            errs.push(
                held_tracking_error(&run.estimates, actual, SimDuration::from_millis(100)).mean(),
            );
        }
        let m = mean(&errs);
        rows.push(vec![format!("{hold_ms}"), format!("{m:.4}")]);
        out.push((hold_ms, m));
    }
    r.table(&["hold-down (ms)", "held tracking error"], &rows);
    (r, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_success_curve_is_flat() {
        let rows = rapidsample_delta_success_report().1;
        let vals: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        // "Little difference": < 30% spread across the sweep.
        assert!(
            (max - min) / max < 0.3,
            "delta_success spread {:.1}%",
            100.0 * (max - min) / max
        );
    }

    #[test]
    fn hint_latency_degrades_gracefully() {
        let rows = hint_latency_report().1;
        // Sub-second latency costs little (< 10% vs zero-latency)...
        let at0 = rows[0].1;
        let at300 = rows.iter().find(|r| r.0 == 300).unwrap().1;
        assert!(at300 > 0.9 * at0, "300 ms: {at300:.2} vs 0 ms {at0:.2}");
        // ...but multi-second staleness hurts.
        let at8000 = rows.last().unwrap().1;
        assert!(at8000 < at0, "8 s latency should cost throughput");
    }

    #[test]
    fn hold_down_helps_but_plateaus() {
        let rows = prober_hold_down_report().1;
        let at0 = rows[0].1;
        let at1000 = rows.iter().find(|r| r.0 == 1000).unwrap().1;
        assert!(
            at1000 <= at0 * 1.02,
            "1 s hold-down should not hurt: {at1000:.4} vs {at0:.4}"
        );
    }
}
