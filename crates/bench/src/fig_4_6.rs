//! Fig. 4-6 — delivery probability over time by probing strategy, on a
//! combined static+mobile trace.
//!
//! "Notice that our adaptive protocol maintains an accurate assessment of
//! the actual delivery probability throughout the experiment, while the
//! non-adaptive 1 probe per second strategy lags by multiple seconds."

use crate::report::Report;
use crate::rline;
use hint_mac::BitRate;
use hint_rateadapt::scenario::{EnvironmentSpec, HintSpec, MotionSpec, Scenario, ScenarioSpec};
use hint_sim::{SimDuration, SimTime};
use hint_topology::adaptive::{fixed_rate_run, AdaptiveProber};
use hint_topology::delivery::{actual_series, held_tracking_error};
use hint_topology::ProbeStream;

/// Summary of the Fig. 4-6 run.
#[derive(Clone, Debug)]
pub struct Fig46Result {
    /// Time-held tracking error of the adaptive prober (mean over traces).
    pub adaptive_err: f64,
    /// Time-held tracking error of the fixed 1 probe/s baseline (mean).
    pub fixed_err: f64,
    /// Probes the adaptive prober sent (first trace).
    pub adaptive_probes: u64,
    /// Probes an always-fast (10/s) prober would have sent (first trace).
    pub fast_equivalent: u64,
}

/// Run the 60 s combined-trace comparison. Hints come from the full
/// sensor pipeline (synthetic accelerometer → jerk detector), not ground
/// truth. The printed series is one representative trace; the reported
/// errors average eight independent traces (single-trace errors are
/// dominated by whether the mobile phase happened to cross a delivery
/// cliff). Returns the output as a [`Report`] plus the statistics.
pub fn report() -> (Report, Fig46Result) {
    let mut r = Report::new("fig_4_6");
    r.header("Fig. 4-6: delivery probability by probing strategy (combined trace)");
    let step = SimDuration::from_millis(100);
    // Static 0-20 s, mobile 20-40 s, static 40-60 s, on the mesh-edge
    // link; hints ride the sensor pipeline with the historical seed.
    let motion = MotionSpec::StaticMoveStatic {
        lead: SimDuration::from_secs(20),
        moving: SimDuration::from_secs(20),
        tail: SimDuration::from_secs(20),
    };
    // The 60 s duration comes from the segments.
    let duration = motion.implied_duration().expect("self-sizing motion");
    let scenario_for = |seed: u64| -> Scenario {
        ScenarioSpec {
            environment: EnvironmentSpec::MeshEdge,
            motion: motion.clone(),
            duration,
            seed,
            hints: HintSpec::Sensors {
                seed: Some(seed ^ 0x4646),
            },
            ..ScenarioSpec::default()
        }
        .compile()
        .expect("valid Fig. 4-6 scenario")
    };

    // Aggregate errors over several traces.
    let mut adaptive_stats = hint_sim::OnlineStats::new();
    let mut fixed_stats = hint_sim::OnlineStats::new();
    for seed in 4606..4614u64 {
        let scenario = scenario_for(seed);
        let stream = ProbeStream::from_trace(scenario.trace(), BitRate::R6, seed ^ 0x46);
        let hints = scenario.hints().expect("sensor hints configured");
        let actual = actual_series(&stream);
        let arun = AdaptiveProber::new().run(&stream, |t| hints.query(t));
        let frun = fixed_rate_run(&stream, 1.0);
        adaptive_stats.merge(&held_tracking_error(&arun.estimates, &actual, step));
        fixed_stats.merge(&held_tracking_error(&frun, &actual, step));
    }
    let adaptive_err = adaptive_stats.mean();
    let fixed_err = fixed_stats.mean();

    // Representative trace for the printed figure.
    let scenario = scenario_for(4607);
    let stream = ProbeStream::from_trace(scenario.trace(), BitRate::R6, 4607 ^ 0x46);
    let hints = scenario.hints().expect("sensor hints configured");
    let actual = actual_series(&stream);
    let run = AdaptiveProber::new().run(&stream, |t| hints.query(t));
    let fixed = fixed_rate_run(&stream, 1.0);

    // Print the three series per second.
    let hold = |samples: &[hint_topology::delivery::DeliverySample], t: SimTime| {
        samples
            .iter()
            .take_while(|s| s.t <= t)
            .last()
            .map(|s| s.p)
            .unwrap_or(0.0)
    };
    let per_sec = |samples: &[hint_topology::delivery::DeliverySample]| -> Vec<(f64, f64)> {
        (0..60)
            .step_by(2)
            .map(|s| (s as f64, hold(samples, SimTime::from_secs(s))))
            .collect()
    };
    r.series("actual   (movement 20s-40s)", &per_sec(&actual), 1.0, 40);
    r.series(
        &format!("adaptive (err {adaptive_err:.3})"),
        &per_sec(&run.estimates),
        1.0,
        40,
    );
    r.series(
        &format!("1 probe/s (err {fixed_err:.3})"),
        &per_sec(&fixed),
        1.0,
        40,
    );
    rline!(
        r,
        "probes sent: adaptive {}, always-fast equivalent {} (saving {:.1}x)",
        run.probes_sent,
        run.fast_equivalent,
        run.bandwidth_saving_factor()
    );

    let res = Fig46Result {
        adaptive_err,
        fixed_err,
        adaptive_probes: run.probes_sent,
        fast_equivalent: run.fast_equivalent,
    };
    (r, res)
}

#[cfg(test)]
mod tests {
    #[test]
    fn shape_holds() {
        let r = super::report().1;
        assert!(
            r.adaptive_err < r.fixed_err,
            "adaptive {} vs fixed {}",
            r.adaptive_err,
            r.fixed_err
        );
        // Bandwidth: far fewer probes than always-fast.
        assert!(r.adaptive_probes * 2 < r.fast_equivalent);
    }
}
