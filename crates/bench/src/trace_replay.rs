//! `fig_trace` — record → replay: a recorded packet schedule as a
//! reproducible workload.
//!
//! The experiment the trace subsystem exists for: record the
//! delivered-packet schedule of one mixed-mobility run, then replay that
//! schedule — the same offered load, at the same instants — through
//! each of the six protocols. Synthetic workloads answer "what does each
//! protocol do under saturation?"; a replayed trace answers the
//! paper-adjacent question "what would each protocol have done with
//! *this* traffic?" (any real capture in the trace format plugs into the
//! same pipeline via a `Trace` workload; see EXPERIMENTS.md, "Trace
//! workloads").
//!
//! Everything here runs in-process — the recording is produced by
//! [`recording_scenario_spec`] and replayed directly — so the battery
//! job works from any working directory. The checked-in artifacts
//! (`scenarios/trace_replay_office.json`, `scenarios/traces/
//! office_mixed_udp.txt`) are the same experiment as files, pinned by
//! `tests/trace_determinism.rs`.

use crate::report::Report;
use crate::rline;
use hint_rateadapt::protocols::ProtocolKind;
use hint_rateadapt::scenario::{MotionSpec, ProtocolSpec, ScenarioBuilder, ScenarioSpec};
use hint_rateadapt::trace::PacketTrace;
use hint_rateadapt::Workload;
use hint_sim::SimDuration;

/// Seed of the recording run (and, via the spec, of the replay channel).
pub const TRACE_SEED: u64 = 90;

/// The run whose delivered-packet schedule becomes the trace: office,
/// half static / half walking, 10 s, saturated UDP under RapidSample
/// with sensor hints.
pub fn recording_scenario_spec() -> ScenarioSpec {
    ScenarioBuilder::new()
        .motion(MotionSpec::HalfAndHalf { static_first: true })
        .duration(SimDuration::from_secs(10))
        .seed(TRACE_SEED)
        .workload(Workload::Udp)
        .protocol("RapidSample")
        .sensor_hints()
        .into_spec()
}

/// Record the delivered-packet trace of [`recording_scenario_spec`]
/// (deterministic: same spec, same trace, every call).
pub fn recorded_trace() -> PacketTrace {
    let scenario = recording_scenario_spec()
        .compile()
        // detlint::allow(PANIC001): the spec is a compiled-in constant
        .expect("recording spec is valid");
    scenario.run_recording().1
}

/// The replay experiment as a spec file would express it: the same
/// channel as the recording run, with the recorded schedule as the
/// workload. The checked-in `scenarios/trace_replay_office.json` is this
/// spec with the trace as a `Path` source instead of inline.
pub fn replay_scenario_spec(trace: PacketTrace) -> ScenarioSpec {
    ScenarioSpec {
        workload: Workload::trace(trace),
        ..recording_scenario_spec()
    }
}

/// Run the record→replay experiment, returning its output as a
/// [`Report`] plus the per-protocol replay goodputs in table order
/// (the job-runner entry point).
pub fn report() -> (Report, Vec<(String, f64)>) {
    let mut r = Report::new("fig_trace");
    r.header("Trace workload: record -> replay across all protocols");

    let recording = recording_scenario_spec();
    let scenario = recording
        .compile()
        // detlint::allow(PANIC001): the spec is a compiled-in constant
        .expect("recording spec is valid");
    let (outcome, trace) = scenario.run_recording();
    rline!(
        r,
        "recorded: {} packets over {} ({} under {}, seed {})",
        trace.len(),
        trace.duration(),
        recording.workload.summary(),
        outcome.protocol,
        recording.seed
    );
    r.blank();

    let mut results = Vec::new();
    let mut rows = Vec::new();
    for name in ProtocolKind::ALL.map(ProtocolKind::name) {
        let spec = ScenarioSpec {
            protocol: ProtocolSpec::named(name),
            ..replay_scenario_spec(trace.clone())
        };
        // detlint::allow(PANIC001): the spec is a compiled-in constant
        let out = spec.run().expect("replay spec is valid");
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", out.goodput_mbps()),
            format!(
                "{}/{}",
                out.result.packets_delivered, out.result.packets_sent
            ),
            format!("{:.1}%", 100.0 * out.delivery_ratio()),
        ]);
        results.push((name.to_string(), out.goodput_mbps()));
    }
    r.table(
        &["protocol", "replay Mbit/s", "delivered", "attempt DR"],
        &rows,
    );
    r.blank();
    rline!(
        r,
        "replay offers each recorded packet at its recorded instant; idle"
    );
    rline!(
        r,
        "gaps are skipped, so goodput reflects the offered schedule, not"
    );
    rline!(r, "saturation.");
    (r, results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_trace_is_deterministic_and_replayable() {
        let a = recorded_trace();
        let b = recorded_trace();
        assert_eq!(a, b, "recording must be a pure function of the spec");
        assert!(a.validate_replayable().is_ok());
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn report_covers_every_protocol() {
        let (r, results) = report();
        assert_eq!(results.len(), ProtocolKind::ALL.len());
        for (name, goodput) in &results {
            assert!(r.text().contains(name.as_str()), "{name} missing");
            assert!(*goodput > 0.0, "{name} replayed nothing");
        }
    }
}
