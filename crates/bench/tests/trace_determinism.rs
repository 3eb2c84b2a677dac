//! The trace-workload determinism contract: recording is a pure function
//! of the spec, the checked-in trace and replay spec are byte-for-byte
//! what the in-process experiment produces, the replay outcome replays
//! byte-identically (twice, against the golden file, and across fleet
//! `--jobs` worker counts), and record -> replay round-trips through the
//! text format without drift.

use hint_bench::trace_replay::{recorded_trace, recording_scenario_spec, replay_scenario_spec};
use hint_rateadapt::fleet::{ApPlacement, FleetClientSpec, FleetSpec, HandoffSpec};
use hint_rateadapt::scenario::{MotionSpec, ScenarioSpec};
use hint_rateadapt::trace::PacketTrace;
use hint_rateadapt::Workload;
use sensor_hints::fleet::FleetScenario;
use std::path::{Path, PathBuf};

fn repo_path(rel: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench; the spec files live at the
    // workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// The replay spec as checked in: the recording run's channel with the
/// recorded trace as a `Path` workload (relative to the spec file's
/// directory, exercising the rebase-on-load path).
fn checked_in_replay_spec() -> ScenarioSpec {
    ScenarioSpec::load(&repo_path("scenarios/trace_replay_office.json")).expect("spec loads")
}

/// Recording the same spec twice produces byte-identical trace files —
/// the `--record` half of the record -> replay contract.
#[test]
fn recording_is_byte_identical_across_runs() {
    let a = recorded_trace();
    let b = recorded_trace();
    assert!(
        a.to_text() == b.to_text(),
        "two recordings of one spec produced different trace files"
    );
    assert!(a.to_binary() == b.to_binary());
}

/// The checked-in trace file IS the recording of
/// `recording_scenario_spec()`, byte for byte. Regenerate (deliberately!)
/// with `cargo test -p hint-bench --test trace_determinism -- --ignored`.
#[test]
fn checked_in_trace_is_the_recorded_trace() {
    let file = std::fs::read_to_string(repo_path("scenarios/traces/office_mixed_udp.txt"))
        .expect("scenarios/traces/office_mixed_udp.txt");
    let fresh = recorded_trace().to_text();
    assert!(
        file == fresh,
        "scenarios/traces/office_mixed_udp.txt ({} bytes) is not the recording of the \
         fig_trace spec ({} bytes); regenerate with \
         `cargo test -p hint-bench --test trace_determinism -- --ignored`",
        file.len(),
        fresh.len()
    );
    // And the checked-in bytes parse back to the recorded records.
    let parsed = PacketTrace::parse(file.as_bytes()).expect("checked-in trace parses");
    assert_eq!(parsed, recorded_trace());
}

/// Spec-vs-file: running the checked-in replay spec (trace loaded
/// from the checked-in file) is byte-identical to replaying the
/// in-process recording inline — the file round-trip adds nothing and
/// loses nothing.
#[test]
fn replay_from_file_matches_inline_replay_byte_identically() {
    let from_file = checked_in_replay_spec()
        .run()
        .expect("replay spec runs")
        .to_json_pretty();
    let inline = replay_scenario_spec(recorded_trace())
        .run()
        .expect("inline replay runs")
        .to_json_pretty();
    assert!(
        from_file == inline,
        "replaying the checked-in trace file diverged from replaying the in-process \
         recording ({} vs {} bytes)",
        from_file.len(),
        inline.len()
    );
}

/// Same replay spec, run twice — and re-loaded — must be byte-identical.
#[test]
fn replay_runs_twice_byte_identical() {
    let spec = checked_in_replay_spec();
    let a = spec.run().expect("valid").to_json_pretty();
    let b = spec.run().expect("valid").to_json_pretty();
    assert!(a == b, "two runs of one replay spec diverged");
    let again = checked_in_replay_spec()
        .run()
        .expect("valid")
        .to_json_pretty();
    assert!(a == again, "re-loading the spec changed the outcome");
}

/// The golden outcome: the checked-in replay spec must replay to the
/// pinned JSON byte-for-byte. Regenerate (deliberately!) with
/// `cargo test -p hint-bench --test trace_determinism -- --ignored`.
#[test]
fn checked_in_replay_matches_golden_outcome() {
    let golden = std::fs::read_to_string(repo_path(
        "crates/bench/tests/golden/trace_replay_outcome.json",
    ))
    .expect("golden outcome file");
    let fresh = checked_in_replay_spec()
        .run()
        .expect("valid")
        .to_json_pretty()
        + "\n";
    assert!(
        fresh == golden,
        "replay outcome diverged from the golden file ({} vs {} bytes); if the change \
         is intentional, regenerate with \
         `cargo test -p hint-bench --test trace_determinism -- --ignored`",
        fresh.len(),
        golden.len()
    );
}

/// Trace workloads thread through the fleet engine's sharding contract:
/// a two-client fleet where one client replays the recorded trace
/// produces byte-identical outcomes at `--jobs` 1 and 4 (span windowing
/// of the trace is deterministic and merge-order-free).
#[test]
fn fleet_trace_client_byte_identical_across_jobs() {
    let ap = |x_m| ApPlacement {
        x_m,
        y_m: 50.0,
        coverage_m: 65.0,
        backhaul: None,
    };
    let spec = FleetSpec {
        aps: vec![ap(40.0), ap(160.0)],
        clients: vec![
            FleetClientSpec {
                start_x_m: 30.0,
                start_y_m: 50.0,
                motion: MotionSpec::Walking {
                    speed_mps: 1.4,
                    heading_deg: 90.0,
                },
                workload: Workload::trace(recorded_trace()),
            },
            FleetClientSpec {
                start_x_m: 150.0,
                start_y_m: 50.0,
                motion: MotionSpec::Stationary,
                workload: Workload::Udp,
            },
        ],
        duration: recording_scenario_spec().duration,
        seed: 17,
        handoff: HandoffSpec {
            policy: "hint-aware".into(),
            ..HandoffSpec::default()
        },
        ..FleetSpec::default()
    };
    let fleet = FleetScenario::compile(&spec).expect("valid trace-client fleet");
    let serial = fleet.run_with_jobs(1).to_json_pretty();
    let sharded = fleet.run_with_jobs(4).to_json_pretty();
    assert!(
        serial == sharded,
        "fleet outcome with a trace-workload client diverged between --jobs 1 \
         ({} bytes) and --jobs 4 ({} bytes)",
        serial.len(),
        sharded.len()
    );
}

/// Regenerate the checked-in trace, replay spec, and golden outcome.
/// Deliberate-changes-only: run with
/// `cargo test -p hint-bench --test trace_determinism -- --ignored`
/// and review the diff before committing.
#[test]
#[ignore = "regenerates checked-in fixtures; run explicitly after intentional changes"]
fn regenerate_trace_fixtures() {
    std::fs::create_dir_all(repo_path("scenarios/traces")).expect("traces dir");
    std::fs::write(
        repo_path("scenarios/traces/office_mixed_udp.txt"),
        recorded_trace().to_text(),
    )
    .expect("write trace");
    // The checked-in replay spec carries the trace by relative path, so
    // the pair stays small and human-diffable.
    let spec = ScenarioSpec {
        workload: Workload::trace_file("traces/office_mixed_udp.txt"),
        ..recording_scenario_spec()
    };
    spec.save(&repo_path("scenarios/trace_replay_office.json"))
        .expect("write spec");
    let out = checked_in_replay_spec().run().expect("valid");
    std::fs::write(
        repo_path("crates/bench/tests/golden/trace_replay_outcome.json"),
        out.to_json_pretty() + "\n",
    )
    .expect("write golden");
}
