//! The checked-in scenario spec files are executable contracts: each must
//! load to the same spec as its Rust struct literal, validate, and
//! reproduce the literal's run **bit-identically** (same seeds ⇒ same
//! `SimResult`). This is the
//! acceptance property behind the `scenario_run` CLI — a JSON file is the
//! whole experiment.

use sensor_hints::rateadapt::scenario::{
    EnvironmentSpec, HintSpec, MotionSpec, ProtocolSpec, ScenarioSpec,
};
use sensor_hints::rateadapt::Workload;
use sensor_hints::sim::SimDuration;
use std::path::{Path, PathBuf};

fn spec_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name)
}

/// The pinned outcome bytes for a single-link spec (regenerated only by
/// `cargo test -p hint-bench --test checked_in -- --ignored`).
fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/bench/tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn mixed_office_tcp_spec_matches_its_rust_literal() {
    let spec = ScenarioSpec::load(&spec_path("mixed_office_tcp.json")).expect("spec loads");
    let from_file = spec.run().expect("spec is valid");

    // The same experiment written out in Rust: the file and the literal
    // are the same spec, and run the same.
    let literal = ScenarioSpec {
        environment: EnvironmentSpec::Office,
        motion: MotionSpec::HalfAndHalf { static_first: true },
        duration: SimDuration::from_secs(20),
        seed: 0xCAFE,
        workload: Workload::tcp(),
        protocol: ProtocolSpec::named("HintAware"),
        hints: HintSpec::Sensors { seed: None },
        ..ScenarioSpec::default()
    };
    assert_eq!(spec, literal);
    let hand_coded = literal.run().expect("valid scenario");

    assert_eq!(from_file.protocol, "HintAware");
    assert_eq!(from_file.environment, "office");
    // Bit-identical: goodput, delivery counts, rate usage, per-second
    // series — the full SimResult.
    assert_eq!(from_file.result, hand_coded.result);
    assert!(from_file.result.goodput_bps > 0.0);
    assert!(
        from_file.to_json_pretty() + "\n" == golden("mixed_office_tcp_outcome.json"),
        "open-loop TCP outcome diverged from its golden"
    );
}

#[test]
fn vehicular_udp_spec_matches_its_rust_literal() {
    let spec = ScenarioSpec::load(&spec_path("vehicular_udp.json")).expect("spec loads");
    let from_file = spec.run().expect("spec is valid");

    let literal = ScenarioSpec {
        environment: EnvironmentSpec::Vehicular,
        motion: MotionSpec::Vehicle {
            speed_mps: 15.0,
            heading_deg: 0.0,
        },
        duration: SimDuration::from_secs(10),
        seed: 7,
        workload: Workload::Udp,
        protocol: ProtocolSpec::named("RapidSample"),
        hints: HintSpec::Oracle {
            latency: SimDuration::from_millis(100),
        },
        ..ScenarioSpec::default()
    };
    assert_eq!(spec, literal);
    let hand_coded = literal.run().expect("valid scenario");

    assert_eq!(from_file.result, hand_coded.result);
    assert_eq!(from_file.environment, "vehicular");
    assert!(
        from_file.to_json_pretty() + "\n" == golden("vehicular_udp_outcome.json"),
        "UDP outcome diverged from its golden"
    );
}

#[test]
fn trace_replay_spec_reproduces_its_golden() {
    // The spec names its packet trace by a path relative to the spec
    // file; `load` rebases it, and compile reads it.
    let spec = ScenarioSpec::load(&spec_path("trace_replay_office.json")).expect("spec loads");
    let outcome = spec.run().expect("spec is valid");
    assert_eq!(outcome.protocol, "RapidSample");
    assert!(outcome.result.packets_delivered > 0);
    assert!(
        outcome.to_json_pretty() + "\n" == golden("trace_replay_outcome.json"),
        "trace-replay outcome diverged from its golden"
    );
}

#[test]
fn checked_in_specs_round_trip_through_their_own_serialization() {
    for name in ["mixed_office_tcp.json", "vehicular_udp.json"] {
        let spec = ScenarioSpec::load(&spec_path(name)).expect("spec loads");
        let reparsed = ScenarioSpec::from_json(&spec.to_json_pretty()).expect("round-trips");
        assert_eq!(reparsed, spec, "{name}");
    }
}

#[test]
fn checked_in_hint_seed_follows_derivation_convention() {
    // mixed_office_tcp.json leaves the sensor seed null; the compiled
    // scenario must derive seed ^ 0x5EED exactly as `evaluate` does.
    let spec = ScenarioSpec::load(&spec_path("mixed_office_tcp.json")).expect("spec loads");
    assert_eq!(spec.hints, HintSpec::Sensors { seed: None });
    let derived = spec.compile().expect("valid");
    let explicit = ScenarioSpec {
        hints: HintSpec::Sensors {
            seed: Some(spec.seed ^ 0x5EED),
        },
        ..spec
    }
    .compile()
    .expect("valid");
    assert_eq!(derived.run().result, explicit.run().result);
}
