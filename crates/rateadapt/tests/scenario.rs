//! Integration tests of the Scenario API's two contracts:
//!
//! 1. **Serde round-trips** — every spec shape survives
//!    spec → JSON → spec with full equality, so spec files are faithful
//!    experiment descriptions.
//! 2. **Spec-vs-pipeline determinism** — a spec-driven run is
//!    bit-identical to the equivalent hand-built `Trace` + `HintStream` +
//!    `LinkSimulator` pipeline with the same seeds.

use hint_channel::{Environment, Trace};
use hint_rateadapt::fleet::{ApPlacement, FleetBounds, FleetClientSpec, FleetSpec, HandoffSpec};
use hint_rateadapt::scenario::{
    EnvironmentSpec, HintSpec, MotionSpec, ProtocolSpec, ScenarioSpec, HINT_SEED_MASK,
};
use hint_rateadapt::{HintStream, LinkSimulator, ProtocolKind, ProtocolParams, Workload};
use hint_sensors::MotionProfile;
use hint_sim::SimDuration;

fn ap(x_m: f64, y_m: f64, coverage_m: f64) -> ApPlacement {
    ApPlacement {
        x_m,
        y_m,
        coverage_m,
        backhaul: None,
    }
}

fn roundtrip(spec: &ScenarioSpec) -> ScenarioSpec {
    let json = spec.to_json();
    ScenarioSpec::from_json(&json).expect("spec JSON parses back")
}

#[test]
fn default_spec_round_trips() {
    let spec = ScenarioSpec::default();
    assert_eq!(roundtrip(&spec), spec);
}

#[test]
fn every_environment_variant_round_trips() {
    for env in [
        EnvironmentSpec::Office,
        EnvironmentSpec::Hallway,
        EnvironmentSpec::Outdoor,
        EnvironmentSpec::Vehicular,
        EnvironmentSpec::MeshEdge,
        EnvironmentSpec::Custom(Environment::vehicular()),
    ] {
        let spec = ScenarioSpec {
            environment: env,
            ..ScenarioSpec::default()
        };
        assert_eq!(roundtrip(&spec), spec);
    }
}

#[test]
fn every_motion_variant_round_trips() {
    let profile = MotionProfile::alternating(SimDuration::from_secs(2), 2);
    for motion in [
        MotionSpec::Stationary,
        MotionSpec::Walking {
            speed_mps: 1.4,
            heading_deg: 90.0,
        },
        MotionSpec::Vehicle {
            speed_mps: 15.0,
            heading_deg: 45.0,
        },
        MotionSpec::HalfAndHalf {
            static_first: false,
        },
        MotionSpec::StaticMoveStatic {
            lead: SimDuration::from_secs(2),
            moving: SimDuration::from_secs(6),
            tail: SimDuration::from_secs(2),
        },
        MotionSpec::Alternating {
            each: SimDuration::from_secs(1),
            n_pairs: 5,
        },
        MotionSpec::Custom(profile.segments().to_vec()),
    ] {
        let spec = ScenarioSpec {
            motion,
            duration: SimDuration::from_secs(10),
            ..ScenarioSpec::default()
        };
        assert_eq!(roundtrip(&spec), spec);
    }
}

#[test]
fn workload_hints_and_protocol_round_trip() {
    let spec = ScenarioSpec {
        workload: Workload::tcp(),
        hints: HintSpec::Sensors { seed: Some(17) },
        protocol: ProtocolSpec {
            name: "HintAware".into(),
            samplerate_window: SimDuration::from_secs(5),
        },
        payload_bytes: 500,
        seed: 0xDEADBEEF,
        ..ScenarioSpec::default()
    };
    assert_eq!(roundtrip(&spec), spec);

    let oracle = ScenarioSpec {
        hints: HintSpec::Oracle {
            latency: SimDuration::from_millis(250),
        },
        ..ScenarioSpec::default()
    };
    assert_eq!(roundtrip(&oracle), oracle);
}

#[test]
fn pretty_json_parses_back_too() {
    let spec = ScenarioSpec {
        motion: MotionSpec::HalfAndHalf { static_first: true },
        workload: Workload::tcp(),
        hints: HintSpec::Sensors { seed: None },
        ..ScenarioSpec::default()
    };
    let parsed = ScenarioSpec::from_json(&spec.to_json_pretty()).expect("pretty JSON parses");
    assert_eq!(parsed, spec);
}

#[test]
fn spec_file_save_load_round_trips() {
    let spec = ScenarioSpec {
        environment: EnvironmentSpec::Vehicular,
        motion: MotionSpec::Vehicle {
            speed_mps: 12.0,
            heading_deg: 0.0,
        },
        seed: 99,
        ..ScenarioSpec::default()
    };
    let dir = std::env::temp_dir().join("hint-scenario-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("spec.json");
    spec.save(&path).expect("save");
    let loaded = ScenarioSpec::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, spec);
}

#[test]
fn spec_literal_and_json_agree_bit_identically_with_hand_built_run() {
    // Same experiment three ways: raw pipeline, struct literal,
    // spec-from-JSON.
    let duration = SimDuration::from_secs(6);
    let seed = 4242;

    // 1. Hand-built.
    let env = Environment::outdoor();
    let profile = MotionProfile::half_and_half(duration / 2, true);
    let trace = Trace::generate(&env, &profile, duration, seed);
    let hints = HintStream::from_sensors(&profile, duration, seed ^ HINT_SEED_MASK);
    let mut adapter = ProtocolKind::HintAware.build(&ProtocolParams::default());
    let hand = LinkSimulator::from_trace(trace)
        .with_owned_hints(hints)
        .run(adapter.as_mut(), &Workload::tcp());

    // 2. Struct literal.
    let literal = ScenarioSpec {
        environment: EnvironmentSpec::Outdoor,
        motion: MotionSpec::HalfAndHalf { static_first: true },
        duration,
        seed,
        workload: Workload::tcp(),
        protocol: ProtocolSpec::named("HintAware"),
        hints: HintSpec::Sensors { seed: None },
        ..ScenarioSpec::default()
    };
    let from_literal = literal.run().expect("valid scenario");

    // 3. The literal, serialized and parsed back.
    let parsed = ScenarioSpec::from_json(&literal.to_json()).expect("parses");
    assert_eq!(parsed, literal);
    let from_spec = parsed.run().expect("valid spec");

    assert_eq!(from_literal.result, hand);
    assert_eq!(from_spec.result, hand);
    assert_eq!(from_spec, from_literal);
}

#[test]
fn different_seeds_give_different_outcomes() {
    let run = |seed: u64| {
        ScenarioSpec {
            motion: MotionSpec::Walking {
                speed_mps: 1.4,
                heading_deg: 0.0,
            },
            duration: SimDuration::from_secs(3),
            seed,
            ..ScenarioSpec::default()
        }
        .run()
        .expect("valid")
        .result
    };
    assert_ne!(run(1), run(2));
    assert_eq!(run(1), run(1));
}

#[test]
fn custom_environment_spec_runs_like_its_preset() {
    // `Custom` carrying the office preset behaves exactly like `Office`.
    let base = ScenarioSpec {
        duration: SimDuration::from_secs(2),
        seed: 3,
        ..ScenarioSpec::default()
    };
    let preset = ScenarioSpec {
        environment: EnvironmentSpec::Office,
        ..base.clone()
    };
    let custom = ScenarioSpec {
        environment: EnvironmentSpec::Custom(Environment::office()),
        ..base
    };
    assert_eq!(
        preset.run().expect("valid").result,
        custom.run().expect("valid").result
    );
}

#[test]
fn null_backhaul_parses_as_no_backhaul() {
    // `"backhaul": null` means "no wire", exactly like a missing key.
    let spec = ScenarioSpec::default();
    let with_null = spec.to_json().replacen('{', "{\"backhaul\":null,", 1);
    let parsed = ScenarioSpec::from_json(&with_null).expect("null backhaul parses");
    assert_eq!(parsed.backhaul, None);
    assert_eq!(parsed, spec);
}

#[test]
fn fleet_spec_round_trips_every_field() {
    let spec = FleetSpec {
        environment: EnvironmentSpec::Hallway,
        bounds: FleetBounds {
            width_m: 300.0,
            height_m: 80.0,
        },
        aps: vec![ap(50.0, 40.0, 60.0), ap(250.0, 40.0, 60.0)],
        clients: vec![
            FleetClientSpec {
                start_x_m: 10.0,
                start_y_m: 40.0,
                motion: MotionSpec::Vehicle {
                    speed_mps: 8.0,
                    heading_deg: 90.0,
                },
                workload: Workload::tcp(),
            },
            FleetClientSpec {
                start_x_m: 20.0,
                start_y_m: 20.0,
                motion: MotionSpec::Stationary,
                workload: Workload::Udp,
            },
        ],
        duration: SimDuration::from_secs(40),
        seed: 99,
        protocol: ProtocolSpec::named("SampleRate"),
        hints: HintSpec::Oracle {
            latency: SimDuration::from_millis(200),
        },
        handoff: HandoffSpec {
            policy: "hint-aware".into(),
            scan_interval: SimDuration::from_millis(500),
            hysteresis: 1.5,
            reassociation_cost: SimDuration::from_millis(80),
        },
        payload_bytes: 1500,
        ..FleetSpec::default()
    };
    spec.validate().expect("valid fleet spec");
    let reparsed = FleetSpec::from_json(&spec.to_json()).expect("parses back");
    assert_eq!(reparsed, spec);
    let pretty = FleetSpec::from_json(&spec.to_json_pretty()).expect("pretty parses back");
    assert_eq!(pretty, spec);
}

#[test]
fn fleet_validation_reuses_scenario_error_paths() {
    use hint_rateadapt::scenario::ScenarioError;
    let base = FleetSpec {
        aps: vec![ap(50.0, 40.0, 60.0)],
        clients: vec![FleetClientSpec {
            start_x_m: 10.0,
            start_y_m: 40.0,
            motion: MotionSpec::Stationary,
            workload: Workload::Udp,
        }],
        duration: SimDuration::from_secs(10),
        ..FleetSpec::default()
    };
    assert_eq!(
        FleetSpec {
            duration: SimDuration::ZERO,
            ..base.clone()
        }
        .validate()
        .err(),
        Some(ScenarioError::ZeroDuration)
    );
    assert_eq!(
        FleetSpec {
            payload_bytes: 0,
            ..base.clone()
        }
        .validate()
        .err(),
        Some(ScenarioError::BadPayload(0))
    );
    // Unknown protocols surface as an error that lists the known names.
    let err = FleetSpec {
        protocol: ProtocolSpec::named("warpdrive"),
        ..base
    }
    .validate()
    .err()
    .unwrap();
    assert!(err.to_string().contains("one of: HintAware"));
}
