//! Every example under `examples/` must at least construct its scenario.
//!
//! The examples are the first thing a new reader runs, and nothing else in
//! the test suite exercises their exact entry points — an API rename could
//! silently break them between CI runs of `cargo build --examples`. Each
//! test here mirrors one example's setup code (scaled down where the
//! example simulates minutes of traffic) and asserts the scenario produces
//! sane output. The examples themselves are also compiled by CI via
//! `cargo test`, which builds example targets.

use sensor_hints::ap::association::{best_ap, predicted_dwell_s, ApCandidate, ClientMotion};
use sensor_hints::ap::disassociation::{fig_5_1_scenario, DisassociationPolicy, FairnessModel};
use sensor_hints::ap::scheduler::{simulate_two_client_schedule, SchedulePolicy};
use sensor_hints::mac::hint_proto::{HintField, HintWire};
use sensor_hints::mac::BitRate;
use sensor_hints::rateadapt::protocols::{ProtocolKind, ProtocolParams};
use sensor_hints::rateadapt::scenario::{EnvironmentSpec, MotionSpec, ScenarioBuilder};
use sensor_hints::rateadapt::{HintStream, Workload};
use sensor_hints::sensors::gps::Position;
use sensor_hints::sensors::MotionProfile;
use sensor_hints::sim::{RngStream, SimDuration, SimTime};
use sensor_hints::topology::adaptive::AdaptiveProber;
use sensor_hints::topology::delivery::actual_series;
use sensor_hints::topology::ProbeStream;
use sensor_hints::vehicular::links::{collect_links, table_5_1};
use sensor_hints::vehicular::mobility::Fleet;
use sensor_hints::vehicular::roads::RoadNetwork;

/// `examples/quickstart.rs`: hint stream from profile to hint field.
#[test]
fn quickstart_scenario_constructs() {
    let profile = MotionProfile::static_move_static(
        SimDuration::from_secs(5),
        SimDuration::from_secs(5),
        SimDuration::from_secs(5),
    );
    let hints = HintStream::from_sensors(&profile, profile.duration(), 2026);
    let moving = hints.query(SimTime::from_secs(7));
    assert!(moving, "mid-walk the hint must be up");
    let field = HintField::with_tlv(HintWire::Movement(moving));
    assert_eq!(field.movement_hint(), Some(true));
}

/// `examples/supermarket.rs`: every protocol simulates the shopper's
/// mixed-mobility TCP session through one compiled scenario.
#[test]
fn supermarket_scenario_constructs() {
    let scenario = ScenarioBuilder::new()
        .motion_sized(MotionSpec::Alternating {
            each: SimDuration::from_secs(2),
            n_pairs: 2,
        })
        .seed(1)
        .workload(Workload::tcp())
        .sensor_hints_seeded(1 ^ 0xA15)
        .build()
        .expect("valid supermarket scenario");
    let duration = scenario.spec().duration;
    for kind in ProtocolKind::ALL {
        let mut adapter = kind.build(&ProtocolParams::default());
        let r = scenario.run_with(adapter.as_mut());
        assert!(
            r.attempts > 0,
            "{} attempted nothing over {duration}",
            kind.name()
        );
    }
}

/// `examples/mesh_probing.rs`: probing strategies over one mesh-edge
/// scenario's trace and hint stream.
#[test]
fn mesh_probing_scenario_constructs() {
    let scenario = ScenarioBuilder::new()
        .environment(EnvironmentSpec::MeshEdge)
        .motion_sized(MotionSpec::Alternating {
            each: SimDuration::from_secs(5),
            n_pairs: 2,
        })
        .seed(99)
        .sensor_hints_seeded(0x99)
        .build()
        .expect("valid mesh-probing scenario");
    let stream = ProbeStream::from_trace(scenario.trace(), BitRate::R6, 99);
    let hints = scenario.hints().expect("sensor hints configured");
    let actual = actual_series(&stream);
    assert!(!actual.is_empty(), "delivery series must be non-empty");
    let run = AdaptiveProber::new().run(&stream, |t| hints.query(t));
    assert!(run.probes_sent > 0);
    assert!(!run.estimates.is_empty());
}

/// `examples/ap_handoff.rs`: association, scheduling, and disassociation.
#[test]
fn ap_handoff_scenario_constructs() {
    let behind = ApCandidate {
        id: 0,
        position: Position { x: -20.0, y: 0.0 },
        rssi_dbm: -45.0,
        coverage_m: 100.0,
    };
    let ahead = ApCandidate {
        id: 1,
        position: Position { x: 80.0, y: 0.0 },
        rssi_dbm: -55.0,
        coverage_m: 100.0,
    };
    let client = ClientMotion {
        position: Position { x: 0.0, y: 0.0 },
        moving: true,
        heading_deg: 90.0,
        speed_mps: 1.4,
    };
    assert_eq!(
        best_ap(&[behind, ahead], |ap| ap.rssi_dbm).map(|b| b.0),
        Some(0)
    );
    let dwell = best_ap(&[behind, ahead], |ap| predicted_dwell_s(ap, &client));
    assert_eq!(dwell.map(|b| b.0), Some(1));

    let out =
        simulate_two_client_schedule(SchedulePolicy::EqualShare, BitRate::R54, 2_000, 10.0, 60.0);
    assert!(out.aggregate() > 0);

    let scenario = fig_5_1_scenario(
        DisassociationPolicy::Timeout {
            prune_after: SimDuration::from_secs(10),
        },
        FairnessModel::FrameLevel,
    );
    assert!(scenario.mean_goodput_mbps(0, 5, 30) > 0.0);
}

/// `examples/vehicular_mesh.rs`: road network, fleet, link statistics.
#[test]
fn vehicular_mesh_scenario_constructs() {
    let root = RngStream::new(51);
    let mut net_rng = root.derive("net");
    let network = RoadNetwork::generate(6, 2000.0, &mut net_rng);
    let fleet = Fleet::new(network, 20, root.derive("fleet"));
    let snaps = fleet.simulate(60);
    assert_eq!(snaps.len(), 60 + 1, "one snapshot per second plus t=0");
    let records = collect_links(&snaps);
    let (_medians, _all_median, counts) = table_5_1(&records);
    assert_eq!(
        counts.iter().sum::<usize>(),
        records.len(),
        "every link lands in exactly one heading bucket"
    );
}
