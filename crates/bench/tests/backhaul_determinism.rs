//! The backhaul fleet's determinism contract, mirroring
//! `fleet_determinism.rs`: a closed-loop flow run over wired backhauls
//! is a pure function of its spec and seed. Running the checked-in
//! `scenarios/fleet_backhaul_office.json` twice, running it through the
//! job pool at `--jobs 1` vs `--jobs 4`, and replaying it against the
//! pinned golden outcome must all be byte-identical.

use hint_bench::backhaul::{backhaul_office_fleet, configurations, slow_wire};
use hint_bench::runner::{battery_output, Job};
use hint_bench::{report::Report, rline};
use hint_rateadapt::fleet::FleetSpec;
use hint_rateadapt::scenario::HintSpec;
use sensor_hints::fleet::FleetScenario;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

fn repo_path(rel: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench; the spec files live at the
    // workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn checked_in_spec() -> FleetSpec {
    FleetSpec::load(&repo_path("scenarios/fleet_backhaul_office.json")).expect("spec loads")
}

/// Same compiled fleet, run twice — and recompiled from the same spec —
/// must be byte-identical.
#[test]
fn backhaul_fleet_runs_twice_byte_identical() {
    let fleet = FleetScenario::compile(&checked_in_spec()).expect("valid");
    let a = fleet.run().to_json_pretty();
    let b = fleet.run().to_json_pretty();
    assert!(a == b, "two runs of one compiled fleet diverged");
    let again = FleetScenario::compile(&checked_in_spec())
        .expect("valid")
        .run()
        .to_json_pretty();
    assert!(a == again, "recompiling the spec changed the outcome");
}

/// The checked-in spec file IS the wire-bound hint-aware builder fleet
/// the battery runs: the two must produce identical outcomes.
#[test]
fn checked_in_spec_matches_builder_fleet() {
    let from_file = FleetScenario::compile(&checked_in_spec())
        .expect("valid")
        .run();
    let from_builder = FleetScenario::compile(&backhaul_office_fleet(
        "hint-aware",
        HintSpec::Sensors { seed: None },
        slow_wire(),
    ))
    .expect("valid")
    .run();
    assert_eq!(from_file, from_builder);
}

/// Acceptance shape of the checked-in scenario: the wire throttles
/// every client (per-client goodput at or under the 2 Mbit/s backhaul)
/// and its queue visibly tail-drops.
#[test]
fn checked_in_spec_is_wire_bound() {
    let out = FleetScenario::compile(&checked_in_spec())
        .expect("valid")
        .run();
    for c in &out.clients {
        assert!(
            c.outcome.goodput_mbps() <= 2.0 + 1e-9,
            "client {}: {} Mbit/s exceeds the 2 Mbit/s wire",
            c.client,
            c.outcome.goodput_mbps()
        );
    }
    let dropped: u64 = out
        .clients
        .iter()
        .map(|c| c.outcome.result.backhaul_dropped)
        .sum();
    assert!(dropped > 0, "Reno against an 8-slot queue must tail-drop");
    assert!(out.aggregate_goodput_mbps > 1.0, "flows still move data");
}

/// One backhaul job per battery configuration, pushed through the
/// parallel job pool: output at 4 workers is byte-identical to serial.
#[test]
fn backhaul_jobs_parallel_output_identical_to_serial() {
    let make = || -> Vec<Job> {
        configurations()
            .into_iter()
            .map(|(label, spec)| {
                Job::new(label, "one backhaul configuration", move || {
                    let mut r = Report::new(label);
                    let out = FleetScenario::compile(&spec).expect("valid").run();
                    rline!(r, "{}", out.to_json_pretty());
                    r
                })
            })
            .collect()
    };
    let serial = battery_output(make(), NonZeroUsize::MIN);
    let parallel = battery_output(make(), NonZeroUsize::new(4).unwrap());
    assert!(
        serial == parallel,
        "backhaul battery diverged between --jobs 1 ({} bytes) and --jobs 4 ({} bytes)",
        serial.len(),
        parallel.len()
    );
    assert!(serial.contains("\"backhaul_dropped\""));
}

/// Regenerates `scenarios/fleet_backhaul_office.json` and its golden
/// outcome — deliberately, after a change that re-anchors seeded draws:
///
/// ```text
/// cargo test -p hint-bench --test backhaul_determinism -- --ignored regenerate
/// ```
#[test]
#[ignore = "writes the checked-in spec and golden outcome files"]
fn regenerate_checked_in_files() {
    let spec = backhaul_office_fleet("hint-aware", HintSpec::Sensors { seed: None }, slow_wire());
    spec.save(&repo_path("scenarios/fleet_backhaul_office.json"))
        .expect("spec written");
    let out = FleetScenario::compile(&spec).expect("valid").run();
    std::fs::write(
        repo_path("crates/bench/tests/golden/fleet_backhaul_outcome.json"),
        out.to_json_pretty() + "\n",
    )
    .expect("golden written");
}

/// The golden outcome: the checked-in spec must replay to the pinned
/// JSON byte-for-byte. Regenerate (deliberately!) with the `--ignored
/// regenerate` test above after any change that re-anchors seeded
/// draws.
#[test]
fn checked_in_spec_matches_golden_outcome() {
    let golden = std::fs::read_to_string(repo_path(
        "crates/bench/tests/golden/fleet_backhaul_outcome.json",
    ))
    .expect("golden outcome file");
    let out = FleetScenario::compile(&checked_in_spec())
        .expect("valid")
        .run();
    let fresh = out.to_json_pretty() + "\n";
    assert!(
        fresh == golden,
        "backhaul outcome diverged from the golden file ({} vs {} bytes); if the \
         change is intentional, regenerate with the `--ignored regenerate` test",
        fresh.len(),
        golden.len()
    );
}
