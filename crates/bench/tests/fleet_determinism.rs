//! The fleet engine's determinism contract, mirroring
//! `parallel_determinism.rs`: a fleet run is a pure function of its spec
//! and seed. Running the checked-in spec twice, running it through the
//! job pool at `--jobs 1` vs `--jobs 4`, and replaying it against the
//! pinned golden outcome must all be byte-identical.

use hint_bench::fleet::{configurations, office_walk_fleet};
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
    FleetSpec::load(&repo_path("scenarios/fleet_office_walk.json")).expect("spec loads")
}

/// Same compiled fleet, run twice — and recompiled from the same spec —
/// must be byte-identical.
#[test]
fn fleet_runs_twice_byte_identical() {
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

/// The checked-in spec file IS the builder fleet the battery runs: the
/// two must produce identical outcomes (the Scenario-API contract,
/// extended to fleets).
#[test]
fn checked_in_spec_matches_builder_fleet() {
    let from_file = FleetScenario::compile(&checked_in_spec())
        .expect("valid")
        .run();
    let from_builder = FleetScenario::compile(&office_walk_fleet(
        "hint-etx",
        HintSpec::Sensors { seed: None },
    ))
    .expect("valid")
    .run();
    assert_eq!(from_file, from_builder);
}

/// Acceptance shape of the checked-in scenario: at least two clients
/// hand off between at least two APs during the run.
#[test]
fn checked_in_spec_has_multi_client_handoffs() {
    let out = FleetScenario::compile(&checked_in_spec())
        .expect("valid")
        .run();
    let roaming = out
        .clients
        .iter()
        .filter(|c| {
            c.handoffs >= 1 && {
                let mut aps = c.aps_visited.clone();
                aps.sort_unstable();
                aps.dedup();
                aps.len() >= 2
            }
        })
        .count();
    assert!(
        roaming >= 2,
        "need >= 2 clients roaming between >= 2 APs, got {roaming}"
    );
    assert!(out.total_handoffs >= 2);
}

/// One fleet job per battery configuration, pushed through the parallel
/// job pool: output at 4 workers is byte-identical to serial.
#[test]
fn fleet_jobs_parallel_output_identical_to_serial() {
    let make = || -> Vec<Job> {
        configurations()
            .into_iter()
            .map(|(label, spec)| {
                Job::new(label, "one fleet configuration", move || {
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
        "fleet battery diverged between --jobs 1 ({} bytes) and --jobs 4 ({} bytes)",
        serial.len(),
        parallel.len()
    );
    assert!(serial.contains("\"policy\": \"hint-etx\""));
}

/// Regenerates `scenarios/fleet_office_walk.json` and its golden
/// outcome — deliberately, after a change that re-anchors seeded draws:
///
/// ```text
/// cargo test -p hint-bench --test fleet_determinism -- --ignored regenerate
/// ```
#[test]
#[ignore = "writes the checked-in spec and golden outcome files"]
fn regenerate_checked_in_files() {
    let spec = office_walk_fleet("hint-etx", HintSpec::Sensors { seed: None });
    spec.save(&repo_path("scenarios/fleet_office_walk.json"))
        .expect("spec written");
    let out = FleetScenario::compile(&spec).expect("valid").run();
    std::fs::write(
        repo_path("crates/bench/tests/golden/fleet_office_walk_outcome.json"),
        out.to_json_pretty() + "\n",
    )
    .expect("golden written");
}

/// The golden outcome: the checked-in spec must replay to the pinned
/// JSON byte-for-byte. Regenerate (deliberately!) with
/// `scenario_run scenarios/fleet_office_walk.json --json` after any
/// change that re-anchors seeded draws.
#[test]
fn checked_in_spec_matches_golden_outcome() {
    let golden = std::fs::read_to_string(repo_path(
        "crates/bench/tests/golden/fleet_office_walk_outcome.json",
    ))
    .expect("golden outcome file");
    let out = FleetScenario::compile(&checked_in_spec())
        .expect("valid")
        .run();
    let fresh = out.to_json_pretty() + "\n";
    assert!(
        fresh == golden,
        "fleet outcome diverged from the golden file ({} vs {} bytes); if the change \
         is intentional, regenerate with `scenario_run scenarios/fleet_office_walk.json --json`",
        fresh.len(),
        golden.len()
    );
}
