//! The shared-medium fleet's determinism and compatibility contract,
//! extending `fleet_determinism.rs` to `contention: shared`:
//!
//! * the checked-in contended spec replays byte-identically (twice, from
//!   the builder, through the job pool at any `--jobs`, and against its
//!   pinned golden outcome), and
//! * `contention: isolated` — explicit or defaulted — reproduces the
//!   pre-contention golden outcome byte-for-byte, so turning the
//!   contention layer *off* is provably the old engine.

use hint_bench::contention::contended_office_fleet;
use hint_bench::runner::{battery_output, Job};
use hint_bench::{report::Report, rline};
use hint_rateadapt::fleet::{FleetSpec, MediumSpec};
use hint_rateadapt::scenario::HintSpec;
use hint_sim::SimDuration;
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

/// The builder fleet the checked-in spec mirrors: 4 clients (one
/// departing walker + three parked) on one AP, shared medium, hint-aware
/// handoff, sensor hints.
fn builder_fleet() -> FleetSpec {
    contended_office_fleet(
        4,
        "hint-aware",
        HintSpec::Sensors { seed: None },
        MediumSpec::shared(),
        SimDuration::from_secs(30),
    )
}

fn checked_in_spec() -> FleetSpec {
    FleetSpec::load(&repo_path("scenarios/fleet_contended_office.json")).expect("spec loads")
}

/// Regenerates `scenarios/fleet_contended_office.json` and its golden
/// outcome — deliberately, after a change that re-anchors seeded draws:
///
/// ```text
/// cargo test -p hint-bench --test fleet_contention -- --ignored regenerate
/// ```
#[test]
#[ignore = "writes the checked-in spec and golden outcome files"]
fn regenerate_checked_in_files() {
    let spec = builder_fleet();
    spec.save(&repo_path("scenarios/fleet_contended_office.json"))
        .expect("spec written");
    let out = FleetScenario::compile(&spec).expect("valid").run();
    std::fs::write(
        repo_path("crates/bench/tests/golden/fleet_contended_office_outcome.json"),
        out.to_json_pretty() + "\n",
    )
    .expect("golden written");
}

/// Same compiled contended fleet, run twice — and recompiled from the
/// same spec — must be byte-identical: the arbiter re-derives every
/// backoff draw from the fleet seed.
#[test]
fn contended_fleet_runs_twice_byte_identical() {
    let fleet = FleetScenario::compile(&checked_in_spec()).expect("valid");
    let a = fleet.run().to_json_pretty();
    let b = fleet.run().to_json_pretty();
    assert!(a == b, "two runs of one compiled contended fleet diverged");
    let again = FleetScenario::compile(&checked_in_spec())
        .expect("valid")
        .run()
        .to_json_pretty();
    assert!(a == again, "recompiling the spec changed the outcome");
}

/// The checked-in contended spec IS the builder fleet `fig_contention`
/// sweeps at n = 4.
#[test]
fn checked_in_contended_spec_matches_builder_fleet() {
    let spec = checked_in_spec();
    assert_eq!(spec, builder_fleet(), "spec file drifted from the builder");
    let from_file = FleetScenario::compile(&spec).expect("valid").run();
    let from_builder = FleetScenario::compile(&builder_fleet())
        .expect("valid")
        .run();
    assert_eq!(from_file, from_builder);
}

/// The golden outcome: the checked-in contended spec must replay to the
/// pinned JSON byte-for-byte. Regenerate (deliberately!) with the
/// ignored `regenerate_checked_in_files` test, or
/// `scenario_run scenarios/fleet_contended_office.json --json`.
#[test]
fn checked_in_contended_spec_matches_golden_outcome() {
    let golden = std::fs::read_to_string(repo_path(
        "crates/bench/tests/golden/fleet_contended_office_outcome.json",
    ))
    .expect("golden outcome file");
    let fresh = FleetScenario::compile(&checked_in_spec())
        .expect("valid")
        .run()
        .to_json_pretty()
        + "\n";
    assert!(
        fresh == golden,
        "contended fleet outcome diverged from the golden file ({} vs {} bytes); if \
         intentional, rerun the ignored regenerate_checked_in_files test",
        fresh.len(),
        golden.len()
    );
}

/// Contended fleet jobs through the parallel pool: `--jobs 4` output is
/// byte-identical to serial (the arbiter draws nothing from shared
/// state).
#[test]
fn contended_fleet_jobs_parallel_output_identical_to_serial() {
    let make = || -> Vec<Job> {
        [2usize, 4, 8]
            .into_iter()
            .map(|n| {
                Job::new("contended", "one contended sweep point", move || {
                    let spec = contended_office_fleet(
                        n,
                        "hint-aware",
                        HintSpec::Sensors { seed: None },
                        MediumSpec::shared(),
                        SimDuration::from_secs(30),
                    );
                    let mut r = Report::new("contended");
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
        "contended battery diverged between --jobs 1 ({} bytes) and --jobs 4 ({} bytes)",
        serial.len(),
        parallel.len()
    );
    assert!(serial.contains("\"contention\": \"shared\""));
}

/// Flipping the checked-in contended spec to `contention: isolated`
/// removes the medium coupling: the outcome has no contention fields and
/// a strictly higher aggregate goodput (four saturated senders no longer
/// share one radio).
#[test]
fn isolated_flip_removes_the_medium_coupling() {
    let mut spec = checked_in_spec();
    spec.medium = MediumSpec::isolated();
    let isolated = FleetScenario::compile(&spec).expect("valid").run();
    let shared = FleetScenario::compile(&checked_in_spec())
        .expect("valid")
        .run();
    assert!(
        shared.aggregate_goodput_mbps < isolated.aggregate_goodput_mbps * 0.5,
        "shared {} vs isolated {}",
        shared.aggregate_goodput_mbps,
        isolated.aggregate_goodput_mbps
    );
    let json = isolated.to_json_pretty();
    assert!(!json.contains("contention"), "{json}");
}

/// `contention: isolated` — set explicitly on the PR 4 office-walk spec,
/// which predates the medium field — reproduces that spec's golden
/// outcome byte-identically: the contention layer, switched off, IS the
/// pre-contention engine.
#[test]
fn explicit_isolated_reproduces_pre_contention_golden_outcome() {
    let mut spec =
        FleetSpec::load(&repo_path("scenarios/fleet_office_walk.json")).expect("spec loads");
    assert!(
        spec.medium.is_default(),
        "the pre-contention spec file must default to the isolated medium"
    );
    spec.medium = MediumSpec::isolated(); // explicit, not just defaulted
    let golden = std::fs::read_to_string(repo_path(
        "crates/bench/tests/golden/fleet_office_walk_outcome.json",
    ))
    .expect("golden outcome file");
    let fresh = FleetScenario::compile(&spec)
        .expect("valid")
        .run()
        .to_json_pretty()
        + "\n";
    assert!(
        fresh == golden,
        "explicit contention: isolated diverged from the PR 4 golden file \
         ({} vs {} bytes)",
        fresh.len(),
        golden.len()
    );
}
