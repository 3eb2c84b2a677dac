//! The checked-in experiment files and their goldens.
//!
//! Every `scenarios/*.json` spec file is an experiment's one definition:
//! the battery embeds the fleet files, `scenario_run` and `perfbench`
//! read them, and `tests/work_counts.rs` and `tests/scenario_api.rs` pin
//! each one's outcome to its golden under `crates/bench/tests/golden/`.
//! This file holds what those do not: the regeneration path for the
//! goldens, the pin between `fleet_contended_office.json` and the
//! generator `fig_contention` sweeps, the isolated-medium contract, and
//! the `--jobs` identity of the battery's larger fleet comparisons.

use hint_bench::contention::contended_office_fleet;
use hint_bench::runner::{battery_output, full_battery, Job};
use hint_rateadapt::fleet::{FleetSpec, MediumSpec};
use hint_rateadapt::scenario::{HintSpec, ScenarioSpec};
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

fn golden(name: &str) -> PathBuf {
    repo_path(&format!("crates/bench/tests/golden/{name}"))
}

/// The outcome bytes `scenario_run --json` prints for a fleet spec.
fn fleet_outcome(spec: &str) -> String {
    let spec = FleetSpec::load(&repo_path(&format!("scenarios/{spec}"))).expect("spec loads");
    FleetScenario::compile(&spec)
        .expect("valid")
        .run()
        .to_json_pretty()
        + "\n"
}

/// The outcome bytes `scenario_run --json` prints for a single-link spec.
fn single_link_outcome(spec: &str) -> String {
    ScenarioSpec::load(&repo_path(&format!("scenarios/{spec}")))
        .expect("spec loads")
        .run()
        .expect("spec is valid")
        .to_json_pretty()
        + "\n"
}

/// The generator point the checked-in contended spec pins: 4 clients
/// (one departing walker + three parked) on one AP, shared medium,
/// hint-aware handoff, sensor hints.
fn generated_fleet() -> FleetSpec {
    contended_office_fleet(
        4,
        "hint-aware",
        HintSpec::Sensors { seed: None },
        MediumSpec::shared(),
    )
}

fn checked_in_spec() -> FleetSpec {
    FleetSpec::load(&repo_path("scenarios/fleet_contended_office.json")).expect("spec loads")
}

/// Rewrites `scenarios/fleet_contended_office.json` from its generator,
/// then every non-trace golden from its spec file — deliberately, after
/// a change that re-anchors seeded draws (the trace golden is rewritten
/// by `trace_determinism.rs`):
///
/// ```text
/// cargo test -p hint-bench --test checked_in -- --ignored
/// ```
#[test]
#[ignore = "writes the contended spec and the golden outcome files"]
fn regenerate_goldens() {
    generated_fleet()
        .save(&repo_path("scenarios/fleet_contended_office.json"))
        .expect("spec written");
    std::fs::write(
        golden("fleet_office_walk_outcome.json"),
        fleet_outcome("fleet_office_walk.json"),
    )
    .expect("golden written");
    std::fs::write(
        golden("fleet_contended_office_outcome.json"),
        fleet_outcome("fleet_contended_office.json"),
    )
    .expect("golden written");
    std::fs::write(
        golden("fleet_backhaul_outcome.json"),
        fleet_outcome("fleet_backhaul_office.json"),
    )
    .expect("golden written");
    std::fs::write(
        golden("fleet_resilience_outcome.json"),
        fleet_outcome("fleet_resilience.json"),
    )
    .expect("golden written");
    std::fs::write(
        golden("fleet_metro_outcome.json"),
        fleet_outcome("fleet_metro.json"),
    )
    .expect("golden written");
    std::fs::write(
        golden("mixed_office_tcp_outcome.json"),
        single_link_outcome("mixed_office_tcp.json"),
    )
    .expect("golden written");
    std::fs::write(
        golden("vehicular_udp_outcome.json"),
        single_link_outcome("vehicular_udp.json"),
    )
    .expect("golden written");
}

/// The checked-in contended spec IS the generator point `fig_contention`
/// sweeps at n = 4.
#[test]
fn checked_in_contended_spec_matches_its_generator() {
    assert_eq!(
        checked_in_spec(),
        generated_fleet(),
        "spec file drifted from the generator; if intentional, rerun the ignored \
         regenerate_goldens test"
    );
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

/// The fleet comparisons the smoke battery leaves out — wired backhaul,
/// fault injection and the contended sweep — print byte-identical output
/// at `--jobs 4` and `--jobs 1`.
#[test]
fn fleet_comparisons_parallel_output_identical_to_serial() {
    let jobs = || -> Vec<Job> {
        full_battery()
            .into_iter()
            .filter(|j| ["fig_backhaul", "fig_resilience", "fig_contention"].contains(&j.name()))
            .collect()
    };
    let serial = battery_output(jobs(), NonZeroUsize::MIN);
    let parallel = battery_output(jobs(), NonZeroUsize::new(4).unwrap());
    assert!(
        serial == parallel,
        "fleet comparisons diverged between --jobs 1 ({} bytes) and --jobs 4 ({} bytes)",
        serial.len(),
        parallel.len()
    );
    for header in ["Backhaul:", "Fault injection:", "Contended medium:"] {
        assert!(serial.contains(header), "missing {header}");
    }
}
