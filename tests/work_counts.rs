//! The fleet engine's exact work, pinned per checked-in fleet spec.
//!
//! Each `scenarios/fleet_*.json` runs at 1, 2 and 4 workers. Its outcome
//! must equal its golden byte for byte, as `scenario_run --json` prints
//! it, and its [`FleetWork`] must equal the table below. The counts are
//! exact: noise-free and the same at any worker count. So a change that
//! does more work for the same outcome (a hint stream synthesized twice,
//! a scan that tests every AP instead of querying the spatial index, a
//! cell arbitrated twice) fails here while every golden still matches. A
//! change that alters the work on purpose updates the table with it; a
//! mismatch prints the actual counts.

use sensor_hints::fleet::{FleetScenario, FleetWork};
use sensor_hints::rateadapt::fleet::FleetSpec;
use std::num::NonZeroUsize;
use std::path::Path;

fn check(spec_file: &str, golden_file: &str, want: FleetWork) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = FleetSpec::load(&root.join("scenarios").join(spec_file)).expect("spec loads");
    let golden = std::fs::read_to_string(root.join("crates/bench/tests/golden").join(golden_file))
        .expect("golden reads");
    let fleet = FleetScenario::compile(&spec).expect("checked-in spec compiles");
    for workers in [1, 2, 4] {
        let (outcome, work) = fleet.run_counted(NonZeroUsize::new(workers).expect("non-zero"));
        // Compared as one boolean: a diff of a 160 KB outcome helps no one.
        assert!(
            format!("{}\n", outcome.to_json_pretty()) == golden,
            "{spec_file} at {workers} workers diverged from {golden_file}"
        );
        assert_eq!(
            work, want,
            "{spec_file} at {workers} workers (left: actual)"
        );
    }
}

#[test]
fn office_walk_work_is_pinned() {
    check(
        "fleet_office_walk.json",
        "fleet_office_walk_outcome.json",
        FleetWork {
            hint_reports: 180_000,
            events: 360,
            scans: 360,
            scan_aps: 421,
            cells: 0,
            accesses: 0,
            draws: 0,
            spans: 6,
            trace_slots: 71_940,
        },
    );
}

#[test]
fn contended_office_work_is_pinned() {
    check(
        "fleet_contended_office.json",
        "fleet_contended_office_outcome.json",
        FleetWork {
            hint_reports: 60_000,
            events: 120,
            scans: 120,
            scan_aps: 112,
            cells: 30,
            accesses: 91_333,
            draws: 337_981,
            spans: 4,
            trace_slots: 22_360,
        },
    );
}

#[test]
fn metro_work_is_pinned() {
    check(
        "fleet_metro.json",
        "fleet_metro_outcome.json",
        FleetWork {
            hint_reports: 112_000,
            events: 896,
            scans: 896,
            scan_aps: 1_007,
            cells: 32,
            accesses: 108_653,
            draws: 756_675,
            spans: 235,
            trace_slots: 43_860,
        },
    );
}

#[test]
fn backhaul_work_is_pinned() {
    check(
        "fleet_backhaul_office.json",
        "fleet_backhaul_outcome.json",
        FleetWork {
            hint_reports: 180_000,
            events: 360,
            scans: 360,
            scan_aps: 421,
            cells: 0,
            accesses: 0,
            draws: 0,
            spans: 6,
            trace_slots: 71_940,
        },
    );
}

#[test]
fn resilience_work_is_pinned() {
    check(
        "fleet_resilience.json",
        "fleet_resilience_outcome.json",
        FleetWork {
            hint_reports: 840_000,
            events: 3_029,
            scans: 2_999,
            scan_aps: 3_307,
            cells: 219,
            accesses: 721_058,
            draws: 4_769_072,
            spans: 99,
            trace_slots: 288_604,
        },
    );
}
