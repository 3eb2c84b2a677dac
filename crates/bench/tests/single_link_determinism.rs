//! The single-link determinism contract: each checked-in single-link
//! spec replays to its pinned outcome JSON byte-for-byte. Between them
//! the two goldens pin the link simulator's open-loop TCP and UDP
//! workloads end to end (the trace-replay workload is pinned by
//! `trace_determinism.rs`).

use hint_rateadapt::scenario::ScenarioSpec;
use std::path::{Path, PathBuf};

/// `(spec under scenarios/, golden under crates/bench/tests/golden/)`.
const PINNED: [(&str, &str); 2] = [
    ("mixed_office_tcp.json", "mixed_office_tcp_outcome.json"),
    ("vehicular_udp.json", "vehicular_udp_outcome.json"),
];

fn repo_path(rel: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench; the spec files live at the
    // workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn golden_path(name: &str) -> PathBuf {
    repo_path(&format!("crates/bench/tests/golden/{name}"))
}

/// The outcome bytes `scenario_run --json` prints for `spec`.
fn fresh_outcome(spec: &str) -> String {
    ScenarioSpec::load(&repo_path(&format!("scenarios/{spec}")))
        .expect("spec loads")
        .run()
        .expect("spec is valid")
        .to_json_pretty()
        + "\n"
}

#[test]
fn checked_in_single_link_specs_match_golden_outcomes() {
    for (spec, golden) in PINNED {
        let pinned = std::fs::read_to_string(golden_path(golden)).expect("golden outcome file");
        let fresh = fresh_outcome(spec);
        assert!(
            fresh == pinned,
            "{spec} diverged from {golden} ({} vs {} bytes); if the change is \
             intentional, regenerate with \
             `cargo test -p hint-bench --test single_link_determinism -- --ignored`",
            fresh.len(),
            pinned.len()
        );
    }
}

/// Deliberate-changes-only: run with
/// `cargo test -p hint-bench --test single_link_determinism -- --ignored`
/// and review the diff before committing.
#[test]
#[ignore = "regenerates checked-in golden outcomes; run explicitly after intentional changes"]
fn regenerate_single_link_goldens() {
    std::fs::write(
        golden_path("mixed_office_tcp_outcome.json"),
        fresh_outcome("mixed_office_tcp.json"),
    )
    .expect("write golden");
    std::fs::write(
        golden_path("vehicular_udp_outcome.json"),
        fresh_outcome("vehicular_udp.json"),
    )
    .expect("write golden");
}
