//! The JSON wire format, checked without running a simulation.
//!
//! Every golden outcome and every checked-in spec file must
//! re-serialize to its own bytes after a parse. Together the goldens
//! carry every sparse outcome field (`backhaul_dropped`, the per-client
//! resilience fields, the per-AP contention and fault fields, and the
//! outcome-level `contention` marker), so a serializer that drops,
//! reorders or invents a key fails here.

use sensor_hints::rateadapt::fleet::{FleetOutcome, FleetSpec};
use sensor_hints::rateadapt::scenario::{ScenarioOutcome, ScenarioSpec};
use std::fs;
use std::path::{Path, PathBuf};

fn json_files(dir: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

/// Specs and outcomes alike: fleet documents are the ones with a
/// `clients` array.
fn is_fleet(json: &str) -> bool {
    json.contains("\"clients\"")
}

#[test]
fn every_golden_outcome_reserializes_byte_identically() {
    let goldens = json_files("crates/bench/tests/golden");
    assert!(
        goldens.len() >= 8,
        "expected the eight goldens: {goldens:?}"
    );
    let mut all = String::new();
    for path in goldens {
        let text = fs::read_to_string(&path).expect("golden reads");
        let again = if is_fleet(&text) {
            FleetOutcome::from_json(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
                .to_json_pretty()
        } else {
            serde_json::from_str::<ScenarioOutcome>(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
                .to_json_pretty()
        };
        assert!(
            again + "\n" == text,
            "{} does not re-serialize to its own bytes",
            path.display()
        );
        all.push_str(&text);
    }
    // The goldens must keep covering every sparse outcome key, or the
    // byte check above stops guarding it.
    for key in [
        "backhaul_dropped",
        "blackout_s",
        "fallback_s",
        "scan_retries",
        "contended_busy_s",
        "collision_s",
        "collisions",
        "down_s",
        "evictions",
        "contention",
    ] {
        assert!(
            all.contains(&format!("\"{key}\"")),
            "no golden exercises `{key}`"
        );
    }
}

/// A key the parser dropped, renamed or reordered would change the
/// bytes. `from_json`, not `load`, so trace paths stay as written.
#[test]
fn every_checked_in_spec_round_trips() {
    let specs = json_files("scenarios");
    assert!(specs.len() >= 8, "expected the checked-in specs: {specs:?}");
    for path in specs {
        let text = fs::read_to_string(&path).expect("spec reads");
        let name = path.display();
        let again = if is_fleet(&text) {
            FleetSpec::from_json(&text)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .to_json_pretty()
        } else {
            ScenarioSpec::from_json(&text)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .to_json_pretty()
        };
        assert!(
            again + "\n" == text,
            "{name} does not re-serialize to its own bytes"
        );
    }
}
