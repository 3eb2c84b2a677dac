//! The lint engine against a fixture corpus: one violating and one
//! conforming source per rule with golden (exact-string) diagnostic
//! assertions, allow-directive handling end to end, the cross-artifact
//! checks against checked-in mini-trees, and the self-check that the
//! real workspace is detlint-clean.

use std::path::{Path, PathBuf};

use hint_lint::scan::scan_source;
use hint_lint::{lint_workspace, render_json, Config};

/// Scan one source under the workspace policy; return rendered lines.
fn renders(path: &str, src: &str) -> Vec<String> {
    let mut diags = scan_source(path, src, &Config::workspace());
    hint_lint::sort_diagnostics(&mut diags);
    diags.iter().map(|d| d.render()).collect()
}

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

// ---------------------------------------------------------------- DET001

const DET001_VIOLATING: &str = "\
//! Fixture.
pub struct Roster {
    members: HashMap<u32, f64>,
}
pub fn total(r: &Roster) -> f64 {
    r.members.values().sum()
}
";

#[test]
fn det001_golden_diagnostics() {
    assert_eq!(
        renders("crates/core/src/fixture.rs", DET001_VIOLATING),
        vec![
            "crates/core/src/fixture.rs:3: DET001 unordered collection `HashMap` bound in \
             deterministic engine code: hash iteration order can leak into outcomes — use an \
             ordered (BTree) collection, or justify with `// detlint::allow(DET001): <reason>`",
            "crates/core/src/fixture.rs:6: DET001 iteration over unordered collection \
             `members`: hash order is not deterministic — collect and sort the keys first, or \
             justify with `// detlint::allow(DET001): <reason>`",
        ]
    );
}

#[test]
fn det001_conforming_btree_is_clean() {
    let src = DET001_VIOLATING.replace("HashMap", "BTreeMap");
    assert!(renders("crates/core/src/fixture.rs", &src).is_empty());
}

#[test]
fn det001_allowed_binding_still_guards_iteration() {
    let src = "\
//! Fixture.
pub struct Index {
    // detlint::allow(DET001): point lookups only, never iterated
    cells: HashMap<u64, u32>,
}
pub fn dump(ix: &Index) {
    for (k, v) in ix.cells.iter() {}
}
";
    let lines = renders("crates/topology/src/fixture.rs", src);
    assert_eq!(
        lines.len(),
        1,
        "the allow covers the binding, not later iteration"
    );
    assert!(lines[0].starts_with("crates/topology/src/fixture.rs:7: DET001 iteration"));
}

// ---------------------------------------------------------------- DET002

#[test]
fn det002_golden_diagnostic_and_allowlist() {
    let src = "pub fn now() { let _t = Instant::now(); }\n";
    assert_eq!(
        renders("crates/channel/src/fixture.rs", src),
        vec![
            "crates/channel/src/fixture.rs:1: DET002 wall-clock read (`Instant::now`) in \
             deterministic code: real time must never influence a simulation — only the bench \
             runner's stderr-side timing is exempt",
        ]
    );
    // The bench runner's timing is the one sanctioned wall-clock site.
    assert!(renders("crates/bench/src/runner.rs", src).is_empty());
}

// ---------------------------------------------------------------- DET003

#[test]
fn det003_golden_diagnostics() {
    let src = "\
use rand::Rng;
pub fn draw() -> u64 {
    let mut s = RngStream::new(42);
    thread_rng().gen()
}
";
    let lines = renders("crates/sim/src/fixture.rs", src);
    assert_eq!(
        lines,
        vec![
            "crates/sim/src/fixture.rs:1: DET003 direct `rand` use outside `sim::rng`: engine \
             code draws from `RngStream`, whose derivation tree pins every stream to the spec \
             seed",
            "crates/sim/src/fixture.rs:3: DET003 raw literal seed in `RngStream::new(...)`: \
             engine streams derive from the spec seed \
             (`RngStream::new(spec.seed).derive(...)`) so experiments stay replayable from \
             their spec alone",
            "crates/sim/src/fixture.rs:4: DET003 `thread_rng` bypasses the fleet-seed \
             derivation tree: derive every stream from the spec seed via `RngStream::derive`",
        ]
    );
}

#[test]
fn det003_conforming_derived_seed_is_clean() {
    let src = "pub fn draw(spec: &Spec) { let s = RngStream::new(spec.seed).derive(\"x\"); }\n";
    assert!(renders("crates/sim/src/fixture.rs", src).is_empty());
    // sim::rng itself implements the derivation tree over `rand`.
    assert!(renders("crates/sim/src/rng.rs", "use rand::RngCore;\n").is_empty());
}

// -------------------------------------------------------------- PANIC001

#[test]
fn panic001_golden_diagnostic_and_scope() {
    let src = "pub fn f(spec: &Spec) { let _v = spec.policy().unwrap(); }\n";
    assert_eq!(
        renders("crates/rateadapt/src/fixture.rs", src),
        vec![
            "crates/rateadapt/src/fixture.rs:1: PANIC001 unwrap()/expect() in a \
             spec-reachable module: a malformed spec must surface as an error, not a panic — \
             return a ScenarioError, or state the invariant with `// \
             detlint::allow(PANIC001): <reason>`",
        ]
    );
    // Out of the spec-reachable scope: internal invariants may panic.
    assert!(renders("crates/mac/src/fixture.rs", src).is_empty());
}

#[test]
fn panic001_allow_with_reason_suppresses() {
    let src = "\
pub fn f(spec: &Spec) {
    // detlint::allow(PANIC001): validate succeeded two lines up
    let _v = spec.policy().expect(\"validated\");
}
";
    assert!(renders("crates/rateadapt/src/fixture.rs", src).is_empty());
}

// -------------------------------------------------------------- ALLOW001

#[test]
fn reasonless_allow_is_flagged_and_does_not_suppress() {
    let src = "pub fn f(s: &S) { let _ = s.x.unwrap(); } // detlint::allow(PANIC001)\n";
    let lines = renders("crates/rateadapt/src/fixture.rs", src);
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("PANIC001 unwrap()/expect()"));
    assert!(lines[1].contains("ALLOW001 allow directive for PANIC001 has no reason"));
}

#[test]
fn unknown_rule_allow_is_flagged() {
    let src = "pub fn f() {} // detlint::allow(DET999): sounds official\n";
    let lines = renders("crates/core/src/fixture.rs", src);
    assert_eq!(
        lines,
        vec![
            "crates/core/src/fixture.rs:1: ALLOW001 allow directive names unknown rule \
             `DET999` (known: DET001, DET002, DET003, PANIC001, ASSET001)",
        ]
    );
}

// -------------------------------------------------------------- ASSET001

#[test]
fn asset_violating_tree_golden_diagnostics() {
    let diags = lint_workspace(&fixture_root("asset_violating"), &Config::workspace());
    let lines: Vec<String> = diags.iter().map(|d| d.render()).collect();
    assert_eq!(
        lines,
        vec![
            "crates/bench/src/runner.rs:6: ASSET001 battery job `undocumented_job` is not \
             documented in EXPERIMENTS.md: add a row (the index is the battery's only \
             discoverable catalogue — `run_all --filter` selects by these names)",
            "crates/bench/tests/golden/ownerless_outcome.json:1: ASSET001 golden outcome \
             has no `#[ignore]` regeneration test that writes it: without one, the first \
             intentional engine change that re-anchors seeded draws leaves this file \
             impossible to refresh — add a regen test (pattern: checked_in.rs \
             `regenerate_goldens`)",
            "scenarios/orphan_spec.json:1: ASSET001 checked-in scenario spec is not \
             referenced by any test: add a replay test (or delete the spec) so the spec \
             cannot silently drift from the builder that claims to produce it",
            "scenarios/traces/orphan_trace.txt:1: ASSET001 checked-in packet trace is not \
             referenced by any test: add a replay test (or delete the trace) so the \
             recording cannot silently drift from the run that claims to have produced it",
        ]
    );
}

#[test]
fn asset_clean_tree_is_clean() {
    let diags = lint_workspace(&fixture_root("asset_clean"), &Config::workspace());
    assert!(
        diags.is_empty(),
        "clean fixture tree produced diagnostics:\n{}",
        diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ------------------------------------------------------ self-application

/// The shipped workspace must be detlint-clean: every surviving
/// `HashMap`, `unwrap`, and wall-clock read carries a reasoned allow.
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = lint_workspace(&root, &Config::workspace());
    assert!(
        diags.is_empty(),
        "the workspace is not detlint-clean:\n{}",
        diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Linting is a pure function of the tree: two runs render (and
/// JSON-serialize) byte-identically — the linter meets the contract it
/// enforces.
#[test]
fn lint_output_is_run_twice_identical() {
    let root = fixture_root("asset_violating");
    let a = lint_workspace(&root, &Config::workspace());
    let b = lint_workspace(&root, &Config::workspace());
    assert_eq!(a, b);
    assert_eq!(render_json(&a), render_json(&b));
}
