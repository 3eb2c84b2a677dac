//! `detlint`: the workspace determinism & invariant linter.
//!
//! The repo's load-bearing property — same spec + seed ⇒ byte-identical
//! outcomes at any `--jobs` — has been re-proven by hand in every PR
//! since the parallel runner: golden replays, jobs-1-vs-N `cmp` tests.
//! Nothing in that harness stops the *next* change from iterating a
//! `HashMap` in a merge path or grabbing `Instant::now()` in an engine
//! crate; the goldens only catch the bug after it ships. This crate
//! enforces the contract *statically*, before the churn:
//!
//! | rule | protects against |
//! |------|------------------|
//! | [`RuleCode::Det001`] | unordered-collection (`HashMap`/`HashSet`) bindings and iteration in engine crates |
//! | [`RuleCode::Det002`] | wall-clock reads (`Instant::now`, `SystemTime`) outside the bench-runner allowlist |
//! | [`RuleCode::Det003`] | RNG that bypasses the fleet-seed derivation tree (raw literal seeds, direct `rand` outside `sim::rng`) |
//! | [`RuleCode::Panic001`] | `unwrap()`/`expect()` in spec-reachable modules without a written justification |
//! | [`RuleCode::Asset001`] | cross-artifact drift: orphaned scenario specs and traces, ownerless goldens, undocumented battery jobs |
//! | [`RuleCode::Allow001`] | malformed or reason-less allow directives |
//!
//! The pass is token/line-level by design — the offline shim set has no
//! `syn`, and the rules it enforces are lexical enough that a real parse
//! buys little. Two conventions make that sound, and both already hold
//! workspace-wide: `#[cfg(test)]` modules sit at the end of their file
//! (scanning stops there — tests may use literal seeds and `unwrap`
//! freely), and doc-comment lines (`///`, `//!`) are never treated as
//! code.
//!
//! # The escape hatch
//!
//! A diagnostic is suppressed by an inline directive that **must carry a
//! reason**:
//!
//! ```text
//! // detlint::allow(DET001): never iterated — point lookups only
//! cells: HashMap<(i64, i64), Vec<usize>>,
//! ```
//!
//! The directive binds to its own line, or — when the comment stands
//! alone — to the next code line (intervening comment lines extend the
//! reach, so multi-line justifications work). A reason-less or
//! unknown-code directive is itself a diagnostic ([`RuleCode::Allow001`]).
//!
//! # Output
//!
//! Diagnostics render rustc-style, `file:line: DETxxx message`, sorted
//! by (file, line, code) so two runs over the same tree are
//! byte-identical — the linter holds itself to the contract it enforces
//! (CI pins this with a run-twice `cmp`). `--json` emits the same list
//! as a machine-readable array.

pub mod assets;
pub mod config;
pub mod scan;

pub use config::Config;

use std::fmt;
use std::path::{Path, PathBuf};

/// The rule a diagnostic was emitted under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleCode {
    /// Unordered-collection binding or iteration in an engine crate.
    Det001,
    /// Wall-clock read outside the bench-runner allowlist.
    Det002,
    /// RNG construction outside the fleet-seed derivation tree.
    Det003,
    /// `unwrap()`/`expect()` in a spec-reachable module.
    Panic001,
    /// Cross-artifact coverage drift (specs, traces, goldens, jobs).
    Asset001,
    /// Malformed `detlint::allow` directive.
    Allow001,
}

impl RuleCode {
    /// Every rule, in diagnostic-code order.
    pub const ALL: [RuleCode; 6] = [
        RuleCode::Det001,
        RuleCode::Det002,
        RuleCode::Det003,
        RuleCode::Panic001,
        RuleCode::Asset001,
        RuleCode::Allow001,
    ];

    /// The diagnostic code as printed (`DET001`, `PANIC001`, …).
    pub const fn as_str(self) -> &'static str {
        match self {
            RuleCode::Det001 => "DET001",
            RuleCode::Det002 => "DET002",
            RuleCode::Det003 => "DET003",
            RuleCode::Panic001 => "PANIC001",
            RuleCode::Asset001 => "ASSET001",
            RuleCode::Allow001 => "ALLOW001",
        }
    }

    /// Parse a printed code back into a rule (used by allow directives).
    /// `ALLOW001` is not allowable and parses as `None`.
    pub fn from_allow_name(name: &str) -> Option<RuleCode> {
        match name {
            "DET001" => Some(RuleCode::Det001),
            "DET002" => Some(RuleCode::Det002),
            "DET003" => Some(RuleCode::Det003),
            "PANIC001" => Some(RuleCode::Panic001),
            "ASSET001" => Some(RuleCode::Asset001),
            _ => None,
        }
    }
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One linter finding, anchored to a repo-relative file and 1-based line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line number (1 for whole-file/asset findings).
    pub line: usize,
    /// The rule that fired.
    pub code: RuleCode,
    /// Human-readable description, including the fix or escape hatch.
    pub message: String,
}

impl Diagnostic {
    /// Construct a diagnostic.
    pub fn new(
        file: impl Into<String>,
        line: usize,
        code: RuleCode,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            file: file.into(),
            line,
            code,
            message,
        }
    }

    /// Rustc-style rendering: `file:line: CODE message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} {}",
            self.file, self.line, self.code, self.message
        )
    }
}

/// Render diagnostics as a JSON array (machine-readable `--json` mode).
/// Hand-serialized — the linter depends on nothing — with full string
/// escaping, one object per line, key order fixed, so the output is a
/// deterministic function of the diagnostics alone.
pub fn render_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"code\": \"{}\", \"message\": \"{}\"}}",
            esc(&d.file),
            d.line,
            d.code,
            esc(&d.message)
        ));
    }
    out.push_str(if diags.is_empty() { "]\n" } else { "\n]\n" });
    out
}

/// Sort diagnostics into the canonical (file, line, code, message)
/// order every output mode uses.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.code, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.code,
            b.message.as_str(),
        ))
    });
}

/// Recursively collect `.rs` files under `dir` (sorted traversal, so the
/// scan order — and hence the diagnostic order before sorting — is a
/// pure function of the tree).
fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Repo-relative, forward-slash rendering of `path` under `root`.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint the workspace rooted at `root` under `cfg`: every `.rs` file in
/// the configured source trees goes through [`scan::scan_source`], then
/// the cross-artifact checks of [`assets::check_assets`] run, and the
/// combined list comes back in canonical order.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Vec<Diagnostic> {
    let mut files: Vec<PathBuf> = Vec::new();
    // Member-crate source trees plus the workspace-root package's.
    let mut roots: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            roots.push(d.join("src"));
        }
    }
    roots.push(root.join("src"));
    for r in &roots {
        rust_files_under(r, &mut files);
    }

    let mut diags: Vec<Diagnostic> = Vec::new();
    for path in &files {
        let rel_path = rel(root, path);
        if cfg.is_skipped(&rel_path) {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(path) else {
            continue;
        };
        diags.extend(scan::scan_source(&rel_path, &source, cfg));
    }
    if cfg.check_assets {
        diags.extend(assets::check_assets(root));
    }
    sort_diagnostics(&mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_and_roundtrip() {
        for code in RuleCode::ALL {
            if code == RuleCode::Allow001 {
                assert_eq!(RuleCode::from_allow_name(code.as_str()), None);
            } else {
                assert_eq!(RuleCode::from_allow_name(code.as_str()), Some(code));
            }
        }
    }

    #[test]
    fn render_is_rustc_style() {
        let d = Diagnostic::new("crates/x/src/a.rs", 7, RuleCode::Det002, "msg".into());
        assert_eq!(d.render(), "crates/x/src/a.rs:7: DET002 msg");
    }

    #[test]
    fn json_escapes_and_is_stable() {
        let diags = vec![Diagnostic::new(
            "a.rs",
            1,
            RuleCode::Det001,
            "quote \" backslash \\".into(),
        )];
        let json = render_json(&diags);
        assert!(json.contains("\\\""));
        assert!(json.contains("\\\\"));
        assert_eq!(json, render_json(&diags));
        assert_eq!(render_json(&[]), "[]\n");
    }

    #[test]
    fn sorting_is_total_and_stable() {
        let mut diags = vec![
            Diagnostic::new("b.rs", 1, RuleCode::Det001, "x".into()),
            Diagnostic::new("a.rs", 9, RuleCode::Panic001, "y".into()),
            Diagnostic::new("a.rs", 9, RuleCode::Det002, "z".into()),
        ];
        sort_diagnostics(&mut diags);
        assert_eq!(diags[0].file, "a.rs");
        assert_eq!(diags[0].code, RuleCode::Det002);
        assert_eq!(diags[2].file, "b.rs");
    }
}
