//! ASSET001: cross-artifact coverage checks.
//!
//! The workspace's checked-in artifacts form a web of ownership that no
//! compiler sees: scenario specs are only meaningful if a test replays
//! them, golden outcomes are only maintainable if an `#[ignore]` regen
//! test can rewrite them, and battery jobs are only discoverable if
//! `EXPERIMENTS.md` documents them. Each check here
//! walks one of those edges in both directions and reports the strand
//! that broke.

use std::path::{Path, PathBuf};

use crate::{rel, rust_files_under, Diagnostic, RuleCode};

/// One test source file, pre-read: `(repo-relative path, contents)`.
type Corpus = Vec<(String, String)>;

/// Run every cross-artifact check against the workspace at `root`.
pub fn check_assets(root: &Path) -> Vec<Diagnostic> {
    let corpus = test_corpus(root);
    let mut diags = Vec::new();
    check_scenarios(root, &corpus, &mut diags);
    check_traces(root, &corpus, &mut diags);
    check_goldens(root, &corpus, &mut diags);
    check_battery_docs(root, &mut diags);
    diags
}

/// Every `.rs` file under `tests/` and `crates/*/tests/`, sorted.
fn test_corpus(root: &Path) -> Corpus {
    let mut dirs: Vec<PathBuf> = vec![root.join("tests")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crates: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for c in crates {
            dirs.push(c.join("tests"));
        }
    }
    let mut files = Vec::new();
    for d in &dirs {
        rust_files_under(d, &mut files);
    }
    files
        .iter()
        .filter_map(|p| {
            std::fs::read_to_string(p)
                .ok()
                .map(|src| (rel(root, p), src))
        })
        .collect()
}

/// Sorted `*.json` filenames directly under `dir`.
fn json_names(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    names
}

/// A1: every spec under `scenarios/` is replayed by at least one test.
fn check_scenarios(root: &Path, corpus: &Corpus, diags: &mut Vec<Diagnostic>) {
    for name in json_names(&root.join("scenarios")) {
        let referenced = corpus.iter().any(|(_, src)| src.contains(&name));
        if !referenced {
            diags.push(Diagnostic::new(
                format!("scenarios/{name}"),
                1,
                RuleCode::Asset001,
                "checked-in scenario spec is not referenced by any test: add a replay \
                 test (or delete the spec) so the spec cannot silently drift from the \
                 builder that claims to produce it"
                    .to_string(),
            ));
        }
    }
}

/// A5: every packet trace under `scenarios/traces/` is replayed by at
/// least one test.
///
/// Trace assets are recordings — there is no builder to diff them
/// against, so the only thing keeping a checked-in trace honest is a
/// test that feeds it back through the replay path (pattern:
/// trace_determinism.rs `checked_in_trace_is_the_recorded_trace`).
fn check_traces(root: &Path, corpus: &Corpus, diags: &mut Vec<Diagnostic>) {
    let Ok(entries) = std::fs::read_dir(root.join("scenarios/traces")) else {
        return;
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_file())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        let referenced = corpus.iter().any(|(_, src)| src.contains(&name));
        if !referenced {
            diags.push(Diagnostic::new(
                format!("scenarios/traces/{name}"),
                1,
                RuleCode::Asset001,
                "checked-in packet trace is not referenced by any test: add a replay \
                 test (or delete the trace) so the recording cannot silently drift from \
                 the run that claims to have produced it"
                    .to_string(),
            ));
        }
    }
}

/// A2: every golden outcome is *written* by an `#[ignore]` regen test.
///
/// "Written" is established lexically: the golden's filename appears on
/// or within three lines after a `fs::write(` call, in a
/// `crates/bench/tests` file that also contains `#[ignore`. Merely
/// reading the golden (every comparison test does) earns no ownership —
/// an unregenerable golden is a dead end the first time an intentional
/// change re-anchors the engine's seeded draws.
fn check_goldens(root: &Path, corpus: &Corpus, diags: &mut Vec<Diagnostic>) {
    for name in json_names(&root.join("crates/bench/tests/golden")) {
        let owned = corpus.iter().any(|(path, src)| {
            path.starts_with("crates/bench/tests/")
                && src.contains("#[ignore")
                && writes(src, &name)
        });
        if !owned {
            diags.push(Diagnostic::new(
                format!("crates/bench/tests/golden/{name}"),
                1,
                RuleCode::Asset001,
                "golden outcome has no `#[ignore]` regeneration test that writes it: \
                 without one, the first intentional engine change that re-anchors seeded \
                 draws leaves this file impossible to refresh — add a regen test \
                 (pattern: checked_in.rs `regenerate_goldens`)"
                    .to_string(),
            ));
        }
    }
}

/// Does `src` contain `name` on, or within three lines after, a
/// `fs::write(` call?
fn writes(src: &str, name: &str) -> bool {
    let mut last_write: Option<usize> = None;
    for (idx, line) in src.lines().enumerate() {
        if line.contains("fs::write(") {
            last_write = Some(idx);
        }
        if line.contains(name) {
            if let Some(w) = last_write {
                if idx - w <= 3 {
                    return true;
                }
            }
        }
    }
    false
}

/// The first double-quoted string literal in `s`, if any.
fn str_literal(s: &str) -> Option<String> {
    let start = s.find('"')? + 1;
    let rest = &s[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => {
                out.push(chars.next()?);
            }
            c => out.push(c),
        }
    }
    None
}

/// A3: every battery job name (`Job::new("name", …)` in the runner) is
/// documented in `EXPERIMENTS.md`, where a backticked `` `name` `` or
/// glob row (`` `ablation_*` ``) claims it.
fn check_battery_docs(root: &Path, diags: &mut Vec<Diagnostic>) {
    let runner_rel = "crates/bench/src/runner.rs";
    let Ok(runner_src) = std::fs::read_to_string(root.join(runner_rel)) else {
        return;
    };
    let Ok(docs) = std::fs::read_to_string(root.join("EXPERIMENTS.md")) else {
        return;
    };
    let tokens = backticked(&docs);

    let lines: Vec<&str> = runner_src.lines().collect();
    let mut seen: Vec<String> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        // Same convention as the scan pass: the `#[cfg(test)]` module
        // closes the file, and its throwaway jobs need no documentation.
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let Some(pos) = line.find("Job::new(") else {
            continue;
        };
        // The name is the first string literal at the call, possibly on
        // the next line (rustfmt breaks the argument list).
        let name =
            str_literal(&line[pos..]).or_else(|| lines.get(idx + 1).and_then(|l| str_literal(l)));
        let Some(name) = name else { continue };
        if seen.contains(&name) {
            continue; // smoke battery repeats full-battery names
        }
        seen.push(name.clone());
        let documented = tokens.iter().any(|t| {
            t == &name
                || t.strip_suffix('*')
                    .is_some_and(|stem| name.starts_with(stem))
        });
        if !documented {
            diags.push(Diagnostic::new(
                runner_rel,
                idx + 1,
                RuleCode::Asset001,
                format!(
                    "battery job `{name}` is not documented in EXPERIMENTS.md: add a row \
                     (the index is the battery's only discoverable catalogue — \
                     `run_all --filter` selects by these names)"
                ),
            ));
        }
    }
}

/// Every `` `token` `` in a markdown document.
fn backticked(doc: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in doc.lines() {
        let mut rest = line;
        while let Some(start) = rest.find('`') {
            let after = &rest[start + 1..];
            let Some(end) = after.find('`') else { break };
            if end > 0 {
                out.push(after[..end].to_string());
            }
            rest = &after[end + 1..];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_literal_extraction() {
        assert_eq!(
            str_literal(r#"Job::new("a/b (c)", |x| {"#).as_deref(),
            Some("a/b (c)")
        );
        assert_eq!(str_literal("no literal here"), None);
        assert_eq!(
            str_literal(r#""esc \" aped""#).as_deref(),
            Some("esc \" aped")
        );
    }

    #[test]
    fn backtick_tokens_and_globs() {
        let tokens = backticked("| `fig_2_2` | x |\n| `ablation_*` | y |\n");
        assert_eq!(tokens, vec!["fig_2_2", "ablation_*"]);
    }

    #[test]
    fn writes_matches_multiline_fs_write() {
        let src = "std::fs::write(\n    repo_path(\"golden/a.json\"),\n    out,\n)\n";
        assert!(writes(src, "a.json"));
        assert!(!writes("let x = read(\"a.json\");\n", "a.json"));
    }
}
