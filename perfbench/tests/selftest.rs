//! Benchmark self-test: one repetition of every workload prints every
//! metric BENCHMARK.json declares, with its unit, and a corrupted
//! reference is counted as a failure instead of timed.

use perfbench::{measure, prepare, workload, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    let Value::Object(fields) = v else {
        panic!("expected an object holding `{key}`, got {v:?}");
    };
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no `{key}` field"))
}

fn text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let Value::Array(metrics) = field(&Value::parse_json(&json).unwrap(), section).clone() else {
        panic!("`{section}` is not an array");
    };
    metrics
        .iter()
        .map(|m| (text(field(m, "name")), text(field(m, "unit"))))
        .collect()
}

#[test]
fn one_repetition_of_every_workload_prints_every_metric_with_its_unit() {
    for w in &WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(repo_root())
                .args(["--workload", w.name, "--seconds", "0", "--trace", trace])
                .output()
                .unwrap();
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "{} --trace {trace} failed:\n{stdout}\n{}",
                w.name,
                String::from_utf8_lossy(&out.stderr)
            );
            let result = Value::parse_json(stdout.lines().last().unwrap()).unwrap();
            assert_eq!(field(&result, "correct"), &Value::Bool(true));
            assert_eq!(field(&result, "failed"), &Value::Int(0));
            let Value::Object(metrics) = field(&result, "metrics") else {
                panic!("metrics is not an object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), text(field(m, "unit"))))
                .collect();
            assert_eq!(printed, declared(section), "{} --trace {trace}", w.name);
            // The quantiles and the failure share print, but not in the result line.
            let printed_only: &[&str] = if trace == "0" {
                &["e2e_ms.p50", "e2e_ms.p90", "failed_share"]
            } else {
                &["failed_share"]
            };
            for name in printed
                .iter()
                .map(|(n, _)| n.as_str())
                .chain(printed_only.iter().copied())
            {
                assert!(stdout.contains(&format!("  {name} ")), "no `{name}` line");
            }
        }
    }
}

#[test]
fn a_corrupted_reference_counts_as_a_failure_not_a_timing() {
    let root = repo_root();
    let mut p = prepare(&root, workload("single_link").unwrap(), 0).unwrap();
    assert!(p.failures.is_empty(), "{:?}", p.failures);
    let clean = measure(&p, 0, false);
    assert_eq!((clean.failed, clean.e2e_ms.len()), (0, 1));

    let reference = &mut p.specs[1].reference;
    let mid = reference.len() / 2;
    let flipped = if &reference[mid..=mid] == "0" {
        "1"
    } else {
        "0"
    };
    reference.replace_range(mid..=mid, flipped);
    for traced in [false, true] {
        let m = measure(&p, 0, traced);
        let reps = if traced { 2 } else { 1 };
        assert_eq!(m.attempted, p.checks + reps);
        assert_eq!(m.failed, reps, "traced: {traced}");
        assert!(m.e2e_ms.is_empty(), "a wrong outcome was timed");
    }
}
