//! `hints-trace` CLI contract: a generated trace replays under every
//! protocol in table order, `replay` accepts a protocol name in any
//! case, and an unknown name exits 2 listing the names that work.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hints_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hints-trace"))
        .args(args)
        .output()
        .expect("hints-trace executes")
}

/// A 5 s office trace in a directory of its own, generated once per test.
fn office_trace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hints_trace_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("office.json");
    let out = hints_trace(&[
        "gen",
        "--env",
        "office",
        "--motion",
        "mixed",
        "--secs",
        "5",
        "--seed",
        "7",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    path
}

#[test]
fn compare_lists_the_six_protocols_in_table_order() {
    let trace = office_trace("compare");
    let out = hints_trace(&["compare", trace.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8");
    let names: Vec<&str> = text
        .lines()
        .skip(1)
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(
        names,
        [
            "HintAware",
            "RapidSample",
            "SampleRate",
            "RRAA",
            "RBAR",
            "CHARM"
        ],
        "{text}"
    );
}

#[test]
fn replay_resolves_a_lowercase_protocol_name() {
    let trace = office_trace("replay");
    let out = hints_trace(&[
        "replay",
        trace.to_str().unwrap(),
        "--protocol",
        "rapidsample",
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.starts_with("RapidSample: "), "{text}");
    assert!(text.trim_end().ends_with("Mbit/s"), "{text}");
}

#[test]
fn replay_of_an_unknown_protocol_exits_two_listing_the_names() {
    let trace = office_trace("bogus");
    let names = "(one of: hintaware|rapidsample|samplerate|rraa|rbar|charm)\n";
    // An unknown value is named; a missing flag is reported as missing.
    for (flags, message) in [
        (&["--protocol", "bogus"][..], "unknown protocol `bogus` "),
        (&[][..], "--protocol required "),
    ] {
        let mut args = vec!["replay", trace.to_str().unwrap()];
        args.extend_from_slice(flags);
        let out = hints_trace(&args);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err, format!("{message}{names}"));
    }
}
