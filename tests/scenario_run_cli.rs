//! `scenario_run` CLI contract: valid specs (single-link and fleet) exit
//! 0; malformed or invalid specs exit 2 with an actionable message on
//! stderr; missing files are environment failures (exit 1).

use sensor_hints::rateadapt::fleet::{FleetOutcome, FleetSpec};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn scenario_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario_run"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("scenario_run executes")
}

fn golden(name: &str) -> Vec<u8> {
    std::fs::read(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("crates/bench/tests/golden")
            .join(name),
    )
    .expect("golden reads")
}

fn checked_in_fleet() -> FleetSpec {
    FleetSpec::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/fleet_office_walk.json"))
        .expect("checked-in fleet spec loads")
}

fn save_temp(name: &str, spec: &FleetSpec) -> PathBuf {
    let path = std::env::temp_dir().join(format!("scenario_run_cli_{name}"));
    spec.save(&path).expect("temp spec written");
    path
}

/// A checked-in spec file's text with the first `from` replaced by `to`.
fn edited_spec(file: &str, from: &str, to: &str) -> String {
    let text = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(file))
        .expect("checked-in spec reads");
    assert!(text.contains(from), "{file} has no `{from}`");
    text.replacen(from, to, 1)
}

/// Write `text` as a temp spec file and check it with `--validate` and
/// then run it: both must exit 2. Returns the run's stderr.
fn exits_two(name: &str, text: &str) -> String {
    let path = std::env::temp_dir().join(format!("scenario_run_cli_{name}"));
    std::fs::write(&path, text).expect("temp spec written");
    let mut err = String::new();
    for extra in [&["--validate"][..], &[][..]] {
        let mut args = vec![path.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = scenario_run(&args);
        assert_eq!(out.status.code(), Some(2), "{name} {extra:?}: {out:?}");
        err = String::from_utf8_lossy(&out.stderr).into_owned();
    }
    err
}

#[test]
fn checked_in_specs_run_cleanly() {
    for spec in [
        "scenarios/mixed_office_tcp.json",
        "scenarios/vehicular_udp.json",
        "scenarios/fleet_office_walk.json",
    ] {
        let out = scenario_run(&[spec]);
        assert!(out.status.success(), "{spec}: {out:?}");
    }
    // --json emits a parseable fleet outcome.
    let out = scenario_run(&["scenarios/fleet_office_walk.json", "--json"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    let outcome = FleetOutcome::from_json(&text).expect("fleet outcome parses");
    assert_eq!(outcome.policy, "hint-aware");
    assert!(outcome.total_handoffs >= 2);
}

#[test]
fn malformed_fleet_specs_exit_two_with_actionable_stderr() {
    let mut zero_clients = checked_in_fleet();
    zero_clients.clients.clear();
    let path = save_temp("zero_clients.json", &zero_clients);
    let out = scenario_run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("at least one client"), "{err}");

    let mut bad_policy = checked_in_fleet();
    bad_policy.handoff.policy = "teleport".into();
    let path = save_temp("bad_policy.json", &bad_policy);
    let out = scenario_run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown handoff policy `teleport`"), "{err}");
    assert!(err.contains("strongest-signal"), "must list names: {err}");

    let mut oob_ap = checked_in_fleet();
    oob_ap.aps[1].x_m = 960.0;
    let path = save_temp("oob_ap.json", &oob_ap);
    let out = scenario_run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("outside the environment bounds"), "{err}");

    // A misspelled top-level key is rejected by name, not ignored.
    let typo = edited_spec(
        "scenarios/fleet_office_walk.json",
        "\"payload_bytes\"",
        "\"payload_byte\"",
    );
    let err = exits_two("typo_key.json", &typo);
    assert!(
        err.contains("unknown field `payload_byte` in FleetSpec"),
        "{err}"
    );

    // `hint-etx` is an unknown policy, and the message lists the known
    // names.
    let etx = edited_spec(
        "scenarios/fleet_office_walk.json",
        "\"policy\": \"hint-aware\"",
        "\"policy\": \"hint-etx\"",
    );
    let err = exits_two("hint_etx.json", &etx);
    assert!(err.contains("unknown handoff policy `hint-etx`"), "{err}");
    assert!(err.contains("strongest-signal, hint-aware"), "{err}");

    // Unparseable JSON with a clients field still routes to the fleet
    // parser and exits 2.
    let garbage = std::env::temp_dir().join("scenario_run_cli_garbage.json");
    std::fs::write(&garbage, "{\"clients\": [not json").expect("temp file");
    let out = scenario_run(&[garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn malformed_medium_specs_exit_two_with_actionable_stderr() {
    use sensor_hints::rateadapt::fleet::MediumSpec;

    // Unknown contention mode: message lists the valid names.
    let mut bad_mode = checked_in_fleet();
    bad_mode.medium = MediumSpec {
        contention: "telepathic".into(),
    };
    let path = save_temp("bad_mode.json", &bad_mode);
    let out = scenario_run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("telepathic"), "{err}");
    assert!(err.contains("isolated"), "must list modes: {err}");
    assert!(err.contains("shared"), "must list modes: {err}");

    // The DCF parameters are 802.11a's, not spec fields: a medium that
    // sets one (or misspells a key) is rejected naming the key.
    for key in ["cw_min", "cw_mni"] {
        let text = edited_spec(
            "scenarios/fleet_contended_office.json",
            "\"contention\": \"shared\"",
            &format!("\"contention\": \"shared\",\n    \"{key}\": 31"),
        );
        let err = exits_two(&format!("medium_{key}.json"), &text);
        assert!(
            err.contains(&format!("unknown field `{key}` in MediumSpec")),
            "{err}"
        );
        assert!(err.contains("expected `contention`"), "{err}");
    }
}

#[test]
fn contended_spec_runs_cleanly_and_reports_contention() {
    let out = scenario_run(&["scenarios/fleet_contended_office.json"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("contention"), "{stdout}");
    // The shared-medium outcome is the golden, byte for byte, at one
    // worker and sharded: this pins the CSMA/CA arbiter's output.
    let golden = golden("fleet_contended_office_outcome.json");
    for jobs in ["1", "4"] {
        let out = scenario_run(&[
            "scenarios/fleet_contended_office.json",
            "--json",
            "--jobs",
            jobs,
        ]);
        assert!(out.status.success(), "{out:?}");
        assert!(
            out.stdout == golden,
            "--jobs {jobs} ({} bytes) diverged from the golden ({} bytes)",
            out.stdout.len(),
            golden.len()
        );
    }
    let outcome =
        FleetOutcome::from_json(&String::from_utf8_lossy(&golden)).expect("fleet outcome parses");
    assert_eq!(outcome.contention, "shared");
    assert!(outcome.aps[0].contended_busy_s > 0.0);
}

#[test]
fn sharded_fleet_json_is_byte_identical_and_metro_runs() {
    // The --jobs byte-identity contract through the CLI: the checked-in
    // metro spec prints the same JSON at any worker count.
    let j1 = scenario_run(&["scenarios/fleet_metro.json", "--json", "--jobs", "1"]);
    assert!(j1.status.success(), "{j1:?}");
    let j4 = scenario_run(&["scenarios/fleet_metro.json", "--json", "--jobs", "4"]);
    assert!(j4.status.success(), "{j4:?}");
    assert!(
        j1.stdout == j4.stdout,
        "--jobs 1 ({} bytes) and --jobs 4 ({} bytes) diverged",
        j1.stdout.len(),
        j4.stdout.len()
    );
    // Metro's windows open and close mid-epoch, so its golden pins the
    // arbiter's window edges, which the contended office never crosses.
    assert!(
        j1.stdout == golden("fleet_metro_outcome.json"),
        "metro diverged from its golden"
    );
    let outcome =
        FleetOutcome::from_json(&String::from_utf8_lossy(&j1.stdout)).expect("outcome parses");
    assert_eq!(outcome.clients.len(), 224);
    assert_eq!(outcome.aps.len(), 32);
    // The human-readable summary works too.
    let human = scenario_run(&["scenarios/fleet_metro.json", "--jobs", "2"]);
    assert!(human.status.success(), "{human:?}");
    let stdout = String::from_utf8_lossy(&human.stdout);
    assert!(stdout.contains("224 clients x 32 APs"), "{stdout}");
}

#[test]
fn bad_jobs_values_exit_two() {
    for args in [
        &["scenarios/fleet_metro.json", "--jobs", "0"][..],
        &["scenarios/fleet_metro.json", "--jobs", "many"][..],
        &["scenarios/fleet_metro.json", "--jobs"][..],
    ] {
        let out = scenario_run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--jobs"), "{err}");
    }
}

#[test]
fn missing_file_is_an_environment_failure() {
    let out = scenario_run(&["/nonexistent/fleet.json"]);
    assert_eq!(out.status.code(), Some(1));
    // --validate keeps the same exit-code split: a missing file is an
    // environment failure, not a spec error.
    let out = scenario_run(&["/nonexistent/fleet.json", "--validate"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn validate_flag_checks_specs_without_simulating() {
    // Valid specs of both families: exit 0 and a confirmation, no
    // simulation output.
    let out = scenario_run(&["scenarios/mixed_office_tcp.json", "--validate"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("valid single-link spec"), "{stdout}");
    assert!(!stdout.contains("goodput"), "must not simulate: {stdout}");

    let out = scenario_run(&["scenarios/fleet_office_walk.json", "--validate"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("valid fleet spec"), "{stdout}");
    assert!(!stdout.contains("handoffs"), "must not simulate: {stdout}");

    // Invalid specs of both families: exit 2 with the validator's
    // actionable message on stderr.
    let mut bad_fleet = checked_in_fleet();
    bad_fleet.handoff.policy = "teleport".into();
    let path = save_temp("validate_bad_policy.json", &bad_fleet);
    let out = scenario_run(&[path.to_str().unwrap(), "--validate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown handoff policy"), "{err}");

    let garbage = std::env::temp_dir().join("scenario_run_cli_validate_garbage.json");
    std::fs::write(&garbage, "{\"motion\": [").expect("temp file");
    let out = scenario_run(&[garbage.to_str().unwrap(), "--validate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // --help documents the exit codes.
    let help = scenario_run(&["--help"]);
    assert!(help.status.success());
    let text = String::from_utf8_lossy(&help.stdout);
    assert!(text.contains("--validate"), "{text}");
    assert!(text.contains("exit codes"), "{text}");
}

#[test]
fn bad_fault_schedules_exit_two_with_actionable_stderr() {
    use sensor_hints::rateadapt::fleet::ApOutage;
    use sensor_hints::sim::SimDuration;

    // An outage naming an AP the fleet does not have: exit 2 both when
    // running and when validating.
    let mut oob = checked_in_fleet();
    oob.faults.ap_outages.push(ApOutage {
        ap: 99,
        start: SimDuration::from_secs(1),
        duration: SimDuration::from_secs(2),
    });
    let path = save_temp("fault_oob_ap.json", &oob);
    for extra in [&[][..], &["--validate"][..]] {
        let mut args = vec![path.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = scenario_run(&args);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("ap_outages[0]"), "{err}");
        assert!(err.contains("99"), "{err}");
    }

    // A zero-duration window names the offending entry too.
    let mut zero = checked_in_fleet();
    zero.faults.ap_outages.push(ApOutage {
        ap: 0,
        start: SimDuration::from_secs(1),
        duration: SimDuration::ZERO,
    });
    let path = save_temp("fault_zero_window.json", &zero);
    let out = scenario_run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("zero duration"), "{err}");

    // `random_outages` is not a fault field: a spec naming it is
    // rejected by key rather than run without it.
    let storm = edited_spec(
        "scenarios/fleet_resilience.json",
        "\"faults\": {",
        "\"faults\": {\n    \"random_outages\": {\"count\": 3, \"min_duration\": 1000000, \
         \"max_duration\": 2000000},",
    );
    let err = exits_two("random_outages.json", &storm);
    assert!(
        err.contains("unknown field `random_outages` in FaultSpec"),
        "{err}"
    );
}

#[test]
fn single_link_spec_with_clients_in_a_string_value_is_not_misrouted() {
    // A custom environment whose *name* is "clients": dispatch must key
    // off the parsed schema, not a substring of the file.
    use sensor_hints::channel::Environment;
    use sensor_hints::rateadapt::scenario::{EnvironmentSpec, ScenarioBuilder};
    use sensor_hints::sim::SimDuration;
    let mut env = Environment::office();
    env.name = "clients".to_string();
    let spec = ScenarioBuilder::new()
        .environment(EnvironmentSpec::Custom(env))
        .duration(SimDuration::from_secs(2))
        .seed(1)
        .into_spec();
    let path = std::env::temp_dir().join("scenario_run_cli_clients_env.json");
    spec.save(&path).expect("temp spec written");
    let out = scenario_run(&[path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("environment : clients"), "{stdout}");
}

#[test]
fn record_with_validate_is_a_flag_conflict() {
    // --validate never simulates, so --record has no trace to write;
    // the old behaviour silently dropped --record. Now: exit 2,
    // actionable message, and no file left behind.
    let out_path = std::env::temp_dir().join("scenario_run_cli_conflict.trace");
    let _ = std::fs::remove_file(&out_path);
    let out = scenario_run(&[
        "scenarios/mixed_office_tcp.json",
        "--validate",
        "--record",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mutually exclusive"), "{err}");
    assert!(err.contains("drop one of the two flags"), "{err}");
    assert!(!out_path.exists(), "conflicting flags must not write files");
}

#[test]
fn uncreatable_record_path_exits_two_before_the_run() {
    // A path whose parent directory does not exist cannot be created no
    // matter the privileges; the pre-flight check turns it into a user
    // error (exit 2) instead of a post-simulation environment failure.
    let bad = "/nonexistent-scenario-run-dir/out.trace";
    let out = scenario_run(&["scenarios/mixed_office_tcp.json", "--record", bad]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot create --record path"), "{err}");
    assert!(err.contains("directory exists and is writable"), "{err}");
}

/// A reader that goes away (`scenario_run ... --json | head -1`) ends
/// the run with the environment-failure exit code, not a panic. The
/// 160 KB metro outcome cannot fit in a pipe buffer, so the write fails
/// whichever side wins the race to the pipe.
#[test]
fn closed_stdout_exits_one_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scenario_run"))
        .args(["scenarios/fleet_metro.json", "--json"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("scenario_run starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("scenario_run exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
}

#[test]
fn payloads_above_the_msdu_limit_exit_two() {
    use sensor_hints::rateadapt::scenario::ScenarioSpec;
    use sensor_hints::rateadapt::Workload;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let stderr_of = |path: &Path| {
        let out = scenario_run(&[path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{}: {out:?}", path.display());
        String::from_utf8_lossy(&out.stderr).into_owned()
    };

    // A fleet payload of 2^29 bytes overflowed the u32 bit count and
    // reported terabits per second.
    let mut fleet = FleetSpec::load(&root.join("scenarios/fleet_contended_office.json"))
        .expect("checked-in fleet spec loads");
    fleet.payload_bytes = 1 << 29;
    let err = stderr_of(&save_temp("huge_payload_fleet.json", &fleet));
    assert!(
        err.contains("payload_bytes") && err.contains("2304"),
        "{err}"
    );

    // One byte over the limit is rejected on a single-link spec too.
    let mut single = ScenarioSpec::load(&root.join("scenarios/mixed_office_tcp.json"))
        .expect("checked-in single-link spec loads");
    single.payload_bytes = 2305;
    let path = std::env::temp_dir().join("scenario_run_cli_huge_payload_single.json");
    single.save(&path).expect("temp spec written");
    let err = stderr_of(&path);
    assert!(
        err.contains("payload_bytes") && err.contains("2305"),
        "{err}"
    );

    // A trace record above the limit fails at load, naming its line.
    let dir = std::env::temp_dir();
    let trace = dir.join("scenario_run_cli_huge_record.txt");
    std::fs::write(&trace, "0,s,1000\n220,s,65535\n").expect("temp trace written");
    let mut replay = ScenarioSpec::load(&root.join("scenarios/trace_replay_office.json"))
        .expect("checked-in trace spec loads");
    replay.workload = Workload::trace_file(trace.to_str().unwrap());
    let path = dir.join("scenario_run_cli_huge_record.json");
    replay.save(&path).expect("temp spec written");
    let err = stderr_of(&path);
    assert!(
        err.contains("line 2") && err.contains("packet size 65535"),
        "{err}"
    );
}
