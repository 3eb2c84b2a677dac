//! The parallel experiment engine's core contract: running the battery on
//! N worker threads produces output byte-identical to running it serially.
//! Every experiment owns its own seeded RNG streams and buffers its output
//! into a `Report`, so scheduling cannot leak into results. `run_all`
//! itself also ends quietly when its reader goes away.

use hint_bench::runner::{battery_output, filter_jobs, run_jobs, smoke_battery};
use std::num::NonZeroUsize;
use std::process::{Command, Stdio};

/// `run_all --smoke --jobs 4` output equals `--jobs 1`, byte for byte.
#[test]
fn smoke_battery_parallel_output_identical_to_serial() {
    let serial = battery_output(smoke_battery(), NonZeroUsize::MIN);
    let parallel = battery_output(smoke_battery(), NonZeroUsize::new(4).unwrap());
    assert!(
        serial == parallel,
        "parallel smoke battery diverged from serial (serial {} bytes, parallel {} bytes)",
        serial.len(),
        parallel.len()
    );
    // And the output is the real battery, not an empty shell.
    assert!(serial.contains("Fig. 2-2"));
    assert!(serial.contains("Table 5.1"));
    assert!(serial.contains("Fig. 5-1"));
}

/// Filtering composes with parallelism: the filtered slice of the battery
/// runs the same experiments in the same order.
#[test]
fn filtered_battery_is_deterministic_and_ordered() {
    let serial: Vec<String> = run_jobs(filter_jobs(smoke_battery(), "fig"), NonZeroUsize::MIN)
        .into_iter()
        .map(|r| r.name)
        .collect();
    let parallel: Vec<String> = run_jobs(
        filter_jobs(smoke_battery(), "fig"),
        NonZeroUsize::new(3).unwrap(),
    )
    .into_iter()
    .map(|r| r.name)
    .collect();
    assert_eq!(serial, parallel);
    assert_eq!(
        serial,
        [
            "fig_2_2",
            "fig_3_5",
            "fig_4_2_4_3",
            "fig_5_1",
            "fig_fleet",
            "fig_metro"
        ]
    );
}

/// A reader that goes away (`run_all | head`) ends the run without a
/// panic.
#[test]
fn closed_stdout_does_not_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--filter", "etx_overhead"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run_all starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("run_all exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
