//! Runs the experiment battery: every table and figure, or — with
//! `--smoke` — a minimal slice through each subsystem so CI can prove the
//! experiments still run without paying for the full battery. It is the
//! one entry point to every experiment: `--filter <job>` runs one.
//!
//! Flags (composable):
//!
//! * `--jobs N`   — run experiments on N worker threads. Every experiment
//!   seeds its own RNG streams and buffers its output, so the battery's
//!   stdout is **byte-identical for every N** (per-job wall-clock timings
//!   go to stderr).
//! * `--filter S` — run only experiments whose name contains `S`
//!   (e.g. `--filter fig_3` or `--filter table_5_1`). A filter matching
//!   nothing is an error (exit 2) naming the valid experiments.
//! * `--smoke`    — the CI-sized battery instead of the full one.
//! * `--list`     — print the battery index (names + one-line
//!   descriptions) and exit, so `--filter` values are discoverable.
//!   Composes with `--smoke`/`--filter`: lists exactly the jobs a run
//!   with the same flags would execute.

use hint_bench::runner::{
    battery_index, full_battery, run_jobs_with, select_jobs, smoke_battery, Job,
};
use std::io::{self, Write};
use std::num::NonZeroUsize;

const USAGE: &str = "usage: run_all [--smoke] [--jobs N] [--filter SUBSTRING] [--list]\n\
       --jobs N    run experiments on N worker threads (N >= 1; output is\n\
                   byte-identical to --jobs 1)\n\
       --filter S  run only experiments whose name contains S\n\
       --smoke     run the CI-sized smoke battery\n\
       --list      print the battery index (names and descriptions) and exit";

fn usage_error(msg: &str) -> ! {
    eprintln!("run_all: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Options {
    smoke: bool,
    jobs: NonZeroUsize,
    filter: Option<String>,
    list: bool,
}

fn parse_args(args: &[String]) -> Options {
    let mut opts = Options {
        smoke: false,
        jobs: NonZeroUsize::MIN,
        filter: None,
        list: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--list" => opts.list = true,
            "--jobs" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--jobs needs a value"));
                match v.parse::<usize>().map(NonZeroUsize::new) {
                    Ok(Some(n)) => opts.jobs = n,
                    Ok(None) => usage_error("--jobs must be at least 1"),
                    Err(_) => usage_error(&format!("--jobs needs a positive integer, got `{v}`")),
                }
            }
            "--filter" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage_error("--filter needs a value"));
                opts.filter = Some(v.clone());
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    opts
}

/// Write `text` to stdout and flush it. A closed stdout (`run_all |
/// head`) ends the run at once with exit code 1, without a panic.
fn emit(out: &mut impl Write, text: &str) {
    if let Err(e) = write!(out, "{text}").and_then(|()| out.flush()) {
        if e.kind() != io::ErrorKind::BrokenPipe {
            eprintln!("run_all: cannot write to stdout: {e}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args);
    let mut out = io::stdout().lock();

    let battery: Vec<Job> = if opts.smoke {
        smoke_battery()
    } else {
        full_battery()
    };
    let total = battery.len();

    let selected = match select_jobs(battery, opts.filter.as_deref()) {
        Ok(jobs) => jobs,
        Err(msg) => usage_error(&msg),
    };

    if opts.list {
        // --list composes with --smoke and --filter: print exactly the
        // jobs a run with the same flags would execute.
        emit(&mut out, &battery_index(&selected));
        return;
    }

    let n_selected = selected.len();
    let start = std::time::Instant::now();
    // Stdout: the experiments stream in battery order as each finished
    // prefix lands — identical bytes for any --jobs.
    let reports = run_jobs_with(selected, opts.jobs, |report| emit(&mut out, &report.text));
    let wall = start.elapsed();

    let footer = match (&opts.filter, opts.smoke) {
        (Some(f), _) => format!("{n_selected} of {total} experiments complete (filter: `{f}`)."),
        (None, true) => "Smoke battery complete.".to_string(),
        (None, false) => {
            "All experiments complete. Paper-vs-measured: see EXPERIMENTS.md".to_string()
        }
    };
    emit(&mut out, &format!("\n{footer}\n"));

    // Stderr: scheduling diagnostics (kept off stdout so parallel output
    // stays byte-identical to serial).
    for report in &reports {
        eprintln!(
            "[run_all] {:<28} {:>8.2}s",
            report.name,
            report.wall.as_secs_f64()
        );
    }
    let busy: f64 = reports.iter().map(|r| r.wall.as_secs_f64()).sum();
    eprintln!(
        "[run_all] {n_selected} experiments on {} worker(s): {:.2}s wall, {:.2}s of work (speedup {:.2}x)",
        opts.jobs,
        wall.as_secs_f64(),
        busy,
        busy / wall.as_secs_f64().max(1e-9)
    );
}
