//! `scenario_run` — execute a JSON [`ScenarioSpec`] or [`FleetSpec`]
//! file from the command line.
//!
//! The spec file is the whole experiment. A single-link spec is
//! environment × motion × duration × seed × workload × protocol-by-name
//! × hint configuration; a **fleet** spec (any JSON object with a
//! `clients` field) adds AP placement, per-client motion/workload, and a
//! handoff policy by name, and runs N clients against M APs through the
//! fleet engine. New scenarios therefore need zero new Rust — write a
//! JSON file and run it:
//!
//! ```text
//! scenario_run scenarios/mixed_office_tcp.json
//! scenario_run scenarios/vehicular_udp.json --json
//! scenario_run scenarios/fleet_office_walk.json
//! ```
//!
//! Spec-driven runs are bit-identical to the equivalent hand-coded
//! builder runs (same seeds ⇒ same results); the schemas are documented
//! in EXPERIMENTS.md ("Scenario spec files" and "Fleet spec files").

use sensor_hints::fleet::FleetScenario;
use sensor_hints::mac::BitRate;
use sensor_hints::rateadapt::fleet::FleetSpec;
use sensor_hints::rateadapt::scenario::ScenarioSpec;
use std::io::{self, Write};
use std::num::NonZeroUsize;
use std::process::ExitCode;

const USAGE: &str =
    "usage: scenario_run <spec.json> [--json] [--jobs N] [--validate] [--record PATH]\n\
       <spec.json>  a ScenarioSpec or FleetSpec file (schema: EXPERIMENTS.md);\n\
                    a spec with a `clients` field runs as a fleet\n\
       --json       print the full outcome as JSON instead of the\n\
                    human-readable summary\n\
       --jobs N     shard a fleet's span simulations over N worker\n\
                    threads (N >= 1; output is byte-identical to serial)\n\
       --validate   parse and validate the spec, then exit without\n\
                    simulating anything (mutually exclusive with\n\
                    --record: a validation-only run produces no trace)\n\
       --record PATH\n\
                    (single-link specs) also write the run's delivered-\n\
                    packet trace to PATH — text `time_us,direction,size`\n\
                    lines, or the compact binary form when PATH ends in\n\
                    .bin. The file replays via a Trace workload\n\
                    (EXPERIMENTS.md, \"Trace workloads\"). The path is\n\
                    checked before the run: an uncreatable file is a\n\
                    user error (exit 2), not a post-run surprise\n\
\n\
exit codes:\n\
       0  success (the run finished, or --validate accepted the spec)\n\
       1  environment failure (e.g. the spec file cannot be read,\n\
          the --record file fails mid-write, or stdout is closed)\n\
       2  user error (bad arguments, conflicting flags, malformed\n\
          JSON, a spec that fails validation, or a --record path that\n\
          cannot be created)";

fn main() -> ExitCode {
    match run(&mut std::io::stdout().lock()) {
        Ok(code) => code,
        // A reader that went away (`scenario_run ... | head`) is an
        // environment failure, reported by exit code alone.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("scenario_run: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse the arguments and run the spec, writing every stdout line to
/// `out`; a failed write ends the run with its error.
fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<&str> = None;
    let mut json = false;
    let mut jobs = NonZeroUsize::MIN;
    let mut validate = false;
    let mut record: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--validate" => validate = true,
            "--jobs" => {
                jobs = match iter.next().map(|v| v.parse::<NonZeroUsize>()) {
                    Some(Ok(n)) => n,
                    _ => {
                        eprintln!("scenario_run: --jobs needs an integer >= 1\n{USAGE}");
                        return Ok(ExitCode::from(2));
                    }
                };
            }
            "--record" => {
                record = match iter.next() {
                    Some(p) if !p.is_empty() => Some(p.as_str()),
                    _ => {
                        eprintln!("scenario_run: --record needs an output path\n{USAGE}");
                        return Ok(ExitCode::from(2));
                    }
                };
            }
            "--help" | "-h" => {
                writeln!(out, "{USAGE}")?;
                return Ok(ExitCode::SUCCESS);
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other),
            other => {
                eprintln!("scenario_run: unexpected argument `{other}`\n{USAGE}");
                return Ok(ExitCode::from(2));
            }
        }
    }
    let Some(path) = path else {
        eprintln!("scenario_run: missing spec file\n{USAGE}");
        return Ok(ExitCode::from(2));
    };
    if validate && record.is_some() {
        // Silently ignoring --record here (the old behaviour) hid the
        // flag conflict until the user went looking for the trace file.
        eprintln!(
            "scenario_run: --record and --validate are mutually exclusive \
             (--validate never simulates, so there is no trace to record); \
             drop one of the two flags\n{USAGE}"
        );
        return Ok(ExitCode::from(2));
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("scenario_run: cannot load {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    // Dispatch by parsing: the two schemas are disjoint (a fleet spec
    // has no `motion`/`workload` at top level, a single-link spec has no
    // `clients`), so whichever parses is the kind the file is. When
    // neither parses, report the error for the family the file most
    // resembles — the `clients` key only appears as a field name in
    // fleet specs.
    let spec = match ScenarioSpec::from_json(&text) {
        Ok(spec) => spec,
        Err(single_err) => {
            match FleetSpec::from_json(&text) {
                Ok(mut fleet_spec) => {
                    if record.is_some() {
                        eprintln!(
                            "scenario_run: --record only applies to single-link specs \
                             (a fleet run has no single delivered-packet schedule)\n{USAGE}"
                        );
                        return Ok(ExitCode::from(2));
                    }
                    rebase_fleet_traces(path, &mut fleet_spec);
                    if validate {
                        return validate_fleet(out, path, &fleet_spec);
                    }
                    return run_fleet(out, path, fleet_spec, json, jobs);
                }
                Err(fleet_err) => {
                    // Malformed spec content is the same user-error
                    // class as a spec that fails validation: exit 2.
                    let e: &dyn std::fmt::Display = if text.contains("\"clients\"") {
                        &fleet_err
                    } else {
                        &single_err
                    };
                    eprintln!("scenario_run: cannot load {path}: {e}");
                    return Ok(ExitCode::from(2));
                }
            }
        }
    };
    // A relative trace-workload path resolves against the spec file's
    // directory (matching `ScenarioSpec::load`), so specs run from any
    // working directory.
    let mut spec = spec;
    if let Some(dir) = std::path::Path::new(path).parent() {
        spec.workload.rebase(dir);
    }
    if validate {
        // Validation only (cheap: no trace generation, no simulation).
        return match spec.validate() {
            Ok(_) => {
                writeln!(out, "scenario_run: {path}: valid single-link spec")?;
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => {
                eprintln!("scenario_run: invalid spec {path}: {e}");
                Ok(ExitCode::from(2))
            }
        };
    }
    let scenario = match spec.compile() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("scenario_run: invalid spec {path}: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    if let Some(out_path) = record {
        // Pre-flight the record path so a doomed destination fails now
        // (user error, exit 2), not after the whole simulation has run.
        // `PacketTrace::save` truncates on success, so the placeholder
        // file created here is simply overwritten.
        if let Err(e) = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(out_path)
        {
            eprintln!(
                "scenario_run: cannot create --record path {out_path}: {e} \
                 (check the directory exists and is writable)\n{USAGE}"
            );
            return Ok(ExitCode::from(2));
        }
    }
    let (outcome, recorded) = match record {
        None => (scenario.run(), None),
        Some(out_path) => {
            // Recording is observation-only: the outcome is identical to
            // an unrecorded run of the same spec.
            let (outcome, trace) = scenario.run_recording();
            if let Err(e) = trace.save(std::path::Path::new(out_path)) {
                eprintln!("scenario_run: cannot write trace {out_path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            (outcome, Some((out_path, trace)))
        }
    };

    if json {
        writeln!(out, "{}", outcome.to_json_pretty())?;
        return Ok(ExitCode::SUCCESS);
    }

    writeln!(out, "scenario    : {path}")?;
    writeln!(out, "environment : {}", outcome.environment)?;
    writeln!(out, "protocol    : {}", outcome.protocol)?;
    writeln!(out, "workload    : {}", spec.workload.summary())?;
    writeln!(out, "duration    : {}", spec.duration)?;
    writeln!(out, "seed        : {}", spec.seed)?;
    if let Some((out_path, trace)) = &recorded {
        writeln!(
            out,
            "recorded    : {out_path} ({} packets; replay with a \
             {{\"Trace\":{{\"Path\":...}}}} workload)",
            trace.len()
        )?;
    }
    writeln!(out)?;
    let r = &outcome.result;
    writeln!(out, "goodput     : {:.2} Mbit/s", outcome.goodput_mbps())?;
    writeln!(
        out,
        "delivery    : {}/{} packets ({:.1}% of {} attempts)",
        r.packets_delivered,
        r.packets_sent,
        100.0 * outcome.delivery_ratio(),
        r.attempts
    )?;
    writeln!(out, "rate usage  :")?;
    for &rate in &BitRate::ALL {
        let n = r.rate_usage[rate.index()];
        if n > 0 {
            writeln!(out, "  {:>7}: {n}", rate.to_string())?;
        }
    }
    let series = &r.delivered_per_second;
    if !series.is_empty() {
        let max = *series.iter().max().unwrap_or(&1) as f64;
        writeln!(out, "delivered/s :")?;
        for (sec, &n) in series.iter().enumerate() {
            let filled = if max > 0.0 {
                ((n as f64 / max) * 40.0).round() as usize
            } else {
                0
            };
            writeln!(
                out,
                "  {sec:>4}  {n:>6}  |{}{}|",
                "#".repeat(filled),
                " ".repeat(40 - filled)
            )?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Rebase each client's relative trace-workload path against the spec
/// file's directory (matching `FleetSpec::load`).
fn rebase_fleet_traces(path: &str, spec: &mut FleetSpec) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        for client in &mut spec.clients {
            client.workload.rebase(dir);
        }
    }
}

/// Validate an already-parsed fleet spec without compiling or running
/// it (`--validate`): exit 0 on a valid spec, 2 otherwise.
fn validate_fleet(out: &mut impl Write, path: &str, spec: &FleetSpec) -> io::Result<ExitCode> {
    match spec.validate() {
        Ok(_) => {
            writeln!(
                out,
                "scenario_run: {path}: valid fleet spec ({} clients x {} APs)",
                spec.clients.len(),
                spec.aps.len()
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("scenario_run: invalid spec {path}: {e}");
            Ok(ExitCode::from(2))
        }
    }
}

/// Compile, run and print an already-parsed fleet spec. `jobs` worker
/// threads shard the span simulations; any value prints the identical
/// outcome (the engine's byte-identity contract).
fn run_fleet(
    out: &mut impl Write,
    path: &str,
    spec: FleetSpec,
    json: bool,
    jobs: NonZeroUsize,
) -> io::Result<ExitCode> {
    let fleet = match FleetScenario::compile(&spec) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("scenario_run: invalid spec {path}: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    let (outcome, _) = fleet.run_counted(jobs);

    if json {
        writeln!(out, "{}", outcome.to_json_pretty())?;
        return Ok(ExitCode::SUCCESS);
    }

    writeln!(out, "fleet       : {path}")?;
    writeln!(out, "environment : {}", outcome.environment)?;
    writeln!(out, "protocol    : {}", outcome.protocol)?;
    writeln!(out, "policy      : {}", outcome.policy)?;
    if outcome.contention != "isolated" {
        writeln!(out, "contention  : {} medium", outcome.contention)?;
    }
    writeln!(out, "duration    : {}", spec.duration)?;
    writeln!(out, "seed        : {}", spec.seed)?;
    writeln!(
        out,
        "fleet       : {} clients x {} APs on {} x {} m",
        spec.clients.len(),
        spec.aps.len(),
        spec.bounds.width_m,
        spec.bounds.height_m
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "handoffs    : {} total, {} forced (coverage loss)",
        outcome.total_handoffs, outcome.forced_handoffs
    )?;
    let down_s: f64 = outcome.aps.iter().map(|a| a.down_s).sum();
    let evictions: u32 = outcome.aps.iter().map(|a| a.evictions).sum();
    let fallback_s: f64 = outcome.clients.iter().map(|c| c.fallback_s).sum();
    if down_s > 0.0 || evictions > 0 || fallback_s > 0.0 {
        writeln!(
            out,
            "faults      : {down_s:.1} s AP downtime, {evictions} evictions, {fallback_s:.1} s hint fallback"
        )?;
    }
    writeln!(
        out,
        "aggregate   : {:.2} Mbit/s, Jain fairness {:.3}",
        outcome.aggregate_goodput_mbps, outcome.jain_fairness
    )?;
    writeln!(out)?;
    writeln!(out, "clients:")?;
    for c in &outcome.clients {
        let aps: Vec<String> = c.aps_visited.iter().map(|a| format!("AP{a}")).collect();
        writeln!(
            out,
            "  {:>3}  {:>7.2} Mbit/s  {:>2} handoffs ({} forced)  outage {:>8}  path {}",
            c.client,
            c.outcome.goodput_mbps(),
            c.handoffs,
            c.forced_handoffs,
            c.outage.to_string(),
            if aps.is_empty() {
                "(never associated)".to_string()
            } else {
                aps.join(" -> ")
            }
        )?;
    }
    writeln!(out)?;
    writeln!(out, "aps:")?;
    for (i, ap) in outcome.aps.iter().enumerate() {
        let contended = if outcome.contention == "isolated" {
            String::new()
        } else {
            format!(
                "  {:>6.2} s granted  {:>5.2} s in {} collisions",
                ap.contended_busy_s, ap.collision_s, ap.collisions
            )
        };
        writeln!(
            out,
            "  AP{i}  {:>7.1} client-s associated  {:>2} handoffs in  {:>6.2} s ghost airtime{contended}",
            ap.association_s, ap.handoffs_in, ap.wasted_airtime_s
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
