//! `hints-trace` — generate, inspect and replay channel traces.
//!
//! The paper's methodology revolves around trace artifacts; this tool
//! makes them first-class on the command line:
//!
//! ```text
//! hints-trace gen --env office --motion mixed --secs 20 --seed 7 --out t.json
//! hints-trace info t.json
//! hints-trace replay t.json --protocol hintaware --workload tcp
//! hints-trace compare t.json                     # all six protocols
//! ```
//!
//! Run via `cargo run --release --bin hints-trace -- <args>`.
//!
//! Trace generation goes through the Scenario API (a `ScenarioSpec`
//! literal and `ScenarioSpec::trace`). One behavioural note: `--motion mixed` now splits the
//! duration exactly in half at microsecond precision, so an *odd*
//! `--secs` yields halves of `secs/2` fractional seconds rather than the
//! old integer-second truncation (even `--secs` values are unchanged).

use sensor_hints::channel::Trace;
use sensor_hints::mac::BitRate;
use sensor_hints::rateadapt::scenario::{EnvironmentSpec, MotionSpec, ScenarioSpec};
use sensor_hints::rateadapt::{HintStream, LinkSimulator, ProtocolKind, ProtocolParams, Workload};
use sensor_hints::sensors::MotionProfile;
use sensor_hints::sim::SimDuration;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  hints-trace gen --env <office|hallway|outdoor|vehicular|mesh-edge> \\\n            --motion <static|mobile|mixed|vehicle> --secs <n> --seed <n> --out <file>\n  hints-trace info <file>\n  hints-trace replay <file> --protocol <name> [--workload udp|tcp]\n  hints-trace compare <file> [--workload udp|tcp]"
    );
    ExitCode::from(2)
}

/// Pull `--flag value` out of an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Map the CLI motion names onto [`MotionSpec`]s.
fn motion_by_name(name: &str) -> Option<MotionSpec> {
    match name {
        "static" => Some(MotionSpec::Stationary),
        "mobile" => Some(MotionSpec::Walking {
            speed_mps: 1.4,
            heading_deg: 90.0,
        }),
        "mixed" => Some(MotionSpec::HalfAndHalf { static_first: true }),
        "vehicle" => Some(MotionSpec::Vehicle {
            speed_mps: 15.0,
            heading_deg: 0.0,
        }),
        _ => None,
    }
}

fn cmd_gen(args: &[String]) -> ExitCode {
    let (Some(env_s), Some(motion_s), Some(secs_s), Some(out)) = (
        flag(args, "--env"),
        flag(args, "--motion"),
        flag(args, "--secs"),
        flag(args, "--out"),
    ) else {
        return usage();
    };
    let seed: u64 = flag(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let Ok(secs) = secs_s.parse::<u64>() else {
        eprintln!("bad --secs {secs_s}");
        return ExitCode::from(2);
    };
    let Some(env) = EnvironmentSpec::from_name(&env_s) else {
        eprintln!("unknown environment {env_s}");
        return ExitCode::from(2);
    };
    let Some(motion) = motion_by_name(&motion_s) else {
        eprintln!("unknown motion {motion_s}");
        return ExitCode::from(2);
    };
    let spec = ScenarioSpec {
        environment: env,
        motion,
        duration: SimDuration::from_secs(secs),
        seed,
        ..ScenarioSpec::default()
    };
    let trace = match spec.trace() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("invalid scenario: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = trace.save(Path::new(&out)) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out}: {} slots, env {}, seed {seed}",
        trace.len(),
        trace.environment
    );
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<Trace, ExitCode> {
    Trace::load(Path::new(path)).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::FAILURE
    })
}

fn cmd_info(path: &str) -> ExitCode {
    let trace = match load(path) {
        Ok(t) => t,
        Err(c) => return c,
    };
    println!("environment : {}", trace.environment);
    println!("seed        : {}", trace.seed);
    println!("duration    : {}", trace.duration());
    println!("slots       : {}", trace.len());
    println!("noise loss  : {:.3}", trace.noise_loss);
    let moving = trace.slots.iter().filter(|s| s.moving).count();
    println!(
        "moving      : {:.0}% of slots",
        100.0 * moving as f64 / trace.len().max(1) as f64
    );
    println!("delivery ratio by rate (all / static slots / moving slots):");
    for &r in &BitRate::ALL {
        println!(
            "  {:>7}: {:.3} / {:.3} / {:.3}",
            r.to_string(),
            trace.delivery_ratio(r),
            trace.delivery_ratio_when(r, false),
            trace.delivery_ratio_when(r, true),
        );
    }
    ExitCode::SUCCESS
}

fn workload_of(args: &[String]) -> Workload {
    match flag(args, "--workload").as_deref() {
        Some("tcp") => Workload::tcp(),
        _ => Workload::Udp,
    }
}

/// A simulator over a loaded trace, with ground-truth-with-detector-
/// latency hints derived from the trace's own movement flags.
fn simulator(trace: Trace) -> LinkSimulator {
    // Rebuild a hint stream from the trace's stored ground truth with a
    // 100 ms oracle latency (the detector's measured class).
    let profile = profile_from_trace(&trace);
    let hints = HintStream::oracle(&profile, trace.duration(), SimDuration::from_millis(100));
    LinkSimulator::from_trace(trace).with_owned_hints(hints)
}

/// Replay one protocol over `sim`'s trace; returns the goodput, bit/s.
fn replay(sim: &LinkSimulator, protocol: ProtocolKind, workload: &Workload) -> f64 {
    let mut adapter = protocol.build(&ProtocolParams::default());
    sim.run(adapter.as_mut(), workload).goodput_bps
}

/// Reconstruct a piecewise motion profile from the trace's moving flags
/// (speed is not needed by the movement hint).
fn profile_from_trace(trace: &Trace) -> MotionProfile {
    use sensor_hints::sensors::motion::{MotionSegment, MotionState};
    let slot = sensor_hints::channel::SLOT_DURATION;
    let mut segs: Vec<MotionSegment> = Vec::new();
    for s in &trace.slots {
        let state = if s.moving {
            MotionState::Walking {
                speed_mps: s.speed_mps.max(0.1),
            }
        } else {
            MotionState::Static
        };
        match segs.last_mut() {
            Some(last) if last.state.is_moving() == s.moving => last.duration += slot,
            _ => segs.push(MotionSegment {
                state,
                duration: slot,
                heading_deg: 0.0,
            }),
        }
    }
    if segs.is_empty() {
        segs.push(MotionSegment {
            state: MotionState::Static,
            duration: slot,
            heading_deg: 0.0,
        });
    }
    MotionProfile::new(segs)
}

fn cmd_replay(path: &str, args: &[String]) -> ExitCode {
    let trace = match load(path) {
        Ok(t) => t,
        Err(c) => return c,
    };
    let protocol = flag(args, "--protocol");
    let Some(kind) = protocol.as_deref().and_then(ProtocolKind::from_name) else {
        let names: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.name()).collect();
        let names = names.join("|").to_ascii_lowercase();
        match protocol {
            Some(p) => eprintln!("unknown protocol `{p}` (one of: {names})"),
            None => eprintln!("--protocol required (one of: {names})"),
        }
        return ExitCode::from(2);
    };
    let goodput = replay(&simulator(trace), kind, &workload_of(args));
    println!("{}: {:.2} Mbit/s", kind.name(), goodput / 1e6);
    ExitCode::SUCCESS
}

fn cmd_compare(path: &str, args: &[String]) -> ExitCode {
    let trace = match load(path) {
        Ok(t) => t,
        Err(c) => return c,
    };
    let sim = simulator(trace);
    let workload = workload_of(args);
    println!("{:<12} {:>12}", "protocol", "Mbit/s");
    for kind in ProtocolKind::ALL {
        let goodput = replay(&sim, kind, &workload);
        println!("{:<12} {:>12.2}", kind.name(), goodput / 1e6);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("info") => match args.get(1) {
            Some(p) => cmd_info(p),
            None => usage(),
        },
        Some("replay") => match args.get(1) {
            Some(p) => cmd_replay(p.clone().as_str(), &args[2..]),
            None => usage(),
        },
        Some("compare") => match args.get(1) {
            Some(p) => cmd_compare(p.clone().as_str(), &args[2..]),
            None => usage(),
        },
        _ => usage(),
    }
}
