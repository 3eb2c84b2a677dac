//! `perfbench`: the spec-to-outcome benchmark of the sensor-hints
//! simulator.
//!
//! One repetition makes, for every spec file of a workload, the public
//! calls `scenario_run --json` makes: read the spec bytes, parse them
//! (`ScenarioSpec::from_json`, then `FleetSpec::from_json`), rebase
//! trace paths, compile, run on one thread, serialize with
//! `to_json_pretty`, and compare the bytes with the reference outcome.
//! Repetitions run closed-loop, one at a time. The traced run also
//! times each layer's public call from outside (see [`trace`]). The
//! workloads, metrics and the layer-to-end-to-end map are in README.md.

pub mod trace;

use sensor_hints::channel::{Environment, Trace};
use sensor_hints::fleet::FleetScenario;
use sensor_hints::rateadapt::protocols::registry::ProtocolRegistry;
use sensor_hints::rateadapt::scenario::{
    HintSpec, ProtocolSpec, Scenario, ScenarioOutcome, ScenarioSpec, HINT_SEED_MASK,
};
use sensor_hints::rateadapt::{
    FleetOutcome, FleetSpec, HintStream, LinkSimulator, SimResult, Workload as Traffic,
};
use sensor_hints::sensors::motion::MotionProfile;
use sensor_hints::sim::{RngStream, SimDuration};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Where runs write seeded specs and span files, relative to the repo root.
pub const OUT_DIR: &str = ".bench_out";
const SCENARIO_DIR: &str = "scenarios";
const GOLDEN_DIR: &str = "crates/bench/tests/golden";

/// One checked-in spec file a workload runs.
pub struct SpecFile {
    /// File name under `scenarios/`.
    pub file: &'static str,
    /// The golden outcome the repository pins for it, under
    /// `crates/bench/tests/golden/`.
    pub golden: Option<&'static str>,
}

/// A named set of spec files; one repetition runs each once, in order.
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// The specs of one repetition.
    pub specs: &'static [SpecFile],
}

/// Every workload (rationale and size in README.md and BENCHMARK.json).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "metro",
        specs: &[SpecFile {
            file: "fleet_metro.json",
            golden: Some("fleet_metro_outcome.json"),
        }],
    },
    Workload {
        name: "resilience",
        specs: &[SpecFile {
            file: "fleet_resilience.json",
            golden: Some("fleet_resilience_outcome.json"),
        }],
    },
    Workload {
        name: "backhaul_flow",
        specs: &[SpecFile {
            file: "fleet_backhaul_office.json",
            golden: Some("fleet_backhaul_outcome.json"),
        }],
    },
    Workload {
        name: "single_link",
        specs: &[
            SpecFile {
                file: "mixed_office_tcp.json",
                golden: None,
            },
            SpecFile {
                file: "trace_replay_office.json",
                golden: Some("trace_replay_outcome.json"),
            },
            SpecFile {
                file: "vehicular_udp.json",
                golden: None,
            },
        ],
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A parsed spec file of either family.
pub enum Spec {
    /// A single-link scenario.
    Single(ScenarioSpec),
    /// A multi-client fleet.
    Fleet(FleetSpec),
}

impl Spec {
    /// Parse the way `scenario_run` does: as a single-link spec, and
    /// when that fails, as a fleet spec.
    pub fn parse(text: &str) -> Result<Spec, String> {
        ScenarioSpec::from_json(text)
            .map(Spec::Single)
            .or_else(|single| {
                FleetSpec::from_json(text)
                    .map(Spec::Fleet)
                    .map_err(|fleet| {
                        format!("neither a scenario spec ({single}) nor a fleet spec ({fleet})")
                    })
            })
    }

    /// Resolve relative trace-file paths against `dir`.
    fn rebase(&mut self, dir: &Path) {
        match self {
            Spec::Single(s) => s.workload.rebase(dir),
            Spec::Fleet(f) => f.clients.iter_mut().for_each(|c| c.workload.rebase(dir)),
        }
    }

    fn set_seed(&mut self, seed: u64) {
        match self {
            Spec::Single(s) => s.seed = seed,
            Spec::Fleet(f) => f.seed = seed,
        }
    }

    fn to_json_pretty(&self) -> String {
        match self {
            Spec::Single(s) => s.to_json_pretty(),
            Spec::Fleet(f) => f.to_json_pretty(),
        }
    }

    /// Simulated client-seconds one run of the spec covers.
    fn client_seconds(&self) -> f64 {
        match self {
            Spec::Single(s) => s.duration.as_secs_f64(),
            Spec::Fleet(f) => f.clients.len() as f64 * f.duration.as_secs_f64(),
        }
    }

    fn compile(&self) -> Result<Compiled, String> {
        match self {
            Spec::Single(s) => s.compile().map(Compiled::Single),
            Spec::Fleet(f) => FleetScenario::compile(f).map(Compiled::Fleet),
        }
        .map_err(|e| e.to_string())
    }
}

/// A compiled spec.
pub enum Compiled {
    /// A single-link scenario.
    Single(Scenario),
    /// A fleet.
    Fleet(FleetScenario),
}

impl Compiled {
    /// Run on one thread, as `scenario_run` does by default.
    fn run(&self) -> Outcome {
        match self {
            Compiled::Single(s) => Outcome::Single(s.run()),
            Compiled::Fleet(f) => Outcome::Fleet(f.run_with_jobs(1)),
        }
    }
}

/// The outcome of one spec run.
pub enum Outcome {
    /// A single-link outcome.
    Single(ScenarioOutcome),
    /// A fleet outcome.
    Fleet(FleetOutcome),
}

/// The bytes `scenario_run --json` prints, which is also how the
/// goldens store an outcome.
fn outcome_bytes(json_pretty: String) -> String {
    json_pretty + "\n"
}

impl Outcome {
    fn to_bytes(&self) -> String {
        outcome_bytes(match self {
            Outcome::Single(o) => o.to_json_pretty(),
            Outcome::Fleet(o) => o.to_json_pretty(),
        })
    }
}

/// Everything one spec run produced.
pub struct SpecRun {
    compiled: Compiled,
    outcome: Outcome,
    bytes: String,
}

/// One spec from its bytes on disk to outcome bytes, each public call
/// in its own span.
fn run_spec(path: &Path, trace_dir: &Path, t: &mut Tracer) -> Result<SpecRun, String> {
    let text = t
        .span("spec.read", |_| fs::read_to_string(path))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut spec = t
        .span("rateadapt.spec.parse", |_| Spec::parse(&text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    t.span("spec.rebase", |_| spec.rebase(trace_dir));
    let compiled = t
        .span("engine.compile", |_| spec.compile())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let outcome = t.span("engine.run", |_| compiled.run());
    let bytes = t.span("rateadapt.outcome.serialize", |_| outcome.to_bytes());
    Ok(SpecRun {
        compiled,
        outcome,
        bytes,
    })
}

/// A spec file ready for timed repetitions.
pub struct PreparedSpec {
    /// The spec file a repetition reads.
    pub path: PathBuf,
    /// The outcome bytes every repetition must reproduce.
    pub reference: String,
}

/// A workload set up for one seed.
pub struct Prepared {
    /// The directory relative trace paths resolve against.
    trace_dir: PathBuf,
    /// Its specs, in repetition order.
    pub specs: Vec<PreparedSpec>,
    /// Simulated client-seconds one repetition covers.
    pub client_seconds: f64,
    /// Golden comparisons made during set-up.
    pub checks: u64,
    /// The golden comparisons that failed.
    pub failures: Vec<String>,
}

/// The spec seed `--seed n` gives a spec file: SplitMix64 over `n`
/// mixed with the file name, so each spec of a workload gets its own.
fn spec_seed(n: u64, file: &str) -> u64 {
    let name = file.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let mut z = (n ^ name).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Set `workload` up for `seed` under the repository at `root`.
///
/// Every set-up first runs each checked-in spec that has a golden and
/// compares the bytes; a mismatch lands in [`Prepared::failures`].
/// Seed 0 then times the checked-in specs against their goldens (a spec
/// without one is checked against its own warm-up run). Any other seed
/// rewrites each spec's `seed` into a file under [`OUT_DIR`] and checks
/// every repetition against a warm-up run of that file, so the timed
/// runs are checked for run-to-run identity. An error means the files
/// could not be read or written, or a spec does not compile.
pub fn prepare(root: &Path, workload: &'static Workload, seed: u64) -> Result<Prepared, String> {
    let read = |path: &Path| {
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let trace_dir = root.join(SCENARIO_DIR);
    let work_dir = root
        .join(OUT_DIR)
        .join(format!("{}-seed{seed}", workload.name));
    let mut p = Prepared {
        trace_dir,
        specs: Vec::new(),
        client_seconds: 0.0,
        checks: 0,
        failures: Vec::new(),
    };
    for sf in workload.specs {
        let checked_in = p.trace_dir.join(sf.file);
        let golden = match sf.golden {
            Some(name) => {
                let golden = read(&root.join(GOLDEN_DIR).join(name))?;
                let fresh = run_spec(&checked_in, &p.trace_dir, &mut Tracer::off())?;
                p.checks += 1;
                if fresh.bytes != golden {
                    p.failures.push(format!(
                        "{}: outcome differs from {GOLDEN_DIR}/{name}",
                        sf.file
                    ));
                }
                Some(golden)
            }
            None => None,
        };
        let mut spec = Spec::parse(&read(&checked_in)?)?;
        p.client_seconds += spec.client_seconds();
        let path = if seed == 0 {
            checked_in
        } else {
            spec.set_seed(spec_seed(seed, sf.file));
            let path = work_dir.join(sf.file);
            fs::create_dir_all(&work_dir)
                .and_then(|()| fs::write(&path, spec.to_json_pretty() + "\n"))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            path
        };
        let reference = match golden {
            Some(golden) if seed == 0 => golden,
            _ => run_spec(&path, &p.trace_dir, &mut Tracer::off())?.bytes,
        };
        p.specs.push(PreparedSpec { path, reference });
    }
    Ok(p)
}

/// One repetition: every spec from its bytes on disk to outcome bytes,
/// each compared with its reference. A mismatch is an error, so it is
/// never timed as a success.
pub fn repetition(p: &Prepared, t: &mut Tracer) -> Result<Vec<SpecRun>, String> {
    p.specs
        .iter()
        .map(|s| {
            let run = run_spec(&s.path, &p.trace_dir, t)?;
            t.span("verify", |_| {
                if run.bytes == s.reference {
                    Ok(run)
                } else {
                    Err(format!(
                        "{}: outcome differs from the reference",
                        s.path.display()
                    ))
                }
            })
        })
        .collect()
}

/// Exact work counts of one traced repetition.
#[derive(Debug, Default)]
pub struct Counts {
    /// Accelerometer reports the sensor pipeline turned into hints.
    pub reports: u64,
    /// Channel-trace slots generated.
    pub slots: u64,
    /// Link-layer transmission attempts.
    pub attempts: u64,
    /// Packets sent.
    pub sent: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Fleet handoffs.
    pub handoffs: u64,
    /// Fleet handoffs forced by coverage loss.
    pub forced_handoffs: u64,
    /// Medium collisions.
    pub collisions: u64,
    /// Airtime granted by the arbiter, simulated seconds.
    pub busy_s: f64,
    /// Airtime lost to collisions, simulated seconds.
    pub collision_s: f64,
    /// Airtime spent on frames to clients that had already left.
    pub ghost_airtime_s: f64,
    /// Packets the backhaul queue dropped.
    pub backhaul_dropped: u64,
}

impl Counts {
    fn add_result(&mut self, r: &SimResult) {
        self.attempts += r.attempts;
        self.sent += r.packets_sent;
        self.delivered += r.packets_delivered;
        self.backhaul_dropped += r.backhaul_dropped;
    }

    fn add_outcome(&mut self, outcome: &Outcome) {
        match outcome {
            Outcome::Single(o) => self.add_result(&o.result),
            Outcome::Fleet(o) => {
                o.clients
                    .iter()
                    .for_each(|c| self.add_result(&c.outcome.result));
                self.handoffs += u64::from(o.total_handoffs);
                self.forced_handoffs += u64::from(o.forced_handoffs);
                for ap in &o.aps {
                    self.collisions += u64::from(ap.collisions);
                    self.busy_s += ap.contended_busy_s;
                    self.collision_s += ap.collision_s;
                    self.ghost_airtime_s += ap.wasted_airtime_s;
                }
            }
        }
    }
}

/// Spans and counts of the per-layer calls one traced repetition makes.
struct Probe<'t> {
    t: &'t mut Tracer,
    counts: Counts,
}

impl Probe<'_> {
    fn load(&mut self, workload: &Traffic) -> Result<Traffic, String> {
        self.t.span("rateadapt.trace.load", |_| workload.resolve())
    }

    fn channel(
        &mut self,
        env: &Environment,
        profile: &MotionProfile,
        duration: SimDuration,
        seed: u64,
    ) -> Trace {
        let trace = self.t.span("channel.trace", |_| {
            Trace::generate(env, profile, duration, seed)
        });
        self.counts.slots += trace.len() as u64;
        trace
    }

    fn hints(
        &mut self,
        spec: &HintSpec,
        profile: &MotionProfile,
        duration: SimDuration,
        seed: u64,
    ) -> Option<HintStream> {
        match spec {
            HintSpec::None => None,
            HintSpec::Oracle { latency } => Some(self.t.span("rateadapt.hints.oracle", |_| {
                HintStream::oracle(profile, duration, *latency)
            })),
            HintSpec::Sensors { .. } => {
                let stream = self.t.span("sensors.hints", |_| {
                    HintStream::from_sensors(profile, duration, seed)
                });
                self.counts.reports += stream.len() as u64;
                Some(stream)
            }
        }
    }

    fn link(
        &mut self,
        sim: &LinkSimulator,
        protocol: &ProtocolSpec,
        workload: &Traffic,
    ) -> Result<SimResult, String> {
        let factory = ProtocolRegistry::builtin_shared()
            .factory(&protocol.name)
            .ok_or_else(|| format!("unknown protocol {}", protocol.name))?;
        let mut adapter = factory(&protocol.params());
        Ok(self.t.span("rateadapt.sim.link", |_| {
            sim.run(adapter.as_mut(), workload)
        }))
    }

    /// The channel → sensors → link pipeline of a single-link scenario,
    /// composed by hand; it must reproduce `Scenario::run` byte for byte.
    fn single(&mut self, s: &Scenario, expected: &str) -> Result<(), String> {
        let spec = s.spec();
        let profile = spec.motion.profile(spec.duration);
        let workload = self.load(&spec.workload)?;
        let trace = self.channel(s.environment(), &profile, spec.duration, spec.seed);
        let hint_seed = match spec.hints {
            HintSpec::Sensors { seed: Some(seed) } => seed,
            _ => spec.seed ^ HINT_SEED_MASK,
        };
        let mut sim = LinkSimulator::from_trace(trace).with_payload(spec.payload_bytes);
        if let Some(h) = self.hints(&spec.hints, &profile, spec.duration, hint_seed) {
            sim = sim.with_owned_hints(h);
        }
        if let Some(b) = spec.backhaul {
            sim = sim.with_backhaul(b);
        }
        let composed = ScenarioOutcome {
            environment: s.environment().name.clone(),
            protocol: s.protocol_name().to_string(),
            seed: spec.seed,
            result: self.link(&sim, &spec.protocol, &workload)?,
        };
        if outcome_bytes(composed.to_json_pretty()) != expected {
            return Err("hand-composed single-link run differs from Scenario::run".into());
        }
        Ok(())
    }

    /// Each fleet client's channel → sensors → link pipeline over the
    /// full duration, with the seeds compile derives; the hint stream is
    /// the one compile synthesizes.
    fn fleet(&mut self, f: &FleetScenario) -> Result<(), String> {
        let spec = f.spec();
        let root = RngStream::new(spec.seed);
        for (i, client) in spec.clients.iter().enumerate() {
            let seed = root.derive_idx("fleet-client", i as u64).seed();
            let hint_seed = match spec.hints {
                HintSpec::Sensors { seed: Some(s) } => {
                    RngStream::new(s).derive_idx("fleet-hints", i as u64).seed()
                }
                _ => seed ^ HINT_SEED_MASK,
            };
            let profile = client.motion.profile(spec.duration);
            let workload = self.load(&client.workload)?;
            let trace = self.channel(f.environment(), &profile, spec.duration, seed);
            let mut sim = LinkSimulator::from_trace(trace).with_payload(spec.payload_bytes);
            if let Some(h) = self.hints(&spec.hints, &profile, spec.duration, hint_seed) {
                sim = sim.with_owned_hints(h);
            }
            self.link(&sim, &spec.protocol, &workload)?;
        }
        Ok(())
    }

    /// The run stage on two workers: a fleet shards its span
    /// simulations, single-link scenarios are split between the
    /// workers. Either must reproduce the one-worker bytes.
    fn two_workers(&mut self, runs: Vec<SpecRun>) -> Result<(), String> {
        let mut singles = Vec::new();
        for run in runs {
            match run.compiled {
                Compiled::Fleet(f) => {
                    let out = self.t.span("engine.run_jobs2", |_| f.run_with_jobs(2));
                    if outcome_bytes(out.to_json_pretty()) != run.bytes {
                        return Err("run_with_jobs(2) differs from run_with_jobs(1)".into());
                    }
                }
                Compiled::Single(s) => singles.push((s, run.bytes)),
            }
        }
        if singles.is_empty() {
            return Ok(());
        }
        // A `Scenario` is `Send` but not `Sync`: each worker owns its half.
        let second = singles.split_off(singles.len().div_ceil(2));
        let run_all = |half: Vec<(Scenario, String)>| -> Vec<(ScenarioOutcome, String)> {
            half.into_iter()
                .map(|(s, bytes)| (s.run(), bytes))
                .collect()
        };
        let outcomes = self.t.span("engine.run_jobs2", |_| {
            std::thread::scope(|scope| {
                let worker = scope.spawn(|| run_all(second));
                let mut outcomes = run_all(singles);
                outcomes.extend(
                    worker
                        .join()
                        .expect("a scenario run panicked on the second worker"),
                );
                outcomes
            })
        });
        for (out, bytes) in outcomes {
            if outcome_bytes(out.to_json_pretty()) != bytes {
                return Err("two-worker single-link run differs from the serial one".into());
            }
        }
        Ok(())
    }
}

/// Time each layer's public call from outside on this repetition's
/// inputs, and check the identities that must hold between paths.
fn probe_layers(runs: Vec<SpecRun>, t: &mut Tracer) -> Result<Counts, String> {
    let mut probe = Probe {
        t,
        counts: Counts::default(),
    };
    for run in &runs {
        probe.counts.add_outcome(&run.outcome);
        match &run.compiled {
            Compiled::Single(s) => probe.single(s, &run.bytes)?,
            Compiled::Fleet(f) => probe.fleet(f)?,
        }
    }
    probe.two_workers(runs)?;
    Ok(probe.counts)
}

/// What one measured run tallied.
pub struct Measurement {
    /// Checks attempted: set-up golden comparisons plus repetitions.
    pub attempted: u64,
    /// Checks whose outcome was wrong or errored.
    pub failed: u64,
    /// Wall time of each successful untraced repetition, milliseconds.
    pub e2e_ms: Vec<f64>,
    /// The spans of the traced repetitions (empty when untraced).
    pub tracer: Tracer,
    /// Work counts of the last successful traced repetition.
    pub counts: Counts,
}

/// Run repetitions of `p` closed-loop, one at a time, until `seconds`
/// have passed (at least one). With `traced`, each untraced repetition
/// is followed by a traced one that also probes every layer.
pub fn measure(p: &Prepared, seconds: u64, traced: bool) -> Measurement {
    let mut m = Measurement {
        attempted: p.checks,
        failed: p.failures.len() as u64,
        e2e_ms: Vec::new(),
        tracer: if traced { Tracer::on() } else { Tracer::off() },
        counts: Counts::default(),
    };
    let mut untraced = Tracer::off();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    for rep in 0.. {
        m.attempted += 1;
        let t0 = Instant::now();
        let result = repetition(p, &mut untraced).map(drop);
        let elapsed = t0.elapsed();
        match result {
            Ok(()) => m.e2e_ms.push(elapsed.as_secs_f64() * 1e3),
            Err(e) => {
                m.failed += 1;
                eprintln!("perfbench: {e}");
            }
        }
        if traced {
            m.attempted += 1;
            m.tracer.set_rep(rep);
            let result = m.tracer.span("rep", |t| {
                let runs = t.span("e2e", |t| repetition(p, t))?;
                probe_layers(runs, t)
            });
            match result {
                Ok(counts) => m.counts = counts,
                Err(e) => {
                    m.failed += 1;
                    eprintln!("perfbench: {e}");
                }
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    m
}
