//! The unified **Scenario** API — one typed, serializable front door for
//! every experiment in the workspace.
//!
//! The paper's evaluation is a matrix of scenarios: environment × motion
//! profile × workload × rate-adaptation protocol × hint configuration.
//! Historically every figure module, example and CLI hand-assembled its
//! own `Trace` + adapter + [`LinkSimulator`] pipeline; this module folds
//! that plumbing into three layers:
//!
//! * [`ScenarioSpec`] — a plain-data, serde-serializable description of
//!   one experiment. Specs round-trip through JSON, so a scenario is a
//!   replayable artifact exactly like the traces it generates (run one
//!   from the command line with the `scenario_run` binary).
//! * [`ScenarioBuilder`] — a validating fluent API that produces specs
//!   (and compiled scenarios) from Rust.
//! * [`Scenario`] — a compiled spec: it **owns** its generated trace and
//!   hint stream (via the owning [`LinkSimulator`] constructors) and runs
//!   adapters over them, returning a [`ScenarioOutcome`].
//!
//! Determinism contract: compiling a spec performs exactly the calls a
//! hand-built pipeline would — `Trace::generate(env, profile, duration,
//! seed)`, then `HintStream::from_sensors(profile, duration, hint_seed)`
//! or `HintStream::oracle(..)` — so a spec-driven run is **bit-identical**
//! to the equivalent hand-coded run with the same seeds.
//!
//! ```
//! use hint_rateadapt::scenario::{MotionSpec, ScenarioBuilder};
//! use hint_rateadapt::Workload;
//! use hint_sim::SimDuration;
//!
//! let scenario = ScenarioBuilder::new()
//!     .motion(MotionSpec::Walking { speed_mps: 1.4, heading_deg: 90.0 })
//!     .duration(SimDuration::from_secs(5))
//!     .seed(42)
//!     .workload(Workload::Udp)
//!     .protocol("RapidSample")
//!     .build()
//!     .expect("valid scenario");
//! let outcome = scenario.run();
//! assert!(outcome.result.goodput_bps > 0.0);
//! // Same spec, same seed => bit-identical rerun.
//! assert_eq!(outcome.result, scenario.run().result);
//! ```

use crate::hintstream::HintStream;
use crate::protocols::{ProtocolKind, ProtocolParams, RateAdapter};
use crate::sim::{LinkSimulator, SimResult};
use crate::workload::Workload;
use hint_channel::{Environment, Trace};
use hint_mac::MAX_MSDU_BYTES;
use hint_sensors::motion::{MotionProfile, MotionSegment};
use hint_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::path::Path;

/// XOR mask deriving the default sensor-hint seed from the trace seed
/// (the evaluation harness's long-standing convention).
pub const HINT_SEED_MASK: u64 = 0x5EED;

// ---------------------------------------------------------------------------
// Spec types
// ---------------------------------------------------------------------------

/// Channel-environment selection: one of the paper's presets by name, or
/// a fully custom [`Environment`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EnvironmentSpec {
    /// [`Environment::office`].
    Office,
    /// [`Environment::hallway`].
    Hallway,
    /// [`Environment::outdoor`].
    Outdoor,
    /// [`Environment::vehicular`].
    Vehicular,
    /// [`Environment::mesh_edge`].
    MeshEdge,
    /// An explicit environment (all knobs in the spec).
    Custom(Environment),
}

impl EnvironmentSpec {
    /// Parse a preset by its CLI/JSON name (`office`, `hallway`,
    /// `outdoor`, `vehicular`, `mesh-edge`).
    pub fn from_name(name: &str) -> Option<EnvironmentSpec> {
        match name.to_ascii_lowercase().as_str() {
            "office" => Some(EnvironmentSpec::Office),
            "hallway" => Some(EnvironmentSpec::Hallway),
            "outdoor" => Some(EnvironmentSpec::Outdoor),
            "vehicular" => Some(EnvironmentSpec::Vehicular),
            "mesh-edge" | "mesh_edge" => Some(EnvironmentSpec::MeshEdge),
            _ => None,
        }
    }

    /// Materialise the environment preset.
    pub fn resolve(&self) -> Environment {
        match self {
            EnvironmentSpec::Office => Environment::office(),
            EnvironmentSpec::Hallway => Environment::hallway(),
            EnvironmentSpec::Outdoor => Environment::outdoor(),
            EnvironmentSpec::Vehicular => Environment::vehicular(),
            EnvironmentSpec::MeshEdge => Environment::mesh_edge(),
            EnvironmentSpec::Custom(env) => env.clone(),
        }
    }
}

/// Ground-truth motion selection, compiling to a [`MotionProfile`] over
/// the scenario duration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum MotionSpec {
    /// Static for the whole scenario.
    Stationary,
    /// Walking for the whole scenario.
    Walking {
        /// Walking speed, m/s (indoor walk ≈ 1.4).
        speed_mps: f64,
        /// Heading, degrees clockwise from north.
        heading_deg: f64,
    },
    /// Riding a vehicle for the whole scenario.
    Vehicle {
        /// Vehicle speed, m/s (paper: 2.2–20).
        speed_mps: f64,
        /// Heading, degrees clockwise from north.
        heading_deg: f64,
    },
    /// The Fig. 3-5 mixed-mobility shape: one half static, one half
    /// walking at 1.4 m/s (each half is `duration / 2`).
    HalfAndHalf {
        /// Whether the static half comes first.
        static_first: bool,
    },
    /// The Fig. 2-2 shape: static, walking, static. The three segment
    /// lengths must sum to the scenario duration.
    StaticMoveStatic {
        /// Leading static segment.
        lead: SimDuration,
        /// Walking segment.
        moving: SimDuration,
        /// Trailing static segment.
        tail: SimDuration,
    },
    /// The supermarket shopper: `n_pairs` alternating static/walking
    /// segments of `each` seconds. `2 × n_pairs × each` must equal the
    /// scenario duration.
    Alternating {
        /// Length of each segment.
        each: SimDuration,
        /// Number of static+walking pairs.
        n_pairs: usize,
    },
    /// An explicit segment schedule.
    Custom(Vec<MotionSegment>),
}

impl MotionSpec {
    /// Validate against the scenario `duration` (also reused per-client
    /// by [`crate::fleet::FleetSpec`] validation).
    pub(crate) fn validate(&self, duration: SimDuration) -> Result<(), ScenarioError> {
        let bad = |msg: String| Err(ScenarioError::BadMotion(msg));
        match self {
            MotionSpec::Stationary | MotionSpec::HalfAndHalf { .. } => Ok(()),
            MotionSpec::Walking { speed_mps, .. } | MotionSpec::Vehicle { speed_mps, .. } => {
                if !speed_mps.is_finite() || *speed_mps <= 0.0 {
                    return bad(format!(
                        "speed must be finite and positive, got {speed_mps}"
                    ));
                }
                Ok(())
            }
            MotionSpec::StaticMoveStatic { .. }
            | MotionSpec::Alternating { .. }
            | MotionSpec::Custom(_) => {
                if let MotionSpec::Alternating { n_pairs: 0, .. } = self {
                    return bad("alternating motion needs at least one pair".into());
                }
                if matches!(self, MotionSpec::Custom(segments) if segments.is_empty()) {
                    return bad("custom motion needs at least one segment".into());
                }
                // detlint::allow(PANIC001): the match arm above returns for every non-self-sizing variant
                let sum = self.implied_duration().expect("self-sizing variant");
                if sum != duration {
                    return bad(format!(
                        "motion segments sum to {sum}, duration is {duration}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// The total duration the variant itself implies: `Some` for the
    /// self-sizing shapes (`StaticMoveStatic`, `Alternating`, `Custom`),
    /// `None` for variants sized by the scenario duration. Validation
    /// requires an implied duration to equal the scenario duration, so
    /// use this (or [`ScenarioBuilder::motion_sized`]) instead of
    /// recomputing segment arithmetic at call sites.
    pub fn implied_duration(&self) -> Option<SimDuration> {
        match self {
            MotionSpec::StaticMoveStatic { lead, moving, tail } => Some(*lead + *moving + *tail),
            MotionSpec::Alternating { each, n_pairs } => Some(*each * (2 * *n_pairs as u64)),
            MotionSpec::Custom(segments) => Some(
                segments
                    .iter()
                    .fold(SimDuration::ZERO, |acc, s| acc + s.duration),
            ),
            _ => None,
        }
    }

    /// Compile to the ground-truth profile for a scenario of `duration`.
    pub fn profile(&self, duration: SimDuration) -> MotionProfile {
        match self {
            MotionSpec::Stationary => MotionProfile::stationary(duration),
            MotionSpec::Walking {
                speed_mps,
                heading_deg,
            } => MotionProfile::walking(duration, *speed_mps, *heading_deg),
            MotionSpec::Vehicle {
                speed_mps,
                heading_deg,
            } => MotionProfile::vehicle(duration, *speed_mps, *heading_deg),
            MotionSpec::HalfAndHalf { static_first } => {
                MotionProfile::half_and_half(duration / 2, *static_first)
            }
            MotionSpec::StaticMoveStatic { lead, moving, tail } => {
                MotionProfile::static_move_static(*lead, *moving, *tail)
            }
            MotionSpec::Alternating { each, n_pairs } => {
                MotionProfile::alternating(*each, *n_pairs)
            }
            MotionSpec::Custom(segments) => MotionProfile::new(segments.clone()),
        }
    }
}

/// How the movement-hint stream feeding the adapter is produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum HintSpec {
    /// No hint feed (hint-oblivious protocols only see frames/SNR).
    None,
    /// Ground truth delayed by a fixed latency (idealised detector).
    Oracle {
        /// Hint staleness.
        latency: SimDuration,
    },
    /// The full sensor pipeline: synthetic accelerometer → jerk detector.
    Sensors {
        /// Accelerometer-noise seed; `None` derives `seed ^ 0x5EED` from
        /// the scenario seed (the evaluation harness convention).
        seed: Option<u64>,
    },
}

impl HintSpec {
    /// Materialise the hint stream over `profile` (`None` for a
    /// hint-oblivious run). `sensor_seed` turns the spec's explicit
    /// accelerometer seed (if any) into the seed the detector runs on:
    /// a single-link scenario defaults to `seed ^ HINT_SEED_MASK`, and
    /// the fleet engine mixes the seed per client.
    pub fn stream(
        &self,
        profile: &MotionProfile,
        duration: SimDuration,
        sensor_seed: impl FnOnce(Option<u64>) -> u64,
    ) -> Option<HintStream> {
        match self {
            HintSpec::None => None,
            HintSpec::Oracle { latency } => Some(HintStream::oracle(profile, duration, *latency)),
            HintSpec::Sensors { seed } => Some(HintStream::from_sensors(
                profile,
                duration,
                sensor_seed(*seed),
            )),
        }
    }
}

/// Protocol selection **by name**, resolved to a [`ProtocolKind`] at
/// validation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ProtocolSpec {
    /// Protocol name (case-insensitive: `RapidSample`, `SampleRate`,
    /// `RRAA`, `RBAR`, `CHARM`, `HintAware`).
    pub name: String,
    /// SampleRate's averaging window (also the static arm of HintAware);
    /// ignored by protocols that don't take it.
    pub samplerate_window: SimDuration,
}

impl ProtocolSpec {
    /// A protocol by name with the default ten-second SampleRate window.
    pub fn named(name: impl Into<String>) -> Self {
        ProtocolSpec {
            name: name.into(),
            samplerate_window: ProtocolParams::default().samplerate_window,
        }
    }

    /// The construction parameters this spec selects.
    pub fn params(&self) -> ProtocolParams {
        ProtocolParams {
            samplerate_window: self.samplerate_window,
        }
    }

    /// The protocol this spec names, or an error listing every name that
    /// would have resolved.
    pub fn kind(&self) -> Result<ProtocolKind, ScenarioError> {
        ProtocolKind::from_name(&self.name).ok_or_else(|| ScenarioError::UnknownProtocol {
            name: self.name.clone(),
            known: ProtocolKind::ALL
                .iter()
                .map(|k| k.name().to_string())
                .collect(),
        })
    }
}

impl Default for ProtocolSpec {
    fn default() -> Self {
        ProtocolSpec::named("RapidSample")
    }
}

/// A complete, serializable description of one experiment.
///
/// All durations serialize as **integer microseconds** (the workspace's
/// native clock). See `EXPERIMENTS.md` for the JSON schema and the
/// `scenario_run` CLI that executes spec files.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Channel environment.
    pub environment: EnvironmentSpec,
    /// Ground-truth motion over the trace.
    pub motion: MotionSpec,
    /// Trace duration (microseconds in JSON).
    pub duration: SimDuration,
    /// Root seed: drives trace generation, link noise, and (by default)
    /// the sensor-hint pipeline.
    pub seed: u64,
    /// Traffic workload.
    pub workload: Workload,
    /// Rate-adaptation protocol, selected by name.
    pub protocol: ProtocolSpec,
    /// Movement-hint feed.
    pub hints: HintSpec,
    /// Link payload size, bytes: 1 to 802.11's 2304-byte MSDU limit.
    pub payload_bytes: u32,
    /// The AP's wired backhaul (rate / delay / queue depth). `None` —
    /// the default — is an ideal wire, the pre-backhaul behaviour; only
    /// a [`Workload::Flow`] ever crosses a configured backhaul (see
    /// [`LinkSimulator::with_backhaul`]).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub backhaul: Option<hint_cc::BackhaulSpec>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            environment: EnvironmentSpec::Office,
            motion: MotionSpec::Stationary,
            duration: SimDuration::from_secs(10),
            seed: 0,
            workload: Workload::Udp,
            protocol: ProtocolSpec::default(),
            hints: HintSpec::None,
            payload_bytes: 1000,
            backhaul: None,
        }
    }
}

impl ScenarioSpec {
    /// Start a builder with the default spec.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// Validate and compile.
    pub fn compile(&self) -> Result<Scenario, ScenarioError> {
        let protocol = self.validate()?;
        let environment = self.environment.resolve();
        let profile = self.motion.profile(self.duration);
        // Resolve a trace-file workload to inline records now, so the
        // compiled scenario never touches the filesystem at run time
        // (and a bad trace file fails here, with context, not mid-run).
        let workload = self
            .workload
            .resolve()
            .map_err(ScenarioError::BadWorkload)?;
        let trace = Trace::generate(&environment, &profile, self.duration, self.seed);
        let mut sim = LinkSimulator::from_trace(trace).with_payload(self.payload_bytes);
        let sensor_seed = |explicit: Option<u64>| explicit.unwrap_or(self.seed ^ HINT_SEED_MASK);
        if let Some(hints) = self.hints.stream(&profile, self.duration, sensor_seed) {
            sim = sim.with_owned_hints(hints);
        }
        if let Some(backhaul) = self.backhaul {
            sim = sim.with_backhaul(backhaul);
        }
        Ok(Scenario {
            spec: self.clone(),
            workload,
            environment,
            profile,
            protocol,
            sim,
        })
    }

    /// Validate without compiling, returning the protocol the spec
    /// names (cheap: no trace generation, no filesystem — a trace-file
    /// workload's contents are checked when [`ScenarioSpec::compile`]
    /// resolves them).
    pub fn validate(&self) -> Result<ProtocolKind, ScenarioError> {
        self.validate_shape()?;
        if !(1..=MAX_MSDU_BYTES).contains(&self.payload_bytes) {
            return Err(ScenarioError::BadPayload(self.payload_bytes));
        }
        self.workload
            .validate()
            .map_err(ScenarioError::BadWorkload)?;
        if let Some(b) = &self.backhaul {
            b.validate().map_err(ScenarioError::BadBackhaul)?;
        }
        self.protocol.kind()
    }

    /// Validate only the trace-shaping fields (environment is always
    /// valid by construction; duration and motion must agree) — the
    /// subset [`ScenarioBuilder::build_trace`] needs.
    fn validate_shape(&self) -> Result<(), ScenarioError> {
        if self.duration.is_zero() {
            return Err(ScenarioError::ZeroDuration);
        }
        self.motion.validate(self.duration)
    }

    /// Compile and run in one step.
    pub fn run(&self) -> Result<ScenarioOutcome, ScenarioError> {
        Ok(self.compile()?.run())
    }

    /// Serialize to compact JSON.
    pub fn to_json(&self) -> String {
        // detlint::allow(PANIC001): serializing an owned spec is infallible
        serde_json::to_string(self).expect("spec serialization cannot fail")
    }

    /// Serialize to pretty-printed JSON (the checked-in spec-file format).
    pub fn to_json_pretty(&self) -> String {
        // detlint::allow(PANIC001): serializing an owned spec is infallible
        serde_json::to_string_pretty(self).expect("spec serialization cannot fail")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<ScenarioSpec, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Write to a spec file as pretty JSON.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json_pretty() + "\n")
    }

    /// Load from a JSON spec file.
    ///
    /// A relative trace-workload path in the spec is rebased against the
    /// spec file's directory, so `scenario_run scenarios/foo.json` finds
    /// `scenarios/traces/...` from any working directory.
    pub fn load(path: &Path) -> io::Result<ScenarioSpec> {
        let s = std::fs::read_to_string(path)?;
        let mut spec = ScenarioSpec::from_json(&s)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if let Some(dir) = path.parent() {
            spec.workload.rebase(dir);
        }
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a spec failed to validate.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The duration is zero.
    ZeroDuration,
    /// `payload_bytes` is zero or above 802.11's MSDU limit
    /// ([`hint_mac::MAX_MSDU_BYTES`]); carries the rejected value.
    BadPayload(u32),
    /// The motion spec is inconsistent with the duration (message says
    /// how).
    BadMotion(String),
    /// The workload is degenerate (a TCP config that would hang the
    /// model, an empty or unloadable packet trace; message says which
    /// parameter and why).
    BadWorkload(String),
    /// The protocol name is not one of [`ProtocolKind::ALL`].
    UnknownProtocol {
        /// The unresolvable name.
        name: String,
        /// The canonical names that do resolve.
        known: Vec<String>,
    },
    /// The backhaul spec is degenerate (a zero-rate wire or a
    /// zero-capacity queue; message says which and why).
    BadBackhaul(String),
    /// A fleet spec is malformed (message says which field and why —
    /// empty client/AP lists, placement outside the environment bounds,
    /// bad handoff cadence, and so on; see [`crate::fleet::FleetSpec`]).
    BadFleet(String),
    /// The handoff policy name is not one the fleet engine knows.
    UnknownHandoffPolicy {
        /// The unresolvable name.
        name: String,
        /// The policy names that do exist.
        known: Vec<String>,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::ZeroDuration => write!(f, "scenario duration must be positive"),
            ScenarioError::BadPayload(bytes) => write!(
                f,
                "payload_bytes must be 1..={MAX_MSDU_BYTES} (the 802.11 MSDU limit), got {bytes}"
            ),
            ScenarioError::BadMotion(msg) => write!(f, "invalid motion spec: {msg}"),
            ScenarioError::BadWorkload(msg) => write!(f, "invalid workload: {msg}"),
            ScenarioError::BadBackhaul(msg) => write!(f, "invalid backhaul: {msg}"),
            ScenarioError::UnknownProtocol { name, known } => write!(
                f,
                "unknown protocol `{name}` (one of: {})",
                known.join(", ")
            ),
            ScenarioError::BadFleet(msg) => write!(f, "invalid fleet spec: {msg}"),
            ScenarioError::UnknownHandoffPolicy { name, known } => write!(
                f,
                "unknown handoff policy `{name}` (known: {})",
                known.join(", ")
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Validating fluent construction of [`ScenarioSpec`]s and compiled
/// [`Scenario`]s.
///
/// Defaults: office environment, stationary motion, 10 s, seed 0,
/// saturated UDP, RapidSample, no hints, 1000-byte payload.
#[derive(Clone, Debug, Default)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// A builder holding the default spec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the channel environment.
    pub fn environment(mut self, env: EnvironmentSpec) -> Self {
        self.spec.environment = env;
        self
    }

    /// Select the ground-truth motion.
    pub fn motion(mut self, motion: MotionSpec) -> Self {
        self.spec.motion = motion;
        self
    }

    /// Select a self-sizing motion variant (`StaticMoveStatic`,
    /// `Alternating`, `Custom`) and set the scenario duration to the
    /// duration it implies, so the two cannot drift apart. For variants
    /// without an implied duration the duration is left unchanged.
    pub fn motion_sized(mut self, motion: MotionSpec) -> Self {
        if let Some(d) = motion.implied_duration() {
            self.spec.duration = d;
        }
        self.spec.motion = motion;
        self
    }

    /// Set the trace duration.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.spec.duration = duration;
        self
    }

    /// Set the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Select the traffic workload.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.spec.workload = workload;
        self
    }

    /// Put a wired backhaul between the sender and the radio link.
    /// Only closed-loop ([`Workload::Flow`]) traffic crosses the wire;
    /// open-loop workloads ignore it.
    pub fn backhaul(mut self, backhaul: hint_cc::BackhaulSpec) -> Self {
        self.spec.backhaul = Some(backhaul);
        self
    }

    /// Select the protocol by name (default SampleRate window).
    pub fn protocol(mut self, name: impl Into<String>) -> Self {
        self.spec.protocol = ProtocolSpec::named(name);
        self
    }

    /// Override SampleRate's averaging window.
    pub fn samplerate_window(mut self, window: SimDuration) -> Self {
        self.spec.protocol.samplerate_window = window;
        self
    }

    /// Select the hint feed.
    pub fn hints(mut self, hints: HintSpec) -> Self {
        self.spec.hints = hints;
        self
    }

    /// Ground-truth hints delayed by `latency`.
    pub fn oracle_hints(self, latency: SimDuration) -> Self {
        self.hints(HintSpec::Oracle { latency })
    }

    /// Full sensor-pipeline hints with the derived default seed.
    pub fn sensor_hints(self) -> Self {
        self.hints(HintSpec::Sensors { seed: None })
    }

    /// Full sensor-pipeline hints with an explicit seed.
    pub fn sensor_hints_seeded(self, seed: u64) -> Self {
        self.hints(HintSpec::Sensors { seed: Some(seed) })
    }

    /// Override the link payload size.
    pub fn payload_bytes(mut self, bytes: u32) -> Self {
        self.spec.payload_bytes = bytes;
        self
    }

    /// The spec built so far (not yet validated).
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Consume the builder, returning the spec (not yet validated).
    pub fn into_spec(self) -> ScenarioSpec {
        self.spec
    }

    /// Validate and compile.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        self.spec.compile()
    }

    /// Validate environment/motion/duration and generate just the channel
    /// trace — the entry point for experiments (topology probing, link
    /// analysis) that consume the trace artifact directly rather than
    /// running a rate-adaptation protocol over it.
    pub fn build_trace(self) -> Result<Trace, ScenarioError> {
        let spec = self.spec;
        spec.validate_shape()?;
        let environment = spec.environment.resolve();
        let profile = spec.motion.profile(spec.duration);
        Ok(Trace::generate(
            &environment,
            &profile,
            spec.duration,
            spec.seed,
        ))
    }
}

// ---------------------------------------------------------------------------
// Compiled scenario + outcome
// ---------------------------------------------------------------------------

/// A compiled, runnable scenario. Owns its generated trace and hint
/// stream (nothing borrows from caller storage), so it can be moved to a
/// worker thread or kept alive across a whole sweep.
pub struct Scenario {
    spec: ScenarioSpec,
    /// The spec's workload with any trace-file source resolved inline.
    workload: Workload,
    environment: Environment,
    profile: MotionProfile,
    protocol: ProtocolKind,
    sim: LinkSimulator<'static>,
}

impl Scenario {
    /// The spec this scenario was compiled from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The resolved environment.
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// The compiled ground-truth motion profile.
    pub fn profile(&self) -> &MotionProfile {
        &self.profile
    }

    /// The generated channel trace.
    pub fn trace(&self) -> &Trace {
        self.sim.trace()
    }

    /// The generated hint stream, if the spec asked for one.
    pub fn hints(&self) -> Option<&HintStream> {
        self.sim.hint_stream()
    }

    /// The canonical name of the selected protocol.
    pub fn protocol_name(&self) -> &str {
        self.protocol.name()
    }

    /// Run the spec's protocol over the trace. Every call builds a fresh
    /// adapter and re-seeds the link-noise stream, so repeated runs are
    /// bit-identical.
    pub fn run(&self) -> ScenarioOutcome {
        let mut adapter = self.protocol.build(&self.spec.protocol.params());
        let result = self.run_with(adapter.as_mut());
        ScenarioOutcome {
            environment: self.environment.name.clone(),
            protocol: self.protocol.name().to_string(),
            seed: self.spec.seed,
            result,
        }
    }

    /// Run a caller-supplied adapter over the same trace/hints/workload —
    /// the sweep entry point (one compiled scenario, many protocols), and
    /// the escape hatch for adapters configured beyond what
    /// [`ProtocolParams`] expresses.
    pub fn run_with(&self, adapter: &mut dyn RateAdapter) -> SimResult {
        self.sim.run(adapter, &self.workload)
    }

    /// Like [`Scenario::run`], additionally returning the delivered-packet
    /// trace (one `s` record per delivered packet at its send-start
    /// time). The trace is what `scenario_run --record PATH` writes, and
    /// it replays via [`crate::Workload::trace`] /
    /// [`crate::Workload::trace_file`].
    pub fn run_recording(&self) -> (ScenarioOutcome, crate::trace::PacketTrace) {
        let mut adapter = self.protocol.build(&self.spec.protocol.params());
        let (result, trace) = self.sim.run_recording(adapter.as_mut(), &self.workload);
        (
            ScenarioOutcome {
                environment: self.environment.name.clone(),
                protocol: self.protocol.name().to_string(),
                seed: self.spec.seed,
                result,
            },
            trace,
        )
    }
}

/// The unified result of one scenario run: goodput, delivery, rate usage
/// and the per-second delivery series, plus identifying metadata.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Environment name the trace was generated in.
    pub environment: String,
    /// Canonical protocol name that ran.
    pub protocol: String,
    /// The scenario seed (provenance).
    pub seed: u64,
    /// Full simulation result (goodput, delivery counts, per-rate usage,
    /// per-second delivered series).
    pub result: SimResult,
}

impl ScenarioOutcome {
    /// Goodput in Mbit/s.
    pub fn goodput_mbps(&self) -> f64 {
        self.result.goodput_mbps()
    }

    /// Link-level delivery ratio across attempts.
    pub fn delivery_ratio(&self) -> f64 {
        self.result.attempt_delivery_ratio()
    }

    /// Serialize to pretty JSON (the `scenario_run --json` format).
    pub fn to_json_pretty(&self) -> String {
        // detlint::allow(PANIC001): serializing an owned outcome is infallible
        serde_json::to_string_pretty(self).expect("outcome serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hint_sim::SimTime;

    #[test]
    fn builder_defaults_compile_and_run() {
        let scenario = ScenarioBuilder::new()
            .duration(SimDuration::from_secs(2))
            .seed(9)
            .build()
            .expect("defaults are valid");
        assert_eq!(scenario.protocol_name(), "RapidSample");
        assert_eq!(scenario.trace().len(), 400);
        assert!(scenario.hints().is_none());
        let outcome = scenario.run();
        assert_eq!(outcome.environment, "office");
        assert!(outcome.result.goodput_bps > 0.0);
    }

    #[test]
    fn spec_run_matches_hand_built_pipeline_bit_identically() {
        // The determinism contract: a spec-driven run IS the hand-built
        // pipeline with the same seeds.
        let duration = SimDuration::from_secs(4);
        let seed = 77;
        let spec = ScenarioBuilder::new()
            .environment(EnvironmentSpec::Hallway)
            .motion(MotionSpec::HalfAndHalf { static_first: true })
            .duration(duration)
            .seed(seed)
            .workload(Workload::tcp())
            .protocol("HintAware")
            .sensor_hints()
            .into_spec();
        let outcome = spec.run().expect("valid");

        let env = Environment::hallway();
        let profile = MotionProfile::half_and_half(duration / 2, true);
        let trace = Trace::generate(&env, &profile, duration, seed);
        let hints = HintStream::from_sensors(&profile, duration, seed ^ HINT_SEED_MASK);
        let mut adapter = crate::protocols::HintAware::new();
        let hand = LinkSimulator::new(&trace)
            .with_hints(&hints)
            .run(&mut adapter, &Workload::tcp());

        assert_eq!(outcome.result, hand);
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let scenario = ScenarioBuilder::new()
            .motion(MotionSpec::Walking {
                speed_mps: 1.4,
                heading_deg: 0.0,
            })
            .duration(SimDuration::from_secs(3))
            .seed(5)
            .oracle_hints(SimDuration::from_millis(100))
            .protocol("hintaware")
            .build()
            .expect("valid");
        assert_eq!(scenario.run().result, scenario.run().result);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let zero = ScenarioBuilder::new().duration(SimDuration::ZERO).build();
        assert_eq!(zero.err(), Some(ScenarioError::ZeroDuration));

        let unknown = ScenarioBuilder::new().protocol("warpdrive").build();
        assert!(matches!(
            unknown.err(),
            Some(ScenarioError::UnknownProtocol { name, .. }) if name == "warpdrive"
        ));

        let bad_sum = ScenarioBuilder::new()
            .motion(MotionSpec::Alternating {
                each: SimDuration::from_secs(3),
                n_pairs: 2,
            })
            .duration(SimDuration::from_secs(10))
            .build();
        assert!(matches!(bad_sum.err(), Some(ScenarioError::BadMotion(_))));

        // Custom segments must also sum to the duration — a spec must
        // not silently run different motion than it declares.
        let short_custom = ScenarioBuilder::new()
            .motion(MotionSpec::Custom(
                MotionProfile::stationary(SimDuration::from_secs(5))
                    .segments()
                    .to_vec(),
            ))
            .duration(SimDuration::from_secs(60))
            .build();
        assert!(matches!(
            short_custom.err(),
            Some(ScenarioError::BadMotion(_))
        ));

        // The message names the input and every protocol, in table order.
        assert_eq!(
            ProtocolSpec::named("warpdrive")
                .kind()
                .unwrap_err()
                .to_string(),
            "unknown protocol `warpdrive` (one of: HintAware, RapidSample, SampleRate, \
             RRAA, RBAR, CHARM)"
        );
        assert_eq!(ProtocolSpec::named("charm").kind(), Ok(ProtocolKind::Charm));

        let bad_speed = ScenarioBuilder::new()
            .motion(MotionSpec::Walking {
                speed_mps: -1.0,
                heading_deg: 0.0,
            })
            .build();
        assert!(matches!(bad_speed.err(), Some(ScenarioError::BadMotion(_))));
    }

    #[test]
    fn build_trace_matches_direct_generation() {
        let trace = ScenarioBuilder::new()
            .environment(EnvironmentSpec::MeshEdge)
            .motion(MotionSpec::StaticMoveStatic {
                lead: SimDuration::from_secs(1),
                moving: SimDuration::from_secs(2),
                tail: SimDuration::from_secs(1),
            })
            .duration(SimDuration::from_secs(4))
            .seed(41)
            .build_trace()
            .expect("valid");
        let profile = MotionProfile::static_move_static(
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
        );
        let direct = Trace::generate(
            &Environment::mesh_edge(),
            &profile,
            SimDuration::from_secs(4),
            41,
        );
        assert_eq!(trace.slots, direct.slots);
        assert_eq!(trace.environment, direct.environment);
    }

    #[test]
    fn motion_sized_derives_duration_from_self_sizing_variants() {
        let motion = MotionSpec::Alternating {
            each: SimDuration::from_secs(4),
            n_pairs: 3,
        };
        assert_eq!(motion.implied_duration(), Some(SimDuration::from_secs(24)));
        let builder = ScenarioBuilder::new().motion_sized(motion);
        assert_eq!(builder.spec().duration, SimDuration::from_secs(24));
        // Builder-derived durations always validate.
        assert!(builder.build().is_ok());

        // Duration-sized variants leave the duration untouched.
        let builder = ScenarioBuilder::new()
            .duration(SimDuration::from_secs(7))
            .motion_sized(MotionSpec::Stationary);
        assert_eq!(builder.spec().duration, SimDuration::from_secs(7));
        assert_eq!(MotionSpec::Stationary.implied_duration(), None);
    }

    #[test]
    fn custom_motion_round_trips_through_profile() {
        let profile = MotionProfile::alternating(SimDuration::from_secs(1), 2);
        let spec = MotionSpec::Custom(profile.segments().to_vec());
        let rebuilt = spec.profile(SimDuration::from_secs(4));
        assert_eq!(rebuilt.segments(), profile.segments());
        assert!(!rebuilt.is_moving_at(SimTime::ZERO));
    }

    #[test]
    fn environment_names_resolve() {
        for (name, display) in [
            ("office", "office"),
            ("hallway", "hallway"),
            ("outdoor", "outdoor"),
            ("vehicular", "vehicular"),
            ("mesh-edge", "mesh-edge"),
        ] {
            let env = EnvironmentSpec::from_name(name).expect("known").resolve();
            assert_eq!(env.name, display);
        }
        assert_eq!(EnvironmentSpec::from_name("moonbase"), None);
    }

    #[test]
    fn degenerate_tcp_workload_fails_validation_not_the_run() {
        // The historical hang: this spec deserialized fine and then spun
        // the open-loop TCP run forever. It must now be a validation error.
        use crate::workload::TcpConfig;
        let spec = ScenarioBuilder::new()
            .workload(Workload::Tcp(TcpConfig {
                rtt: SimDuration::ZERO,
                rto: SimDuration::ZERO,
                rto_max: SimDuration::ZERO,
                link_attempts: 0,
                cwnd_cap: 0.0,
            }))
            .into_spec();
        let err = spec.run().expect_err("degenerate TCP must be rejected");
        match &err {
            ScenarioError::BadWorkload(msg) => {
                assert!(msg.contains("link_attempts"), "{msg}")
            }
            other => panic!("expected BadWorkload, got {other:?}"),
        }
        assert!(err.to_string().contains("invalid workload"));
    }

    #[test]
    fn record_then_replay_is_deterministic() {
        let spec = ScenarioBuilder::new()
            .duration(SimDuration::from_secs(3))
            .seed(21)
            .sensor_hints()
            .into_spec();
        let scenario = spec.compile().expect("valid");
        let (outcome, trace) = scenario.run_recording();
        // Recording must not perturb the run itself.
        assert_eq!(outcome, scenario.run());
        assert_eq!(trace.len() as u64, outcome.result.packets_delivered);

        // Replaying the recorded trace through the same channel is
        // deterministic and offers exactly the recorded packets.
        let replay_spec = ScenarioSpec {
            workload: Workload::trace(trace.clone()),
            ..spec
        };
        let a = replay_spec.run().expect("valid");
        let b = replay_spec.run().expect("valid");
        assert_eq!(a, b);
        // Each recorded packet is offered at most once (the replay's own
        // serialisation may clip tail records at the trace end).
        assert!(a.result.packets_sent <= trace.send_count() as u64);
        assert!(a.result.packets_sent > 0);
    }

    #[test]
    fn trace_workload_path_rebases_on_load() {
        let dir = std::env::temp_dir().join("rateadapt-scn-rebase-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let trace_path = dir.join("pkts.txt");
        std::fs::write(&trace_path, "0,s,1000\n500,s,1000\n").expect("trace");
        let spec_path = dir.join("spec.json");
        let spec = ScenarioBuilder::new()
            .duration(SimDuration::from_secs(1))
            .workload(Workload::trace_file("pkts.txt"))
            .into_spec();
        spec.save(&spec_path).expect("save");

        let loaded = ScenarioSpec::load(&spec_path).expect("load");
        // The relative path now points inside the spec's directory…
        match &loaded.workload {
            Workload::Trace(crate::workload::TraceSource::Path(p)) => {
                assert!(p.ends_with("pkts.txt") && p.len() > "pkts.txt".len(), "{p}")
            }
            other => panic!("expected trace path workload, got {other:?}"),
        }
        // …so compiling resolves and runs it from any cwd.
        let outcome = loaded.run().expect("replayable");
        assert_eq!(outcome.result.packets_sent, 2);
    }
}
