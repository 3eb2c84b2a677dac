//! Fleet specs — the multi-client, multi-AP extension of the Scenario
//! API.
//!
//! A [`FleetSpec`] describes N mobile clients sharing M access points on
//! a 2-D floor plan: per-client start position, motion and workload; AP
//! placement and coverage; a handoff policy selected **by name** (so a
//! JSON spec can switch between the paper's signal-strength baseline and
//! the hint-aware policies without new Rust); and the shared channel
//! environment, protocol, hint feed and seed inherited from the
//! single-link [`crate::scenario::ScenarioSpec`] vocabulary.
//!
//! This module owns the plain-data layer only: the spec types, their
//! validation (every malformed fleet fails with an actionable
//! [`ScenarioError`]), and the [`FleetOutcome`] result types. The engine that compiles and runs a fleet lives in the
//! `sensor-hints` crate (`sensor_hints::fleet`), because it drives the
//! AP association/disassociation policies (`hint-ap`) and the spatial AP
//! index (`hint-topology`) that sit above this crate in the dependency
//! graph.
//!
//! Like every scenario, a fleet is deterministic: same spec + same seed
//! ⇒ byte-identical [`FleetOutcome`], regardless of how many worker
//! threads the surrounding battery uses.

use crate::protocols::ProtocolKind;
use crate::scenario::{
    EnvironmentSpec, HintSpec, MotionSpec, ProtocolSpec, ScenarioError, ScenarioOutcome,
};
use crate::sim::is_zero;
use crate::workload::Workload;
use hint_cc::BackhaulSpec;
use hint_mac::MAX_MSDU_BYTES;
use hint_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

// ---------------------------------------------------------------------------
// Spec types
// ---------------------------------------------------------------------------

/// The rectangular floor plan the fleet lives on: `[0, width] × [0,
/// height]` metres, origin at the south-west corner. AP placement and
/// client start positions must fall inside it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetBounds {
    /// East–west extent, metres.
    pub width_m: f64,
    /// North–south extent, metres.
    pub height_m: f64,
}

impl FleetBounds {
    /// True when `(x, y)` lies inside the floor plan.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        (0.0..=self.width_m).contains(&x) && (0.0..=self.height_m).contains(&y)
    }
}

/// One access point's placement and usable coverage radius.
///
/// Serialized with `backhaul` sparse (omitted when `None`), so every
/// pre-backhaul spec file and golden outcome stays byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ApPlacement {
    /// Metres east of the origin.
    pub x_m: f64,
    /// Metres north of the origin.
    pub y_m: f64,
    /// Usable coverage radius, metres (association beyond it is
    /// impossible; link quality degrades toward it).
    pub coverage_m: f64,
    /// The AP's wired backhaul (rate / delay / queue depth). `None` —
    /// the default — is an ideal wire, the pre-backhaul behaviour; only
    /// `Workload::Flow` clients ever cross a configured backhaul (see
    /// [`crate::sim::LinkSimulator::with_backhaul`]).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub backhaul: Option<BackhaulSpec>,
}

/// One client's script: where it starts and how it moves and loads the
/// network. Protocol, hint feed and payload are fleet-wide (the paper
/// evaluates homogeneous deployments); motion and workload are the
/// per-client degrees of freedom.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetClientSpec {
    /// Start position, metres east of the origin.
    pub start_x_m: f64,
    /// Start position, metres north of the origin.
    pub start_y_m: f64,
    /// Ground-truth motion over the run (headings move the client across
    /// the floor plan — this is what drives handoffs).
    pub motion: MotionSpec,
    /// This client's traffic workload.
    pub workload: Workload,
}

/// Association/handoff policies, selectable **by name** in specs.
///
/// ```
/// use hint_rateadapt::fleet::{HandoffPolicy, HANDOFF_POLICY_NAMES};
///
/// // Names are case-insensitive and `_`/`-` interchangeable.
/// assert_eq!(
///     HandoffPolicy::from_name("Hint_Aware"),
///     Some(HandoffPolicy::HintAware),
/// );
/// assert_eq!(HandoffPolicy::from_name("teleport"), None);
/// // Every canonical name parses back to itself.
/// for name in HANDOFF_POLICY_NAMES {
///     assert_eq!(HandoffPolicy::from_name(name).unwrap().name(), name);
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandoffPolicy {
    /// Associate with the strongest signal; hand off when another AP is
    /// stronger by the hysteresis margin (today's default, the paper's
    /// baseline).
    StrongestSignal,
    /// Score candidates by predicted association lifetime from the
    /// movement hint (Sec. 5.2.1); hand off when a candidate's dwell
    /// clears the margin.
    HintAware,
}

/// The names [`HandoffPolicy::from_name`] accepts, in canonical form.
pub const HANDOFF_POLICY_NAMES: [&str; 2] = ["strongest-signal", "hint-aware"];

impl HandoffPolicy {
    /// Parse a policy by its CLI/JSON name (case-insensitive; `_` and
    /// `-` are interchangeable).
    pub fn from_name(name: &str) -> Option<HandoffPolicy> {
        match name.to_ascii_lowercase().replace('_', "-").as_str() {
            "strongest-signal" | "signal" => Some(HandoffPolicy::StrongestSignal),
            "hint-aware" => Some(HandoffPolicy::HintAware),
            _ => None,
        }
    }

    /// The canonical spec/outcome name.
    pub fn name(&self) -> &'static str {
        match self {
            HandoffPolicy::StrongestSignal => "strongest-signal",
            HandoffPolicy::HintAware => "hint-aware",
        }
    }
}

/// How and when clients re-evaluate their association.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct HandoffSpec {
    /// Policy name (see [`HANDOFF_POLICY_NAMES`]).
    pub policy: String,
    /// How often each client scans and re-evaluates (microseconds in
    /// JSON).
    pub scan_interval: SimDuration,
    /// Hysteresis margin in the policy's score units (dB for
    /// `strongest-signal`, seconds of predicted dwell for `hint-aware`):
    /// a candidate must beat the current AP by this much before a
    /// handoff is worth its cost.
    pub hysteresis: f64,
    /// Link downtime per handoff (scan + auth + reassociation).
    pub reassociation_cost: SimDuration,
}

impl Default for HandoffSpec {
    fn default() -> Self {
        HandoffSpec {
            policy: "strongest-signal".to_string(),
            scan_interval: SimDuration::from_secs(1),
            hysteresis: 3.0,
            reassociation_cost: SimDuration::from_millis(50),
        }
    }
}

/// How co-associated clients treat their AP's medium.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContentionMode {
    /// Every association span runs an independent per-link simulation —
    /// per-AP throughput is additive in clients (the pre-contention
    /// behaviour; existing outcomes stay byte-identical).
    Isolated,
    /// Clients associated to one AP contend for its airtime through the
    /// CSMA/CA arbiter (`hint_mac::contention`): DIFS + slotted backoff,
    /// collisions, and retry accounting split the epoch, so per-AP
    /// aggregate throughput saturates as clients are added.
    Shared,
}

/// The names [`ContentionMode::from_name`] accepts, in canonical form.
pub const CONTENTION_MODE_NAMES: [&str; 2] = ["isolated", "shared"];

/// Largest supported fleet duration: 24 simulated hours. Far beyond any
/// checked-in scenario, small enough that the engine's per-second
/// accumulators and `SimTime` arithmetic can never overflow on a
/// malformed-but-parseable duration.
pub const MAX_FLEET_DURATION: SimDuration = SimDuration::from_secs(86_400);

impl ContentionMode {
    /// Parse a mode by its JSON name (case-insensitive).
    pub fn from_name(name: &str) -> Option<ContentionMode> {
        match name.to_ascii_lowercase().as_str() {
            "isolated" => Some(ContentionMode::Isolated),
            "shared" => Some(ContentionMode::Shared),
            _ => None,
        }
    }

    /// The canonical spec/outcome name.
    pub fn name(&self) -> &'static str {
        match self {
            ContentionMode::Isolated => "isolated",
            ContentionMode::Shared => "shared",
        }
    }
}

/// The shared-medium model of a fleet: whether co-associated clients
/// contend for their AP's airtime.
///
/// A spec file says `"medium": {"contention": "shared"}` to get 802.11a
/// DCF contention ([`hint_mac::contention::ContentionParams::ieee80211a`]).
/// The field itself is optional on [`FleetSpec`], and absent specs
/// (every pre-contention spec file) default to `isolated`, which
/// reproduces the previous engine behaviour byte-identically.
///
/// ```
/// use hint_rateadapt::fleet::{ContentionMode, MediumSpec};
///
/// // The default medium is isolated (per-link simulation, additive
/// // throughput); `shared()` turns on 802.11a DCF contention.
/// assert!(MediumSpec::isolated().is_default());
/// let shared = MediumSpec::shared();
/// assert!(!shared.is_default());
/// assert_eq!(shared.contention, "shared");
/// assert_eq!(shared.validate(), Ok(ContentionMode::Shared));
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MediumSpec {
    /// Contention mode by name (see [`CONTENTION_MODE_NAMES`]).
    pub contention: String,
}

impl Default for MediumSpec {
    fn default() -> Self {
        MediumSpec::isolated()
    }
}

impl MediumSpec {
    /// The default medium: isolated per-link simulation (today's
    /// behaviour; per-AP throughput is additive in clients).
    pub fn isolated() -> Self {
        MediumSpec {
            contention: ContentionMode::Isolated.name().to_string(),
        }
    }

    /// A shared medium with standard 802.11a DCF parameters.
    pub fn shared() -> Self {
        MediumSpec {
            contention: ContentionMode::Shared.name().to_string(),
        }
    }

    /// True when this is exactly the default (isolated) medium — used to
    /// keep pre-contention spec files serializing without a `medium`
    /// field.
    pub fn is_default(&self) -> bool {
        *self == MediumSpec::default()
    }

    /// Validate the medium, returning the contention mode it names, or
    /// an actionable message listing the known modes.
    pub fn validate(&self) -> Result<ContentionMode, String> {
        ContentionMode::from_name(&self.contention).ok_or_else(|| {
            format!(
                "unknown medium contention mode `{}` (known: {})",
                self.contention,
                CONTENTION_MODE_NAMES.join(", ")
            )
        })
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One AP's failure window: during `[start, start + duration)` the AP
/// is down — it accepts no associations, appears in no scan, and evicts
/// every client associated to it at the window start (counted as a
/// forced disassociation).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ApOutage {
    /// AP index in the spec's `aps` list.
    pub ap: usize,
    /// Offset from the run start (microseconds in JSON).
    pub start: SimDuration,
    /// Window length (microseconds in JSON).
    pub duration: SimDuration,
}

/// One client's sensor-failure window: during `[start, start +
/// duration)` the client's hint pipeline is broken. Hint queries return
/// **stale-then-none**: for the first [`STALE_HINT_HOLD`] the last
/// pre-dropout reading is served (the detector hasn't noticed yet),
/// after which hints are unavailable and the hint-aware handoff
/// policies fall back to legacy RSSI scoring until the stream recovers.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct HintDropout {
    /// Client index in the spec's `clients` list.
    pub client: usize,
    /// Offset from the run start (microseconds in JSON).
    pub start: SimDuration,
    /// Window length (microseconds in JSON).
    pub duration: SimDuration,
}

/// One client's radio failure window: during `[start, start +
/// duration)` the client's radio is off — its association drops (the AP
/// sees a silent departure), it performs no scans, and it moves no
/// traffic until the window ends.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RadioBlackout {
    /// Client index in the spec's `clients` list.
    pub client: usize,
    /// Offset from the run start (microseconds in JSON).
    pub start: SimDuration,
    /// Window length (microseconds in JSON).
    pub duration: SimDuration,
}

/// How long a broken hint stream keeps serving its last pre-dropout
/// reading before queries start returning nothing (the stale phase of
/// the stale-then-none dropout model).
pub const STALE_HINT_HOLD: SimDuration = SimDuration::from_secs(2);

/// The fault schedule of a fleet: deterministic AP outages, per-client
/// hint dropouts, and per-client radio blackouts. Every field is
/// sparse/optional; the default (empty) schedule is skipped in JSON
/// entirely, and an engine run with an empty schedule is
/// **byte-identical** to one with no `faults` key at all.
///
/// ```
/// use hint_rateadapt::fleet::{ApOutage, FaultSpec};
/// use hint_sim::SimDuration;
///
/// let mut f = FaultSpec::default();
/// assert!(f.is_default());
/// f.ap_outages.push(ApOutage {
///     ap: 0,
///     start: SimDuration::from_secs(5),
///     duration: SimDuration::from_secs(3),
/// });
/// assert!(!f.is_default());
/// assert!(f.validate(1, 1, SimDuration::from_secs(30)).is_ok());
/// // Out-of-range AP indices are rejected with an actionable message.
/// assert!(f
///     .validate(0, 1, SimDuration::from_secs(30))
///     .unwrap_err()
///     .contains("ap_outages[0]"));
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultSpec {
    /// Hand-written AP failure windows.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub ap_outages: Vec<ApOutage>,
    /// Per-client sensor-failure windows.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub hint_dropouts: Vec<HintDropout>,
    /// Per-client radio-off windows.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub radio_blackouts: Vec<RadioBlackout>,
    /// When `true` (the default), hint policies fall back to legacy
    /// RSSI scoring while a client's hints are dropped out. `false`
    /// models a naive hint-trusting client that keeps acting on its
    /// stale pre-dropout reading for the whole window (the ablation
    /// `fig_resilience` compares against).
    #[serde(default = "default_true", skip_serializing_if = "is_true")]
    pub hint_fallback: bool,
}

fn default_true() -> bool {
    true
}

fn is_true(b: &bool) -> bool {
    *b
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            ap_outages: Vec::new(),
            hint_dropouts: Vec::new(),
            radio_blackouts: Vec::new(),
            hint_fallback: true,
        }
    }
}

impl FaultSpec {
    /// True when this is exactly the default (no faults, fallback on)
    /// schedule — used to keep fault-free spec files serializing
    /// without a `faults` field.
    pub fn is_default(&self) -> bool {
        *self == FaultSpec::default()
    }

    /// Validate the schedule against the fleet shape, returning an
    /// actionable message for the first inconsistency. Every window
    /// must name an in-range AP/client, last at least 1 µs, and start
    /// before the run ends.
    pub fn validate(
        &self,
        n_aps: usize,
        n_clients: usize,
        run_duration: SimDuration,
    ) -> Result<(), String> {
        let check_window = |what: String, start: SimDuration, dur: SimDuration| {
            if dur.is_zero() {
                return Err(format!(
                    "fault {what} has zero duration; a fault window must last at least 1 us"
                ));
            }
            if start >= run_duration {
                return Err(format!(
                    "fault {what} starts at {start}, at or past the run end {run_duration}"
                ));
            }
            Ok(())
        };
        for (i, o) in self.ap_outages.iter().enumerate() {
            if o.ap >= n_aps {
                return Err(format!(
                    "fault ap_outages[{i}] names AP {}, but the fleet has {n_aps} APs \
                     (valid indices: 0..={})",
                    o.ap,
                    n_aps.saturating_sub(1)
                ));
            }
            check_window(format!("ap_outages[{i}]"), o.start, o.duration)?;
        }
        for (i, d) in self.hint_dropouts.iter().enumerate() {
            if d.client >= n_clients {
                return Err(format!(
                    "fault hint_dropouts[{i}] names client {}, but the fleet has \
                     {n_clients} clients (valid indices: 0..={})",
                    d.client,
                    n_clients.saturating_sub(1)
                ));
            }
            check_window(format!("hint_dropouts[{i}]"), d.start, d.duration)?;
        }
        for (i, b) in self.radio_blackouts.iter().enumerate() {
            if b.client >= n_clients {
                return Err(format!(
                    "fault radio_blackouts[{i}] names client {}, but the fleet has \
                     {n_clients} clients (valid indices: 0..={})",
                    b.client,
                    n_clients.saturating_sub(1)
                ));
            }
            check_window(format!("radio_blackouts[{i}]"), b.start, b.duration)?;
        }
        Ok(())
    }
}

/// Normalize a list of half-open `(start, end)` time windows: empty
/// windows drop, the rest sort by start, and overlapping **or
/// adjacent** windows coalesce into their envelope. The result is the
/// canonical form of the schedule — sorted, pairwise disjoint,
/// non-adjacent — and depends only on the *set* of input windows, not
/// their order (the property `faults.rs` pins), so every engine query
/// against it is deterministic.
pub fn normalize_windows(mut windows: Vec<(SimTime, SimTime)>) -> Vec<(SimTime, SimTime)> {
    windows.retain(|(s, e)| e > s);
    windows.sort();
    let mut out: Vec<(SimTime, SimTime)> = Vec::with_capacity(windows.len());
    for (s, e) in windows {
        match out.last_mut() {
            // `s <= last end` merges touching windows too: [1,2) + [2,3)
            // is one [1,3) spell, not two back-to-back ones.
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// A complete, serializable description of one multi-client fleet
/// experiment. Durations serialize as integer microseconds, like every
/// scenario field (schema: EXPERIMENTS.md, "Fleet spec files").
///
/// Write one as a struct literal over `..FleetSpec::default()` (which has
/// no APs or clients, so it does not validate on its own); the spec is
/// the whole experiment, so an equal spec replays an identical outcome:
///
/// ```
/// use hint_rateadapt::fleet::{ApPlacement, FleetClientSpec, FleetSpec, HandoffSpec};
/// use hint_rateadapt::scenario::MotionSpec;
/// use hint_rateadapt::Workload;
/// use hint_sim::SimDuration;
///
/// let ap = |x_m| ApPlacement { x_m, y_m: 50.0, coverage_m: 70.0, backhaul: None };
/// let spec = FleetSpec {
///     aps: vec![ap(40.0), ap(160.0)],
///     clients: vec![FleetClientSpec {
///         start_x_m: 5.0,
///         start_y_m: 50.0,
///         motion: MotionSpec::Walking { speed_mps: 1.5, heading_deg: 90.0 },
///         workload: Workload::Udp,
///     }],
///     duration: SimDuration::from_secs(30),
///     seed: 7,
///     handoff: HandoffSpec { policy: "hint-aware".into(), ..HandoffSpec::default() },
///     ..FleetSpec::default()
/// };
/// spec.validate().expect("a well-formed fleet");
/// // The JSON form round-trips exactly — spec files ARE the experiment.
/// let reparsed = FleetSpec::from_json(&spec.to_json_pretty()).unwrap();
/// assert_eq!(reparsed, spec);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetSpec {
    /// Shared channel environment (per-link SNR statistics; the fleet
    /// engine offsets the mean per link by AP distance).
    pub environment: EnvironmentSpec,
    /// Floor-plan bounds; APs and client starts must lie inside.
    pub bounds: FleetBounds,
    /// Access points.
    pub aps: Vec<ApPlacement>,
    /// Mobile clients.
    pub clients: Vec<FleetClientSpec>,
    /// Run length (microseconds in JSON).
    pub duration: SimDuration,
    /// Root seed; per-client and per-association-span streams derive
    /// from it, so the whole fleet is replayable from this one number.
    pub seed: u64,
    /// Rate-adaptation protocol every client runs, by name.
    pub protocol: ProtocolSpec,
    /// Movement-hint feed (gates rate adaptation *and* handoff: with
    /// `None`, the hint policies degrade to signal-strength behaviour).
    pub hints: HintSpec,
    /// Association/handoff policy and cadence.
    pub handoff: HandoffSpec,
    /// Shared-medium model: whether co-associated clients contend for
    /// their AP's airtime. Optional in JSON (and skipped when default),
    /// so absent — as in every pre-contention spec file — means
    /// `isolated`, which reproduces the per-link engine byte-identically.
    #[serde(default, skip_serializing_if = "MediumSpec::is_default")]
    pub medium: MediumSpec,
    /// Fault schedule: AP outages, hint dropouts, radio blackouts.
    /// Optional in JSON (and skipped when default), so absent — as in
    /// every pre-fault spec file — means a fault-free run, which
    /// reproduces the previous engine behaviour byte-identically.
    #[serde(default, skip_serializing_if = "FaultSpec::is_default")]
    pub faults: FaultSpec,
    /// Link payload size, bytes: 1 to 802.11's 2304-byte MSDU limit.
    pub payload_bytes: u32,
}

/// Office environment, 200 × 100 m bounds, 30 s, seed 0, fleet-wide
/// sensor hints, RapidSample, strongest-signal handoff with a 1 s scan
/// and 3-unit hysteresis, isolated medium, no faults, 1000-byte payload
/// — and **no APs or clients**, which [`FleetSpec::validate`] rejects.
impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            environment: EnvironmentSpec::Office,
            bounds: FleetBounds {
                width_m: 200.0,
                height_m: 100.0,
            },
            aps: Vec::new(),
            clients: Vec::new(),
            duration: SimDuration::from_secs(30),
            seed: 0,
            protocol: ProtocolSpec::default(),
            hints: HintSpec::Sensors { seed: None },
            handoff: HandoffSpec::default(),
            medium: MediumSpec::default(),
            faults: FaultSpec::default(),
            payload_bytes: 1000,
        }
    }
}

/// The named choices of a valid [`FleetSpec`], resolved once by
/// [`FleetSpec::validate`] for the engine's compile to consume.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResolvedFleet {
    /// The protocol every client runs.
    pub protocol: ProtocolKind,
    /// The association/handoff policy.
    pub policy: HandoffPolicy,
    /// Whether co-associated clients contend for their AP's airtime.
    pub contention: ContentionMode,
}

impl FleetSpec {
    /// Validate, returning the named choices the spec resolves to.
    pub fn validate(&self) -> Result<ResolvedFleet, ScenarioError> {
        let bad = |msg: String| Err(ScenarioError::BadFleet(msg));
        if self.duration.is_zero() {
            return Err(ScenarioError::ZeroDuration);
        }
        if self.duration > MAX_FLEET_DURATION {
            // Beyond this the engine's per-second accumulators and
            // SimTime arithmetic would be asked to allocate/overflow on
            // absurd inputs (e.g. duration u64::MAX µs); fail the spec
            // instead of the process.
            return bad(format!(
                "fleet duration {} exceeds the supported maximum {MAX_FLEET_DURATION} \
                 (24 simulated hours); split longer experiments into multiple runs",
                self.duration
            ));
        }
        if !(1..=MAX_MSDU_BYTES).contains(&self.payload_bytes) {
            return Err(ScenarioError::BadPayload(self.payload_bytes));
        }
        let (w, h) = (self.bounds.width_m, self.bounds.height_m);
        if !(w.is_finite() && h.is_finite() && w > 0.0 && h > 0.0) {
            return bad(format!(
                "environment bounds must be finite and positive, got {w} x {h} m"
            ));
        }
        if self.clients.is_empty() {
            return bad(
                "fleet needs at least one client (clients is empty); add entries with a \
                 start position, motion, and workload"
                    .into(),
            );
        }
        if self.aps.is_empty() {
            return bad(
                "fleet needs at least one AP (aps is empty); add entries with a position \
                 and coverage radius"
                    .into(),
            );
        }
        for (i, ap) in self.aps.iter().enumerate() {
            if !(ap.x_m.is_finite() && ap.y_m.is_finite()) {
                return bad(format!(
                    "AP {i} position must be finite, got ({}, {})",
                    ap.x_m, ap.y_m
                ));
            }
            if !self.bounds.contains(ap.x_m, ap.y_m) {
                return bad(format!(
                    "AP {i} at ({}, {}) m lies outside the environment bounds {w} x {h} m \
                     (origin (0, 0))",
                    ap.x_m, ap.y_m
                ));
            }
            if !(ap.coverage_m.is_finite() && ap.coverage_m > 0.0) {
                return bad(format!(
                    "AP {i} coverage radius must be finite and positive, got {}",
                    ap.coverage_m
                ));
            }
            if let Some(b) = &ap.backhaul {
                if let Err(e) = b.validate() {
                    return bad(format!("AP {i}: {e}"));
                }
            }
        }
        for (i, client) in self.clients.iter().enumerate() {
            if !self.bounds.contains(client.start_x_m, client.start_y_m) {
                return bad(format!(
                    "client {i} starts at ({}, {}) m, outside the environment bounds \
                     {w} x {h} m",
                    client.start_x_m, client.start_y_m
                ));
            }
            // Reuse the single-link motion validation, adding the client
            // index so a fleet of dozens stays debuggable.
            if let Err(e) = client.motion.validate(self.duration) {
                return bad(format!("client {i}: {e}"));
            }
            if let Err(e) = client.workload.validate() {
                return Err(ScenarioError::BadWorkload(format!("client {i}: {e}")));
            }
        }
        let Some(policy) = HandoffPolicy::from_name(&self.handoff.policy) else {
            return Err(ScenarioError::UnknownHandoffPolicy {
                name: self.handoff.policy.clone(),
                known: HANDOFF_POLICY_NAMES.iter().map(|s| s.to_string()).collect(),
            });
        };
        if self.handoff.scan_interval.is_zero() {
            return bad("handoff scan interval must be positive".into());
        }
        if self.handoff.scan_interval > self.duration {
            return bad(format!(
                "handoff scan interval {} exceeds the fleet duration {} — clients would \
                 never re-evaluate",
                self.handoff.scan_interval, self.duration
            ));
        }
        if !(self.handoff.hysteresis.is_finite() && self.handoff.hysteresis >= 0.0) {
            return bad(format!(
                "handoff hysteresis must be finite and non-negative, got {}",
                self.handoff.hysteresis
            ));
        }
        if self.handoff.reassociation_cost >= self.handoff.scan_interval {
            return bad(format!(
                "reassociation cost {} must be below the scan interval {}",
                self.handoff.reassociation_cost, self.handoff.scan_interval
            ));
        }
        let contention = match self.medium.validate() {
            Ok(mode) => mode,
            Err(msg) => return bad(msg),
        };
        if let Err(msg) = self
            .faults
            .validate(self.aps.len(), self.clients.len(), self.duration)
        {
            return bad(msg);
        }
        Ok(ResolvedFleet {
            protocol: self.protocol.kind()?,
            policy,
            contention,
        })
    }

    /// Serialize to compact JSON.
    pub fn to_json(&self) -> String {
        // detlint::allow(PANIC001): serializing an owned spec is infallible
        serde_json::to_string(self).expect("spec serialization cannot fail")
    }

    /// Serialize to pretty-printed JSON (the checked-in spec-file
    /// format).
    pub fn to_json_pretty(&self) -> String {
        // detlint::allow(PANIC001): serializing an owned spec is infallible
        serde_json::to_string_pretty(self).expect("spec serialization cannot fail")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<FleetSpec, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Write to a spec file as pretty JSON.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json_pretty() + "\n")
    }

    /// Load from a JSON spec file.
    ///
    /// Relative trace-workload paths in per-client workloads are rebased
    /// against the spec file's directory (see
    /// [`crate::scenario::ScenarioSpec::load`]).
    pub fn load(path: &Path) -> io::Result<FleetSpec> {
        let s = std::fs::read_to_string(path)?;
        let mut spec =
            FleetSpec::from_json(&s).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if let Some(dir) = path.parent() {
            for client in &mut spec.clients {
                client.workload.rebase(dir);
            }
        }
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Outcome types
// ---------------------------------------------------------------------------

/// One client's share of a fleet run: its aggregated link results (a
/// full single-link [`ScenarioOutcome`]) plus the association history
/// the fleet engine observed for it.
///
/// The resilience fields (`blackout_s` through `scan_retries`) are
/// produced only by fault-injected runs; they serialize only when
/// non-zero, so fault-free outcomes — including every pre-fault golden
/// file — stay byte-identical.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FleetClientOutcome {
    /// Client index in the spec's `clients` list.
    pub client: usize,
    /// AP ids in association order (consecutive duplicates collapsed) —
    /// the client's handoff trajectory.
    pub aps_visited: Vec<usize>,
    /// Number of handoffs (AP-to-AP switches).
    pub handoffs: u32,
    /// Handoffs forced by losing coverage (as opposed to hint-led
    /// switches decided while the old link still worked).
    pub forced_handoffs: u32,
    /// Total unassociated time (handoff gaps + out-of-coverage spells),
    /// microseconds in JSON.
    pub outage: SimDuration,
    /// Time this client's radio was blacked out by the fault schedule,
    /// seconds (a subset of `outage`).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub blackout_s: f64,
    /// Time the hint policies ran on legacy RSSI scoring because this
    /// client's hints were dropped out, seconds.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub fallback_s: f64,
    /// Re-scans performed while unassociated under the exponential
    ///-backoff schedule fault-injected runs use.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub scan_retries: u32,
    /// The client's aggregated link-level outcome across all its
    /// association spans.
    pub outcome: ScenarioOutcome,
}

/// One AP's aggregate view of the run.
///
/// The contention fields (`contended_busy_s` onward) are produced only
/// by shared-medium runs; they serialize only when non-zero, so isolated
/// outcomes — including every pre-contention golden file — stay
/// byte-identical.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetApStats {
    /// Total client-association time, seconds (sums across clients, so
    /// it can exceed the run duration).
    pub association_s: f64,
    /// Handoffs that arrived at this AP.
    pub handoffs_in: u32,
    /// Airtime wasted on departed-but-not-yet-pruned clients, seconds —
    /// the Fig. 5-1 pathology at fleet scale. Near zero when departing
    /// clients hint and the AP quarantines them (Sec. 5.2.3).
    pub wasted_airtime_s: f64,
    /// Airtime the arbiter granted to frames on this AP's medium,
    /// seconds (shared contention only).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub contended_busy_s: f64,
    /// Airtime destroyed by collisions on this AP's medium, seconds
    /// (shared contention only).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub collision_s: f64,
    /// Collision events on this AP's medium (shared contention only).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub collisions: u32,
    /// Time this AP was down under the fault schedule, seconds
    /// (fault-injected runs only; serialized only when non-zero).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub down_s: f64,
    /// Clients this AP evicted when it failed (forced disassociations;
    /// fault-injected runs only, serialized only when non-zero).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub evictions: u32,
}

/// The complete result of one fleet run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// Environment name the links were generated in.
    pub environment: String,
    /// Canonical protocol name every client ran.
    pub protocol: String,
    /// Canonical handoff-policy name.
    pub policy: String,
    /// Canonical contention-mode name. Serialized only for shared-medium
    /// runs, so isolated outcomes (every pre-contention golden file)
    /// stay byte-identical; absent means `isolated`.
    #[serde(default = "isolated_name", skip_serializing_if = "is_isolated")]
    pub contention: String,
    /// The fleet seed (provenance).
    pub seed: u64,
    /// Per-client outcomes, in spec order.
    pub clients: Vec<FleetClientOutcome>,
    /// Per-AP stats, in spec order.
    pub aps: Vec<FleetApStats>,
    /// Total handoffs across the fleet.
    pub total_handoffs: u32,
    /// Coverage-loss (forced) handoffs across the fleet.
    pub forced_handoffs: u32,
    /// Jain's fairness index over per-client goodput (1.0 = perfectly
    /// even, 1/N = one client starves the rest).
    pub jain_fairness: f64,
    /// Sum of per-client goodput, Mbit/s.
    pub aggregate_goodput_mbps: f64,
}

fn isolated_name() -> String {
    ContentionMode::Isolated.name().to_string()
}

fn is_isolated(contention: &str) -> bool {
    contention == ContentionMode::Isolated.name()
}

impl FleetOutcome {
    /// Serialize to pretty JSON (the `scenario_run --json` format and
    /// the golden-outcome pinning format).
    pub fn to_json_pretty(&self) -> String {
        // detlint::allow(PANIC001): serializing an owned outcome is infallible
        serde_json::to_string_pretty(self).expect("outcome serialization cannot fail")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<FleetOutcome, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Total unassociated time across the fleet.
    pub fn total_outage(&self) -> SimDuration {
        self.clients
            .iter()
            .fold(SimDuration::ZERO, |acc, c| acc + c.outage)
    }
}

/// Jain's fairness index over a set of non-negative allocations:
/// `(Σx)² / (n · Σx²)`, which is 1 for an even split and `1/n` when one
/// participant takes everything. **Total** over every input: defined as
/// 1.0 for an empty or all-zero set (nobody is being treated unfairly
/// when there is nothing to share — the degenerate fleet whose clients
/// never associate), and non-finite or negative allocations are treated
/// as zero, so the index is always finite and in `(0, 1]`.
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let n = values.len() as f64;
    // Non-finite and negative allocations count as zero; for ordinary
    // inputs this is the identity, so existing pinned outcomes keep
    // their exact bits.
    let clamped: Vec<f64> = values
        .iter()
        .map(|v| if v.is_finite() && *v > 0.0 { *v } else { 0.0 })
        .collect();
    let sum: f64 = clamped.iter().sum();
    let sq: f64 = clamped.iter().map(|v| v * v).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    let j = sum * sum / (n * sq);
    if j.is_finite() {
        return j;
    }
    // Squaring overflowed (values near f64::MAX): renormalize by the
    // largest allocation — Jain's index is scale-invariant.
    let max = clamped.iter().cloned().fold(0.0, f64::max);
    let sum: f64 = clamped.iter().map(|v| v / max).sum();
    let sq: f64 = clamped.iter().map(|v| (v / max) * (v / max)).sum();
    sum * sum / (n * sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn ap(x_m: f64, y_m: f64, coverage_m: f64) -> ApPlacement {
        ApPlacement {
            x_m,
            y_m,
            coverage_m,
            backhaul: None,
        }
    }

    fn client(start_x_m: f64, start_y_m: f64, motion: MotionSpec) -> FleetClientSpec {
        FleetClientSpec {
            start_x_m,
            start_y_m,
            motion,
            workload: Workload::Udp,
        }
    }

    fn walking_fleet() -> FleetSpec {
        FleetSpec {
            aps: vec![ap(40.0, 50.0, 70.0), ap(160.0, 50.0, 70.0)],
            clients: vec![client(
                10.0,
                50.0,
                MotionSpec::Walking {
                    speed_mps: 1.4,
                    heading_deg: 90.0,
                },
            )],
            duration: SimDuration::from_secs(20),
            ..FleetSpec::default()
        }
    }

    /// The walking fleet with one more client.
    fn with_client(client: FleetClientSpec) -> FleetSpec {
        let mut spec = walking_fleet();
        spec.clients.push(client);
        spec
    }

    /// The walking fleet with `faults`.
    fn with_faults(faults: FaultSpec) -> FleetSpec {
        FleetSpec {
            faults,
            ..walking_fleet()
        }
    }

    /// Keys of a serialized object, in the order they will be printed.
    fn object_keys(v: &Value) -> Vec<String> {
        match v {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn outcome_json_key_order_is_pinned() {
        // The derived `to_value` emits keys in declaration order, and
        // golden files + CI `cmp` gates depend on the byte sequence:
        // pin it so a refactor can't silently reorder the output.
        let isolated = FleetApStats {
            association_s: 1.5,
            handoffs_in: 2,
            wasted_airtime_s: 0.25,
            contended_busy_s: 0.0,
            collision_s: 0.0,
            collisions: 0,
            down_s: 0.0,
            evictions: 0,
        };
        assert_eq!(
            object_keys(&isolated.to_value()),
            ["association_s", "handoffs_in", "wasted_airtime_s"]
        );
        let contended = FleetApStats {
            contended_busy_s: 3.0,
            collision_s: 0.5,
            collisions: 7,
            ..isolated
        };
        assert_eq!(
            object_keys(&contended.to_value()),
            [
                "association_s",
                "handoffs_in",
                "wasted_airtime_s",
                "contended_busy_s",
                "collision_s",
                "collisions"
            ]
        );
        let faulted = FleetApStats {
            down_s: 6.0,
            evictions: 3,
            ..contended
        };
        assert_eq!(
            object_keys(&faulted.to_value()),
            [
                "association_s",
                "handoffs_in",
                "wasted_airtime_s",
                "contended_busy_s",
                "collision_s",
                "collisions",
                "down_s",
                "evictions"
            ]
        );

        // Client outcomes: the resilience fields appear, in order,
        // between `outage` and `outcome` — and only when non-zero.
        let clean_client = FleetClientOutcome {
            client: 0,
            aps_visited: vec![1],
            handoffs: 1,
            forced_handoffs: 0,
            outage: SimDuration::from_millis(50),
            blackout_s: 0.0,
            fallback_s: 0.0,
            scan_retries: 0,
            outcome: ScenarioOutcome {
                environment: "office".to_string(),
                protocol: "HintAware".to_string(),
                seed: 9,
                result: crate::SimResult {
                    packets_sent: 10,
                    packets_delivered: 9,
                    attempts: 11,
                    goodput_bps: 1e6,
                    duration: SimDuration::from_secs(1),
                    rate_usage: [0; hint_mac::BitRate::COUNT],
                    delivered_per_second: vec![9],
                    backhaul_dropped: 0,
                },
            },
        };
        assert_eq!(
            object_keys(&clean_client.to_value()),
            [
                "client",
                "aps_visited",
                "handoffs",
                "forced_handoffs",
                "outage",
                "outcome"
            ]
        );
        let faulted_client = FleetClientOutcome {
            blackout_s: 3.0,
            fallback_s: 4.5,
            scan_retries: 6,
            ..clean_client
        };
        assert_eq!(
            object_keys(&faulted_client.to_value()),
            [
                "client",
                "aps_visited",
                "handoffs",
                "forced_handoffs",
                "outage",
                "blackout_s",
                "fallback_s",
                "scan_retries",
                "outcome"
            ]
        );

        let mut outcome = FleetOutcome {
            environment: "office".to_string(),
            protocol: "HintAware".to_string(),
            policy: "hint-aware".to_string(),
            contention: ContentionMode::Isolated.name().to_string(),
            seed: 7,
            clients: vec![faulted_client],
            aps: vec![contended],
            total_handoffs: 1,
            forced_handoffs: 0,
            jain_fairness: 1.0,
            aggregate_goodput_mbps: 2.5,
        };
        let tail = [
            "seed",
            "clients",
            "aps",
            "total_handoffs",
            "forced_handoffs",
            "jain_fairness",
            "aggregate_goodput_mbps",
        ];
        // Isolated outcomes omit `contention` entirely (pre-contention
        // schema); shared outcomes splice it after `policy`.
        let mut want = vec!["environment", "protocol", "policy"];
        want.extend(tail);
        assert_eq!(object_keys(&outcome.to_value()), want);
        outcome.contention = ContentionMode::Shared.name().to_string();
        let mut want = vec!["environment", "protocol", "policy", "contention"];
        want.extend(tail);
        assert_eq!(object_keys(&outcome.to_value()), want);
        // And the order survives the full print + reparse cycle.
        let back = FleetOutcome::from_json(&outcome.to_json_pretty()).expect("parses");
        assert_eq!(back, outcome);
    }

    #[test]
    fn valid_fleet_validates_and_round_trips() {
        let spec = walking_fleet();
        let resolved = spec.validate().expect("valid fleet");
        assert_eq!(resolved.policy, HandoffPolicy::StrongestSignal);
        assert_eq!(resolved.protocol, ProtocolKind::RapidSample);
        let reparsed = FleetSpec::from_json(&spec.to_json_pretty()).expect("round-trips");
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn zero_clients_is_actionable() {
        let err = FleetSpec {
            aps: vec![ap(40.0, 50.0, 70.0)],
            ..FleetSpec::default()
        }
        .validate()
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("at least one client"),
            "message must say what is missing: {msg}"
        );
    }

    #[test]
    fn zero_aps_is_actionable() {
        let err = FleetSpec {
            clients: vec![client(10.0, 50.0, MotionSpec::Stationary)],
            ..FleetSpec::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("at least one AP"));
    }

    #[test]
    fn unknown_handoff_policy_lists_known_names() {
        let err = FleetSpec {
            handoff: HandoffSpec {
                policy: "teleport".into(),
                ..HandoffSpec::default()
            },
            ..walking_fleet()
        }
        .validate()
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("teleport"), "{msg}");
        for name in HANDOFF_POLICY_NAMES {
            assert!(msg.contains(name), "{msg} must list {name}");
        }
    }

    #[test]
    fn ap_outside_bounds_names_the_ap_and_bounds() {
        let mut spec = walking_fleet();
        spec.aps.push(ap(250.0, 50.0, 70.0));
        let err = spec.validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("AP 2"), "{msg}");
        assert!(msg.contains("outside the environment bounds"), "{msg}");
        assert!(msg.contains("200 x 100"), "{msg}");
    }

    #[test]
    fn client_outside_bounds_rejected() {
        let err = with_client(client(10.0, 500.0, MotionSpec::Stationary))
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("client 1"));
    }

    #[test]
    fn client_motion_errors_carry_the_client_index() {
        let err = with_client(client(
            10.0,
            50.0,
            MotionSpec::Walking {
                speed_mps: -2.0,
                heading_deg: 0.0,
            },
        ))
        .validate()
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("client 1"), "{msg}");
        assert!(msg.contains("speed"), "{msg}");
    }

    #[test]
    fn client_workload_errors_carry_the_client_index() {
        use crate::workload::TcpConfig;
        let degenerate = TcpConfig {
            link_attempts: 0,
            ..TcpConfig::default()
        };
        let err = with_client(FleetClientSpec {
            workload: Workload::Tcp(degenerate),
            ..client(10.0, 50.0, MotionSpec::Stationary)
        })
        .validate()
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("invalid workload"), "{msg}");
        assert!(msg.contains("client 1"), "{msg}");
        assert!(msg.contains("link_attempts"), "{msg}");
    }

    #[test]
    fn handoff_cadence_is_validated() {
        let with_handoff = |handoff| FleetSpec {
            handoff,
            ..walking_fleet()
        };
        let zero_scan = with_handoff(HandoffSpec {
            scan_interval: SimDuration::ZERO,
            ..HandoffSpec::default()
        });
        assert!(zero_scan.validate().is_err());
        let slow_scan = with_handoff(HandoffSpec {
            scan_interval: SimDuration::from_secs(60),
            ..HandoffSpec::default()
        });
        assert!(slow_scan
            .validate()
            .unwrap_err()
            .to_string()
            .contains("exceeds the fleet duration"));
        let costly = with_handoff(HandoffSpec {
            reassociation_cost: SimDuration::from_secs(2),
            ..HandoffSpec::default()
        });
        assert!(costly
            .validate()
            .unwrap_err()
            .to_string()
            .contains("reassociation cost"));
        let nan_hyst = with_handoff(HandoffSpec {
            hysteresis: f64::NAN,
            ..HandoffSpec::default()
        });
        assert!(nan_hyst.validate().is_err());
    }

    #[test]
    fn unknown_protocol_flows_through_fleet_validation() {
        let err = FleetSpec {
            protocol: ProtocolSpec::named("warpdrive"),
            ..walking_fleet()
        }
        .validate()
        .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::UnknownProtocol { ref name, .. } if name == "warpdrive"
        ));
        assert!(err.to_string().contains("RapidSample"));
    }

    #[test]
    fn policy_names_resolve_case_and_separator_insensitively() {
        assert_eq!(
            HandoffPolicy::from_name("Hint_Aware"),
            Some(HandoffPolicy::HintAware)
        );
        assert_eq!(
            HandoffPolicy::from_name("signal"),
            Some(HandoffPolicy::StrongestSignal)
        );
        assert_eq!(HandoffPolicy::from_name("teleport"), None);
        for name in HANDOFF_POLICY_NAMES {
            let p = HandoffPolicy::from_name(name).expect("known");
            assert_eq!(p.name(), name);
        }
    }

    #[test]
    fn jain_index_shapes() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_index(&[5.0, 5.0, 5.0]), 1.0);
        let one_hog = jain_index(&[9.0, 0.0, 0.0]);
        assert!((one_hog - 1.0 / 3.0).abs() < 1e-12, "{one_hog}");
        let mild = jain_index(&[2.0, 1.0]);
        assert!(mild > 1.0 / 2.0 && mild < 1.0);
    }

    #[test]
    fn jain_index_is_total_over_degenerate_inputs() {
        // A fleet whose clients never associate reports zero goodputs;
        // NaN/inf must never leak into or out of the index.
        assert_eq!(jain_index(&[f64::NAN, f64::NAN]), 1.0);
        assert_eq!(jain_index(&[f64::INFINITY]), 1.0);
        assert_eq!(jain_index(&[-3.0, -1.0]), 1.0);
        let mixed = jain_index(&[4.0, f64::NAN, -2.0]);
        assert!(mixed.is_finite(), "{mixed}");
        // One real allocation among three participants: same as one hog.
        assert!((mixed - 1.0 / 3.0).abs() < 1e-12, "{mixed}");
        for vals in [
            &[f64::NAN, 1.0, 2.0][..],
            &[0.0][..],
            &[f64::NEG_INFINITY, f64::MAX][..],
        ] {
            let j = jain_index(vals);
            assert!(j.is_finite() && j > 0.0 && j <= 1.0, "{vals:?} -> {j}");
        }
    }

    #[test]
    fn medium_defaults_to_isolated_and_round_trips() {
        let spec = walking_fleet();
        let resolved = spec.validate().expect("valid fleet");
        assert_eq!(resolved.contention, ContentionMode::Isolated);
        // The default medium is skipped in JSON, so pre-contention spec
        // files and freshly saved defaults look identical…
        let json = spec.to_json_pretty();
        assert!(!json.contains("medium"), "default medium must be skipped");
        // …and JSON without the field parses back to the default.
        let reparsed = FleetSpec::from_json(&json).expect("round-trips");
        assert_eq!(reparsed.medium, MediumSpec::default());
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn shared_medium_round_trips() {
        let spec = FleetSpec {
            medium: MediumSpec::shared(),
            ..walking_fleet()
        };
        let resolved = spec.validate().expect("valid shared fleet");
        assert_eq!(resolved.contention, ContentionMode::Shared);
        let json = spec.to_json();
        assert!(
            json.contains("\"medium\":{\"contention\":\"shared\"}"),
            "{json}"
        );
        assert_eq!(FleetSpec::from_json(&json).expect("parses"), spec);
    }

    #[test]
    fn malformed_medium_is_actionable() {
        let unknown = FleetSpec {
            medium: MediumSpec {
                contention: "psychic".into(),
            },
            ..walking_fleet()
        };
        let msg = unknown.validate().unwrap_err().to_string();
        assert!(msg.contains("psychic"), "{msg}");
        for name in CONTENTION_MODE_NAMES {
            assert!(msg.contains(name), "{msg} must list {name}");
        }
    }

    fn outage(ap: usize, start_s: u64, dur_s: u64) -> ApOutage {
        ApOutage {
            ap,
            start: SimDuration::from_secs(start_s),
            duration: SimDuration::from_secs(dur_s),
        }
    }

    #[test]
    fn faults_default_to_empty_and_are_skipped_in_json() {
        let spec = walking_fleet();
        spec.validate().expect("valid fleet");
        assert!(spec.faults.is_default());
        let json = spec.to_json_pretty();
        assert!(!json.contains("faults"), "default faults must be skipped");
        let reparsed = FleetSpec::from_json(&json).expect("round-trips");
        assert_eq!(reparsed.faults, FaultSpec::default());
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn fault_schedule_round_trips_sparsely() {
        let faults = FaultSpec {
            ap_outages: vec![outage(1, 5, 3)],
            hint_dropouts: vec![HintDropout {
                client: 0,
                start: SimDuration::from_secs(2),
                duration: SimDuration::from_secs(4),
            }],
            ..FaultSpec::default()
        };
        let spec = with_faults(faults.clone());
        spec.validate().expect("valid faulted fleet");
        let json = spec.to_json();
        // Sparse on the wire: only the populated fields appear.
        assert!(json.contains("\"ap_outages\""), "{json}");
        assert!(json.contains("\"hint_dropouts\""), "{json}");
        assert!(!json.contains("radio_blackouts"), "{json}");
        assert!(!json.contains("hint_fallback"), "{json}");
        let back = FleetSpec::from_json(&json).expect("parses");
        assert_eq!(back, spec);
        // The naive-hint-trusting ablation flag serializes only when off.
        let naive = with_faults(FaultSpec {
            hint_fallback: false,
            ..faults
        });
        let json = naive.to_json();
        assert!(json.contains("\"hint_fallback\":false"), "{json}");
        assert_eq!(FleetSpec::from_json(&json).expect("parses"), naive);
    }

    #[test]
    fn null_ap_backhaul_parses_as_no_backhaul() {
        let spec = walking_fleet();
        let json = spec
            .to_json()
            .replace("\"coverage_m\":", "\"backhaul\":null,\"coverage_m\":");
        assert_eq!(json.matches("\"backhaul\":null").count(), 2, "{json}");
        let parsed = FleetSpec::from_json(&json).expect("null backhaul parses");
        assert!(parsed.aps.iter().all(|ap| ap.backhaul.is_none()));
        assert_eq!(parsed, spec);
    }

    #[test]
    fn null_medium_and_faults_are_rejected_naming_the_type() {
        let json = walking_fleet().to_json();
        for (key, ty) in [("medium", "MediumSpec"), ("faults", "FaultSpec")] {
            let with_null = json.replacen('{', &format!("{{\"{key}\":null,"), 1);
            let msg = FleetSpec::from_json(&with_null).unwrap_err().to_string();
            assert!(msg.contains(&format!("expected {ty}, found null")), "{msg}");
        }
    }

    #[test]
    fn fault_validation_rejects_out_of_range_indices() {
        // The walking fleet has 2 APs and 1 client.
        let err = with_faults(FaultSpec {
            ap_outages: vec![outage(2, 5, 3)],
            ..FaultSpec::default()
        })
        .validate()
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("ap_outages[0]"), "{msg}");
        assert!(msg.contains("AP 2"), "{msg}");
        assert!(msg.contains("0..=1"), "must name the valid range: {msg}");

        let err = with_faults(FaultSpec {
            hint_dropouts: vec![HintDropout {
                client: 7,
                start: SimDuration::from_secs(1),
                duration: SimDuration::from_secs(1),
            }],
            ..FaultSpec::default()
        })
        .validate()
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("hint_dropouts[0]"), "{msg}");
        assert!(msg.contains("client 7"), "{msg}");

        let err = with_faults(FaultSpec {
            radio_blackouts: vec![RadioBlackout {
                client: 1,
                start: SimDuration::from_secs(1),
                duration: SimDuration::from_secs(1),
            }],
            ..FaultSpec::default()
        })
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("radio_blackouts[0]"));
    }

    #[test]
    fn fault_validation_rejects_degenerate_windows() {
        let err = with_faults(FaultSpec {
            ap_outages: vec![outage(0, 5, 0)],
            ..FaultSpec::default()
        })
        .validate()
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("zero duration"), "{msg}");

        // The walking fleet lasts 20 s: a window starting at or past the
        // end can never fire and is almost certainly a typo.
        let err = with_faults(FaultSpec {
            ap_outages: vec![outage(0, 20, 5)],
            ..FaultSpec::default()
        })
        .validate()
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("at or past the run end"), "{msg}");
    }

    #[test]
    fn absurd_durations_fail_validation_instead_of_the_engine() {
        // u64::MAX µs used to be parseable and would overflow SimTime
        // arithmetic (or OOM the per-second accumulators) inside the
        // engine; now it is a spec error with a actionable message.
        let mut spec = walking_fleet();
        spec.duration = SimDuration::from_micros(u64::MAX);
        let msg = spec.validate().unwrap_err().to_string();
        assert!(msg.contains("exceeds the supported maximum"), "{msg}");
        assert!(msg.contains("24 simulated hours"), "{msg}");
        // The maximum itself is fine.
        spec.duration = MAX_FLEET_DURATION;
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn normalize_windows_canonicalizes() {
        let t = SimTime::from_secs;
        // Overlapping and adjacent windows coalesce; empties drop.
        let out = normalize_windows(vec![
            (t(5), t(8)),
            (t(1), t(3)),
            (t(3), t(4)), // adjacent to [1,3)
            (t(6), t(6)), // empty
            (t(7), t(10)),
        ]);
        assert_eq!(out, vec![(t(1), t(4)), (t(5), t(10))]);
        // Idempotent: normalizing a normal form is the identity.
        assert_eq!(normalize_windows(out.clone()), out);
        assert_eq!(normalize_windows(Vec::new()), Vec::new());
    }
}
