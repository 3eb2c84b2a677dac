//! The fleet simulation engine: N mobile clients sharing M access
//! points, with sensor hints steering association, handoff, and rate
//! adaptation together.
//!
//! The paper evaluates the hint protocol per-link; its payoff at scale
//! shows up when many clients share APs (Sec. 5.2). This engine layers
//! the pieces the substrate crates already model:
//!
//! * **Association/handoff** — every scan interval each client scores
//!   the in-range APs under the spec's [`HandoffPolicy`]:
//!   signal-strength (baseline) or predicted dwell from the movement hint
//!   (`hint_ap::association`). Switches are gated by
//!   [`hint_ap::association::should_handoff`] hysteresis, so an
//!   unchanged scan can never ping-pong.
//! * **Hints** — each client runs the same hint pipeline as a
//!   single-link scenario ([`HintStream`]), once, over the whole run:
//!   scans query it and every span's adapter reads its window of it, so
//!   the AP and the rate adapter see one detector. The hint gates the dwell
//!   prediction (a client that believes it is static scores every
//!   covering AP as an infinite dwell and stays put) and rides frames to
//!   the AP, whose [`NeighborHints`] table decides how departures are
//!   handled (the Fig. 5-1 ghost-airtime model, `hint_ap`'s
//!   [`hint_ap::disassociation::DisassociationPolicy`]).
//! * **Traffic** — every association span runs a real
//!   [`LinkSimulator`] over a trace whose mean SNR is offset by the
//!   client's distance from its AP, with a fresh adapter of the spec's
//!   [`ProtocolKind`]; per-client results aggregate into the
//!   [`FleetOutcome`].
//!
//! Scan ticks flow through `hint-sim`'s [`EventQueue`], whose FIFO
//! ordering among simultaneous events pins the client processing order.
//! Every random stream derives from the fleet seed, so a fleet run is
//! **deterministic**: same spec + seed ⇒ byte-identical
//! [`FleetOutcome`], regardless of worker-thread count in the
//! surrounding battery.
//!
//! # Scaling to metro fleets
//!
//! The engine is built so that 1,000+ clients × 100+ APs stays in the
//! seconds range:
//!
//! * **Spatial AP index** — scans query a
//!   [`hint_topology::spatial::DiskIndex`] over the AP placements, so
//!   each scan considers only the APs whose coverage disks can contain
//!   the client instead of all M (exact-equivalent to the brute-force
//!   scan, property-tested in `hint-topology`).
//! * **Staged engine** — [`FleetScenario::run_counted`] runs Phase A
//!   (the association event loop), Phase A′ (CSMA/CA arbitration of
//!   shared media) and the span arena build in order, each a function
//!   with a typed hand-off that adds its per-AP totals into the
//!   outcome's [`FleetApStats`] and its work into a [`FleetWork`].
//! * **Span arena + sharding** — Phase A′ shards its contended (AP,
//!   epoch) cells and Phase B its span arena on [`hint_sim::pool`]. Each
//!   cell's arbitration and each span's simulation is a pure function of
//!   the spec seed; cell results fold into per-AP sums in (AP, epoch)
//!   order and span results into per-client sums in arena order (goodput
//!   is computed from the totals afterwards): the outcome is
//!   **byte-identical for every worker count**.
//! * **Streaming accumulation** — span results merge into per-client
//!   running sums as soon as every earlier span has landed (a result
//!   that finishes ahead of a slower earlier span waits in the pool's
//!   reorder buffer); memory stays O(clients + APs + spans), never
//!   O(spans × trace length).

use crate::neighbors::NeighborHints;
use hint_ap::association::{best_ap, predicted_dwell_s, should_handoff, ApCandidate, ClientMotion};
use hint_channel::delivery::best_rate_for_snr;
use hint_channel::{Environment, Trace};
use hint_mac::contention::{AirtimeArbiter, ContentionParams, GrantSchedule, Station};
use hint_mac::hint_proto::HintField;
use hint_mac::{BitRate, MacTiming};
use hint_rateadapt::fleet::{
    jain_index, normalize_windows, ContentionMode, FleetApStats, FleetClientOutcome, FleetOutcome,
    FleetSpec, HandoffPolicy, ResolvedFleet, STALE_HINT_HOLD,
};
use hint_rateadapt::protocols::ProtocolKind;
use hint_rateadapt::scenario::{HintSpec, ScenarioError, ScenarioOutcome, HINT_SEED_MASK};
use hint_rateadapt::sim::goodput_bps;
use hint_rateadapt::{HintStream, LinkSimulator, SimResult, TraceSource, Workload};
use hint_sensors::gps::Position;
use hint_sensors::motion::{MotionProfile, MotionSegment};
use hint_sim::{pool, EventQueue, RngStream, SimDuration, SimTime};
use hint_topology::spatial::{Disk, DiskIndex};
use std::borrow::Cow;
use std::num::NonZeroUsize;
use std::ops::AddAssign;

/// Assumed receiver noise floor, dBm: scan-time RSSI is the link's mean
/// SNR re-referenced to it.
pub const NOISE_FLOOR_DBM: f64 = -95.0;

/// Path-loss exponent of the coverage-disk link model (indoor-ish).
pub const PATH_LOSS_EXP: f64 = 2.7;

/// Commercial-default prune timeout for a silent client (Sec. 5.2.3's
/// "after about 10 seconds of getting no response, the AP pruned the
/// absent client").
const PRUNE_AFTER: SimDuration = SimDuration::from_secs(10);

/// Gentle probe cadence for hint-quarantined clients.
const PROBE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Largest scan-backoff exponent under fault injection: a dark client's
/// rescan interval doubles per failed attempt up to `scan_interval <<
/// MAX_SCAN_BACKOFF_EXP` (32×), then stays capped — the retry budget
/// that keeps a fault storm from melting the event loop while still
/// rejoining promptly after short outages. Fault-free runs keep the
/// fixed cadence, byte-identically to the pre-fault engine.
const MAX_SCAN_BACKOFF_EXP: u32 = 5;

/// Scheduling epoch over which a shared medium's airtime is arbitrated.
/// A span reads one arbitrated airtime share per trace second, so a
/// shorter epoch would arbitrate cells that are never read.
const MEDIUM_EPOCH: SimDuration = SimDuration::from_secs(1);

/// Delivery-probability target used to pick a station's nominal
/// contention rate from its link SNR (the RBAR-style decision rule):
/// the arbiter needs a representative frame airtime per station before
/// the per-span traffic simulation has run.
const CONTENTION_RATE_TARGET: f64 = 0.9;

/// Mean SNR (dB) of a client↔AP link at distance `dist_m` from an AP
/// with usable radius `coverage_m`, in environment `env`: the
/// environment's operating point holds at a third of the coverage
/// radius and rolls off with [`PATH_LOSS_EXP`] toward the edge.
pub fn link_snr_db(env: &Environment, dist_m: f64, coverage_m: f64) -> f64 {
    let d_ref = (coverage_m / 3.0).max(1.0);
    env.base_snr_db + 10.0 * PATH_LOSS_EXP * (d_ref / dist_m.max(1.0)).log10()
}

// ---------------------------------------------------------------------------
// Client paths
// ---------------------------------------------------------------------------

/// A client's position over time: its start point plus the piecewise-
/// constant velocity schedule of its motion profile (headings are
/// degrees clockwise from north, as everywhere in the workspace).
#[derive(Clone, Debug)]
struct ClientPath {
    /// `(segment start time, position at that start, segment)`.
    legs: Vec<(SimTime, Position, MotionSegment)>,
}

impl ClientPath {
    fn new(start: Position, profile: &MotionProfile) -> Self {
        let mut legs = Vec::with_capacity(profile.segments().len());
        let mut t = SimTime::ZERO;
        let mut pos = start;
        for seg in profile.segments() {
            legs.push((t, pos, *seg));
            let dt = seg.duration.as_secs_f64();
            let v = seg.state.speed_mps();
            let h = seg.heading_deg.to_radians();
            pos = Position {
                x: pos.x + v * dt * h.sin(),
                y: pos.y + v * dt * h.cos(),
            };
            t += seg.duration;
        }
        ClientPath { legs }
    }

    /// Position at `t` (the last segment extends forever, matching
    /// [`MotionProfile`] query semantics).
    fn position_at(&self, t: SimTime) -> Position {
        let (leg_t, leg_pos, seg) = self
            .legs
            .iter()
            .rev()
            .find(|(start, _, _)| *start <= t)
            // detlint::allow(PANIC001): ClientPath::new pushes one leg per
            // motion segment and MotionProfile guarantees >= 1 segment
            .expect("paths have >= 1 leg");
        let dt = t.saturating_since(*leg_t).as_secs_f64();
        let v = seg.state.speed_mps();
        let h = seg.heading_deg.to_radians();
        Position {
            x: leg_pos.x + v * dt * h.sin(),
            y: leg_pos.y + v * dt * h.cos(),
        }
    }
}

/// The sub-profile of `profile` covering `[from, from + span)`, for
/// generating an association span's channel trace. The last segment
/// extends forever, as in [`MotionProfile`] queries.
fn slice_profile(profile: &MotionProfile, from: SimTime, span: SimDuration) -> MotionProfile {
    let mut out: Vec<MotionSegment> = Vec::new();
    let mut remaining = span;
    let mut cursor = SimTime::ZERO;
    for seg in profile.segments() {
        let seg_end = cursor + seg.duration;
        if seg_end > from && !remaining.is_zero() {
            let start_in_seg = if from > cursor {
                from.saturating_since(cursor)
            } else {
                SimDuration::ZERO
            };
            let avail = seg.duration - start_in_seg;
            let take = if avail < remaining { avail } else { remaining };
            if !take.is_zero() {
                out.push(MotionSegment {
                    duration: take,
                    ..*seg
                });
                remaining -= take;
            }
        }
        cursor = seg_end;
    }
    if !remaining.is_zero() {
        // Past the schedule: the last segment's state continues.
        // detlint::allow(PANIC001): MotionProfile::new rejects empty schedules
        let last = *profile.segments().last().expect("non-empty profile");
        out.push(MotionSegment {
            duration: remaining,
            ..last
        });
    }
    MotionProfile::new(out)
}

// ---------------------------------------------------------------------------
// Fault schedules
// ---------------------------------------------------------------------------

/// The compiled fault schedule: per-entity sorted, disjoint, half-open
/// time windows, resolved once at compile time (random storms included)
/// so every engine query is a cheap lookup and every worker sees the
/// same schedule.
#[derive(Clone, Debug)]
struct ResolvedFaults {
    /// Per-AP down windows.
    ap_down: Vec<Vec<(SimTime, SimTime)>>,
    /// Per-client hint-dropout windows.
    hint_off: Vec<Vec<(SimTime, SimTime)>>,
    /// Per-client radio-blackout windows.
    blackout: Vec<Vec<(SimTime, SimTime)>>,
    /// Whether hint policies fall back to RSSI once a dropout goes
    /// stale (`false` is the naive hint-trusting ablation).
    hint_fallback: bool,
    /// Whether any window exists at all. It gates only the dark-client
    /// scan backoff: a fault-free run keeps the fixed scan cadence of
    /// the pre-fault engine, so its outcome stays byte-identical. Every
    /// other fault path reduces to the fault-free one on empty windows.
    active: bool,
}

/// A client's hint-pipeline health at one instant, under the
/// stale-then-none dropout model.
enum HintHealth {
    /// No dropout: serve live hints.
    Fresh,
    /// Dropped out within [`STALE_HINT_HOLD`]: serve the reading frozen
    /// at the dropout start (carried in the variant).
    Stale(SimTime),
    /// Dropped out past the hold: hints unavailable; hint policies fall
    /// back to legacy RSSI scoring until the stream recovers.
    Down,
}

impl ResolvedFaults {
    /// Resolve `spec.faults` (already validated) against the run: clip
    /// every window to the run duration, then normalize per entity.
    fn resolve(spec: &FleetSpec) -> ResolvedFaults {
        let end = SimTime::ZERO + spec.duration;
        let clip = |start: SimDuration, dur: SimDuration| {
            let s = SimTime::ZERO + start;
            let e_us = s
                .as_micros()
                .saturating_add(dur.as_micros())
                .min(end.as_micros());
            (s, SimTime::from_micros(e_us))
        };
        let mut ap_down: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); spec.aps.len()];
        for o in &spec.faults.ap_outages {
            ap_down[o.ap].push(clip(o.start, o.duration));
        }
        let mut hint_off: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); spec.clients.len()];
        for d in &spec.faults.hint_dropouts {
            hint_off[d.client].push(clip(d.start, d.duration));
        }
        let mut blackout: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); spec.clients.len()];
        for b in &spec.faults.radio_blackouts {
            blackout[b.client].push(clip(b.start, b.duration));
        }
        let ap_down: Vec<_> = ap_down.into_iter().map(normalize_windows).collect();
        let hint_off: Vec<_> = hint_off.into_iter().map(normalize_windows).collect();
        let blackout: Vec<_> = blackout.into_iter().map(normalize_windows).collect();
        let active = ap_down
            .iter()
            .chain(&hint_off)
            .chain(&blackout)
            .any(|w| !w.is_empty());
        ResolvedFaults {
            ap_down,
            hint_off,
            blackout,
            hint_fallback: spec.faults.hint_fallback,
            active,
        }
    }

    /// The window of `wins` containing `t`, if any (windows are sorted
    /// and disjoint, and per-entity counts are tiny, so a linear scan
    /// wins over binary search).
    fn window_at(wins: &[(SimTime, SimTime)], t: SimTime) -> Option<(SimTime, SimTime)> {
        wins.iter().copied().find(|&(s, e)| s <= t && t < e)
    }

    /// Is AP `ap` down at `t`?
    fn ap_down(&self, ap: usize, t: SimTime) -> bool {
        Self::window_at(&self.ap_down[ap], t).is_some()
    }

    /// Is client `c`'s radio off at `t`?
    fn blacked_out(&self, c: usize, t: SimTime) -> bool {
        Self::window_at(&self.blackout[c], t).is_some()
    }

    /// Client `c`'s hint-pipeline health at `t`.
    fn hint_health(&self, c: usize, t: SimTime) -> HintHealth {
        match Self::window_at(&self.hint_off[c], t) {
            None => HintHealth::Fresh,
            Some((s, _)) if t < s + STALE_HINT_HOLD => HintHealth::Stale(s),
            Some((s, _)) if !self.hint_fallback => HintHealth::Stale(s),
            Some(_) => HintHealth::Down,
        }
    }

    /// Total length of `wins`, seconds.
    fn total_s(wins: &[(SimTime, SimTime)]) -> f64 {
        wins.iter()
            .map(|&(s, e)| e.saturating_since(s).as_secs_f64())
            .sum()
    }

    /// Seconds client `c` spent past the stale hold of a hint dropout —
    /// the time a hint policy ran in RSSI fallback (zero for the naive
    /// ablation, which keeps trusting the frozen reading instead).
    fn fallback_s(&self, c: usize) -> f64 {
        if !self.hint_fallback {
            return 0.0;
        }
        self.hint_off[c]
            .iter()
            .map(|&(s, e)| e.saturating_since(s + STALE_HINT_HOLD).as_secs_f64())
            .sum()
    }
}

/// Ghost airtime an AP burns on a client that vanished silently at
/// `now` — the Fig. 5-1 model: open-loop blasting until the prune
/// timeout, or occasional probes if the AP heard a movement hint (the
/// same accounting the coverage-loss scan path applies).
fn ghost_airtime_s(
    table: &NeighborHints<usize>,
    c: usize,
    now: SimTime,
    end: SimTime,
    probe_airtime_s: f64,
) -> f64 {
    let window = end.saturating_since(now).min(PRUNE_AFTER);
    if table.is_moving(c) {
        let probes = (window.as_secs_f64() / PROBE_INTERVAL.as_secs_f64()).ceil();
        probes * probe_airtime_s
    } else {
        window.as_secs_f64()
    }
}

// ---------------------------------------------------------------------------
// Work counters
// ---------------------------------------------------------------------------

/// The exact work one fleet run did, counted at the site that does each
/// kind of it. Every field is a plain count and counts merge by integer
/// addition, so the fold order — and hence the worker count — cannot
/// change them: unlike wall time they are noise-free, and tests pin them
/// exactly per checked-in spec.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetWork {
    /// Compile: 2 ms reports of every hint stream synthesized.
    pub hint_reports: u64,
    /// Phase A: events popped from the association event queue.
    pub events: u64,
    /// Phase A: scans evaluated (a stale or blacked-out scan event is
    /// popped but not evaluated).
    pub scans: u64,
    /// Phase A: AP ids the spatial index returned, summed over scans.
    pub scan_aps: u64,
    /// Phase A′: contended (AP, epoch) cells arbitrated.
    pub cells: u64,
    /// Phase A′: medium accesses the arbiter simulated.
    pub accesses: u64,
    /// Phase A′: backoff draws the arbiter made.
    pub draws: u64,
    /// Phase B: association spans simulated.
    pub spans: u64,
    /// Phase B: channel-trace slots generated.
    pub trace_slots: u64,
}

impl AddAssign for FleetWork {
    fn add_assign(&mut self, w: FleetWork) {
        self.hint_reports += w.hint_reports;
        self.events += w.events;
        self.scans += w.scans;
        self.scan_aps += w.scan_aps;
        self.cells += w.cells;
        self.accesses += w.accesses;
        self.draws += w.draws;
        self.spans += w.spans;
        self.trace_slots += w.trace_slots;
    }
}

// ---------------------------------------------------------------------------
// Compiled fleet
// ---------------------------------------------------------------------------

/// A compiled, runnable fleet scenario. Owns the per-client motion
/// profiles, paths, and full-run hint streams; [`FleetScenario::run`]
/// replays the whole fleet deterministically from the spec seed.
pub struct FleetScenario {
    spec: FleetSpec,
    env: Environment,
    policy: HandoffPolicy,
    contention: ContentionMode,
    protocol: ProtocolKind,
    profiles: Vec<MotionProfile>,
    paths: Vec<ClientPath>,
    /// Per-client workloads with trace-file sources resolved inline at
    /// compile time (span simulation never touches the filesystem).
    workloads: Vec<Workload>,
    /// Full-duration hint stream per client (`None` for hint-oblivious
    /// fleets) — drives the association/handoff decisions, and each
    /// span's adapter reads its window of it.
    hints: Vec<Option<HintStream>>,
    /// Per-client root seeds, derived from the fleet seed.
    client_seeds: Vec<u64>,
    /// Spatial index over the AP coverage disks: scans query it instead
    /// of testing every AP (exact-equivalent, so outcomes are unchanged).
    index: DiskIndex,
    /// Resolved fault schedule (empty and inert for fault-free specs).
    faults: ResolvedFaults,
    /// The work compile did (hint synthesis); every run reports it.
    compile_work: FleetWork,
}

/// One scheduled engine event (the queue also pins the FIFO order of
/// same-instant scans, which is what makes the run order deterministic).
#[derive(Clone, Copy, Debug)]
enum FleetEvent {
    /// The given client re-evaluates its association.
    Scan(usize),
    /// The given AP fails (fault schedule): evict its clients.
    ApDown(usize),
    /// The given client's radio dies (fault schedule).
    BlackoutStart(usize),
    /// The given client's radio recovers (fault schedule).
    BlackoutEnd(usize),
}

/// Per-client association bookkeeping during the event phase.
struct ClientRun {
    current: Option<usize>,
    /// When the current association became active.
    span_start: SimTime,
    /// When the client last became unassociated (for outage accounting).
    dark_since: Option<SimTime>,
    /// Closed spans: `(from, to, ap)`.
    spans: Vec<(SimTime, SimTime, usize)>,
    aps_visited: Vec<usize>,
    handoffs: u32,
    forced_handoffs: u32,
    /// A coverage loss happened and the next association should count
    /// as a forced handoff.
    pending_forced: bool,
    outage: SimDuration,
    /// The one scan instant currently considered live. Fault handling
    /// reschedules scans out from under the queued chain; a queued scan
    /// arriving at any other instant is stale and is dropped (only
    /// consulted when the fault schedule is active).
    next_scan: SimTime,
    /// Consecutive failed rescans while dark — drives the exponential
    /// backoff (fault-injected runs only).
    backoff_exp: u32,
    /// Rescans performed while unassociated (resilience metric).
    scan_retries: u32,
}

/// One association span's traffic simulation, as an arena entry Phase B
/// can hand to any worker: everything a simulation needs is derived
/// from these fields plus the (shared, read-only) compiled fleet.
#[derive(Clone, Copy, Debug)]
struct SpanTask {
    client: usize,
    /// Span ordinal within the client — derives the span seed.
    span_idx: usize,
    from: SimTime,
    to: SimTime,
    ap: usize,
}

/// One contended (AP, epoch) cell of Phase A': two or more clients on
/// one medium during one scheduling epoch.
struct ContendedCell {
    ap: usize,
    epoch: u64,
    /// Epoch bounds, µs since the run start.
    start_us: u64,
    end_us: u64,
    /// `(client, from_us, to_us)` per member, clients ascending: the
    /// envelope of the client's association spans inside the epoch.
    windows: Vec<(usize, u64, u64)>,
}

/// What Phase A' hands to Phase B: the airtime share the arbiter
/// granted each member of each contended (AP, epoch) cell, as one flat
/// table. `cells` lists the contended cells in (AP, epoch) order with
/// where their members start in `shares`; a client absent from a cell
/// is uncontended there. Only contended cells take room, so a spec with
/// a tiny epoch costs no more memory than the arbitration itself.
#[derive(Default)]
struct EpochShares {
    /// `(ap, epoch, first member)` per contended cell, ascending.
    cells: Vec<(usize, u64, usize)>,
    /// `(client, share)` per member, cell by cell, clients ascending.
    shares: Vec<(usize, f64)>,
}

impl EpochShares {
    /// The share `client` was granted in cell `(ap, epoch)`, if that
    /// cell was contended and the client was in it.
    fn get(&self, ap: usize, epoch: u64, client: usize) -> Option<f64> {
        let k = self
            .cells
            .binary_search_by_key(&(ap, epoch), |&(a, e, _)| (a, e))
            .ok()?;
        let end = self.cells.get(k + 1).map_or(self.shares.len(), |c| c.2);
        self.shares[self.cells[k].2..end]
            .iter()
            .find(|&&(c, _)| c == client)
            .map(|&(_, share)| share)
    }
}

/// Fold one span's simulation result into its client's running sums.
/// Every operation is a commutative integer addition (goodput is
/// computed from the totals after all spans land), so the fold order —
/// and hence the worker count — cannot affect the outcome.
fn merge_span(merged: &mut SimResult, from: SimTime, result: &SimResult) {
    merged.packets_sent += result.packets_sent;
    merged.packets_delivered += result.packets_delivered;
    merged.attempts += result.attempts;
    for (u, &n) in merged.rate_usage.iter_mut().zip(result.rate_usage.iter()) {
        *u += n;
    }
    merged.backhaul_dropped += result.backhaul_dropped;
    let offset_s = (from.as_micros() / 1_000_000) as usize;
    for (s, &n) in result.delivered_per_second.iter().enumerate() {
        if let Some(slot) = merged.delivered_per_second.get_mut(offset_s + s) {
            *slot += n;
        }
    }
}

/// The Phase B arena: one task per span long enough to simulate. Every
/// span's associated time counts into its AP's `association_s` whatever
/// the span length; only the traffic simulation needs slots.
fn span_tasks(runs: &[ClientRun], aps: &mut [FleetApStats]) -> Vec<SpanTask> {
    let mut tasks = Vec::new();
    for (c, run) in runs.iter().enumerate() {
        for (k, &(from, to, ap)) in run.spans.iter().enumerate() {
            let span = to.saturating_since(from);
            aps[ap].association_s += span.as_secs_f64();
            // Sub-slot spans cannot carry a trace slot; skip them.
            if span >= hint_channel::SLOT_DURATION * 2 {
                tasks.push(SpanTask {
                    client: c,
                    span_idx: k,
                    from,
                    to,
                    ap,
                });
            }
        }
    }
    tasks
}

impl FleetScenario {
    /// Validate and compile `spec`.
    pub fn compile(spec: &FleetSpec) -> Result<FleetScenario, ScenarioError> {
        let ResolvedFleet {
            protocol,
            policy,
            contention,
        } = spec.validate()?;
        let env = spec.environment.resolve();

        let root = RngStream::new(spec.seed);
        let mut compile_work = FleetWork::default();
        let mut profiles = Vec::with_capacity(spec.clients.len());
        let mut paths = Vec::with_capacity(spec.clients.len());
        let mut hints = Vec::with_capacity(spec.clients.len());
        let mut client_seeds = Vec::with_capacity(spec.clients.len());
        let mut workloads = Vec::with_capacity(spec.clients.len());
        for (i, client) in spec.clients.iter().enumerate() {
            workloads.push(
                client
                    .workload
                    .resolve()
                    .map_err(|e| ScenarioError::BadWorkload(format!("client {i}: {e}")))?,
            );
            let seed = root.derive_idx("fleet-client", i as u64).seed();
            let profile = client.motion.profile(spec.duration);
            // Per-client accelerometer noise: the fleet-level explicit
            // seed (if any) is mixed per client so two clients never
            // share a noise stream.
            let sensor_seed = |explicit: Option<u64>| match explicit {
                Some(s) => RngStream::new(s).derive_idx("fleet-hints", i as u64).seed(),
                None => seed ^ HINT_SEED_MASK,
            };
            let stream = spec.hints.stream(&profile, spec.duration, sensor_seed);
            compile_work.hint_reports += stream.as_ref().map_or(0, |s| s.len() as u64);
            paths.push(ClientPath::new(
                Position {
                    x: client.start_x_m,
                    y: client.start_y_m,
                },
                &profile,
            ));
            profiles.push(profile);
            hints.push(stream);
            client_seeds.push(seed);
        }
        let index = DiskIndex::build(
            spec.aps
                .iter()
                .map(|ap| Disk {
                    x: ap.x_m,
                    y: ap.y_m,
                    r: ap.coverage_m,
                })
                .collect(),
        );
        let faults = ResolvedFaults::resolve(spec);
        Ok(FleetScenario {
            spec: spec.clone(),
            env,
            policy,
            contention,
            protocol,
            profiles,
            paths,
            workloads,
            hints,
            client_seeds,
            index,
            faults,
            compile_work,
        })
    }

    /// The spec this fleet was compiled from.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// The resolved channel environment.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// The canonical name of the protocol every client runs.
    pub fn protocol_name(&self) -> &str {
        self.protocol.name()
    }

    /// Scan-time candidate list: every AP whose coverage disk contains
    /// `pos` **and is up at `now`**, with model RSSI, ascending by AP
    /// id. The spatial index narrows the scan to the APs near `pos`;
    /// the final containment test re-runs the engine's own distance
    /// predicate, and the down-AP filter applies *after* the index
    /// query, so the set is byte-identical to a brute-force scan over
    /// all APs with the same filter (the index's brute-force-equivalence
    /// property is untouched). Both buffers are caller-owned scratch,
    /// reused across every scan of the run; the scan and the ids the
    /// index returned count into `work`.
    fn candidates_into(
        &self,
        pos: Position,
        now: SimTime,
        ids: &mut Vec<usize>,
        out: &mut Vec<ApCandidate>,
        work: &mut FleetWork,
    ) {
        self.index.covering_into(pos.x, pos.y, ids);
        work.scans += 1;
        work.scan_aps += ids.len() as u64;
        out.clear();
        out.extend(ids.iter().filter_map(|&id| {
            if self.faults.ap_down(id, now) {
                return None;
            }
            let ap = &self.spec.aps[id];
            let ap_pos = Position {
                x: ap.x_m,
                y: ap.y_m,
            };
            let dist = pos.distance(ap_pos);
            (dist <= ap.coverage_m).then(|| ApCandidate {
                id,
                position: ap_pos,
                rssi_dbm: NOISE_FLOOR_DBM + link_snr_db(&self.env, dist, ap.coverage_m),
                coverage_m: ap.coverage_m,
            })
        }));
    }

    /// Score one candidate under `policy` (normally the fleet's handoff
    /// policy; legacy RSSI while a client's hints are dropped out).
    /// Signal scores are dBm; hint scores are predicted dwell seconds.
    fn score(&self, policy: HandoffPolicy, ap: &ApCandidate, client: &ClientMotion) -> f64 {
        match policy {
            HandoffPolicy::StrongestSignal => ap.rssi_dbm,
            HandoffPolicy::HintAware => predicted_dwell_s(ap, client),
        }
    }

    /// Run the fleet. Each call replays the identical experiment: every
    /// stream is re-derived from the spec seed.
    pub fn run(&self) -> FleetOutcome {
        self.run_counted(NonZeroUsize::MIN).0
    }

    /// Phase A: the association/handoff event loop. Returns every
    /// client's closed spans and counters, adds each AP's handoff
    /// arrivals, ghost airtime and evictions into `aps`, and counts its
    /// events and scans into `work`.
    fn associate_fleet(&self, aps: &mut [FleetApStats], work: &mut FleetWork) -> Vec<ClientRun> {
        let n_clients = self.spec.clients.len();
        let end = SimTime::ZERO + self.spec.duration;
        let reassoc = self.spec.handoff.reassociation_cost;
        let margin = self.spec.handoff.hysteresis;
        let client_hints_on = !matches!(self.spec.hints, HintSpec::None);

        let mut runs: Vec<ClientRun> = (0..n_clients)
            .map(|_| ClientRun {
                current: None,
                span_start: SimTime::ZERO,
                dark_since: Some(SimTime::ZERO),
                spans: Vec::new(),
                aps_visited: Vec::new(),
                handoffs: 0,
                forced_handoffs: 0,
                pending_forced: false,
                outage: SimDuration::ZERO,
                next_scan: SimTime::ZERO,
                backoff_exp: 0,
                scan_retries: 0,
            })
            .collect();
        // AP-side hint tables (fed by frames, as in `neighbors`): they
        // decide each departure's ghost airtime.
        let mut ap_tables: Vec<NeighborHints<usize>> =
            aps.iter().map(|_| NeighborHints::new()).collect();
        let probe_airtime_s = MacTiming::ieee80211a()
            .exchange_airtime(BitRate::R6, self.spec.payload_bytes)
            .as_secs_f64();

        let mut queue: EventQueue<FleetEvent> = EventQueue::new();
        for c in 0..n_clients {
            queue.schedule(SimTime::ZERO, FleetEvent::Scan(c));
        }
        // Window *starts* become events (evictions and radio deaths must
        // interrupt associations mid-span); recoveries matter only to the
        // affected client's own scan chain. Every window start precedes
        // the run end by validation + clipping.
        for (a, wins) in self.faults.ap_down.iter().enumerate() {
            for &(s, _) in wins {
                queue.schedule(s, FleetEvent::ApDown(a));
            }
        }
        for (c, wins) in self.faults.blackout.iter().enumerate() {
            for &(s, e) in wins {
                queue.schedule(s, FleetEvent::BlackoutStart(c));
                if e < end {
                    queue.schedule(e, FleetEvent::BlackoutEnd(c));
                }
            }
        }
        // Scan scratch, reused across every event (no per-scan allocs).
        let mut cand_ids: Vec<usize> = Vec::new();
        let mut candidates: Vec<ApCandidate> = Vec::new();
        while let Some(ev) = queue.pop() {
            work.events += 1;
            let now = ev.at;
            let c = match ev.event {
                FleetEvent::Scan(c) => c,
                FleetEvent::ApDown(a) => {
                    // Evict every associated client: close its span at
                    // the exact outage boundary (Phase B then never
                    // simulates traffic across it) and rescan at once.
                    // The AP is *off*, so unlike a silent departure it
                    // burns no ghost airtime on the evicted clients.
                    for (c, run) in runs.iter_mut().enumerate() {
                        if run.current != Some(a) {
                            continue;
                        }
                        if now > run.span_start {
                            run.spans.push((run.span_start, now, a));
                        }
                        aps[a].evictions += 1;
                        run.pending_forced = true;
                        run.current = None;
                        // A client evicted mid-reassociation was already
                        // charged outage through span_start.
                        run.dark_since = Some(now.max(run.span_start));
                        run.backoff_exp = 0;
                        run.next_scan = now;
                        queue.schedule(now, FleetEvent::Scan(c));
                    }
                    continue;
                }
                FleetEvent::BlackoutStart(c) => {
                    let run = &mut runs[c];
                    if let Some(cur) = run.current {
                        // The radio dies mid-association: the AP sees a
                        // silent departure and burns the usual ghost
                        // window on it.
                        if now > run.span_start {
                            run.spans.push((run.span_start, now, cur));
                        }
                        aps[cur].wasted_airtime_s +=
                            ghost_airtime_s(&ap_tables[cur], c, now, end, probe_airtime_s);
                        run.pending_forced = true;
                        run.current = None;
                        run.dark_since = Some(now.max(run.span_start));
                    }
                    // No scans while the radio is off: BlackoutEnd
                    // revives the chain; anything already queued goes
                    // stale via next_scan.
                    continue;
                }
                FleetEvent::BlackoutEnd(c) => {
                    let run = &mut runs[c];
                    run.backoff_exp = 0;
                    run.next_scan = now;
                    queue.schedule(now, FleetEvent::Scan(c));
                    continue;
                }
            };
            // Drop stale scan-chain events (fault handling moved the
            // chain) and scans that land inside a radio blackout.
            if now != runs[c].next_scan || self.faults.blacked_out(c, now) {
                continue;
            }
            let was_dark = runs[c].current.is_none();
            let pos = self.paths[c].position_at(now);
            // Hint health gates everything hint-flavoured this scan:
            // fresh streams serve live readings, stale ones serve the
            // reading frozen at the dropout start, and a stream past the
            // stale hold is down — the client stops claiming hints and
            // (the graceful-degradation headline) hint-aware policies
            // fall back to legacy RSSI scoring until it recovers.
            let health = self.faults.hint_health(c, now);
            let (moving, hints_down) = match (&self.hints[c], &health) {
                (None, _) => (false, false),
                (Some(h), HintHealth::Fresh) => (h.query(now), false),
                (Some(h), HintHealth::Stale(s)) => (h.query(*s), false),
                (Some(_), HintHealth::Down) => (false, true),
            };
            let policy = if hints_down {
                HandoffPolicy::StrongestSignal
            } else {
                self.policy
            };
            let profile = &self.profiles[c];
            let client = ClientMotion {
                position: pos,
                moving,
                heading_deg: profile.heading_at(now),
                speed_mps: if moving { profile.speed_at(now) } else { 0.0 },
            };
            self.candidates_into(pos, now, &mut cand_ids, &mut candidates, work);

            // The client tells its AP about its movement on every scan
            // frame (legacy fleets send no hint field, only presence —
            // and neither does a client whose hint stream is down).
            let run = &mut runs[c];
            if let Some(cur) = run.current {
                let field = if client_hints_on && !hints_down {
                    HintField::movement(moving)
                } else {
                    HintField::legacy()
                };
                ap_tables[cur].on_frame(c, now, &field);
            }

            // Score the incumbent: out of coverage scores as "no link".
            let cur_score = run.current.and_then(|cur| {
                candidates
                    .iter()
                    .find(|ap| ap.id == cur)
                    .map(|ap| self.score(policy, ap, &client))
            });
            let best = best_ap(&candidates, |ap| self.score(policy, ap, &client));

            match (run.current, best) {
                (Some(cur), _) if cur_score.is_none() => {
                    // Coverage lost. Close the span; charge the old AP
                    // the Fig. 5-1 ghost window: open-loop blasting until
                    // the prune timeout for a silent departure, or
                    // occasional probes if the AP heard a movement hint.
                    run.spans.push((run.span_start, now, cur));
                    aps[cur].wasted_airtime_s +=
                        ghost_airtime_s(&ap_tables[cur], c, now, end, probe_airtime_s);
                    run.pending_forced = true;
                    run.current = None;
                    run.dark_since = Some(now);
                    // Fall through to (None, best) handling on the NEXT
                    // scan only if no candidate exists now; otherwise
                    // re-associate immediately below.
                    if let Some((best_id, best_score)) = best {
                        if should_handoff(None, best_score, margin)
                            && self.associate(run, best_id, now, reassoc, end)
                        {
                            aps[best_id].handoffs_in += 1;
                        }
                    }
                }
                (Some(cur), Some((best_id, best_score)))
                    if best_id != cur && should_handoff(cur_score, best_score, margin) =>
                {
                    // Hint-led (voluntary) handoff: the old link still
                    // works, the AP is told, no ghost window.
                    run.spans.push((run.span_start, now, cur));
                    if self.associate(run, best_id, now, reassoc, end) {
                        aps[best_id].handoffs_in += 1;
                    }
                }
                (None, Some((best_id, best_score))) if should_handoff(None, best_score, margin) => {
                    // (associate() has side effects, so it must not move
                    // into the match guard.)
                    let recorded = self.associate(run, best_id, now, reassoc, end);
                    if recorded {
                        aps[best_id].handoffs_in += 1;
                    }
                }
                _ => {}
            }

            // Chain the next scan. Fault-free runs keep the fixed
            // cadence (byte-identical to the pre-fault engine);
            // fault-injected runs back off exponentially while a client
            // stays dark, up to the capped retry interval.
            let interval = if self.faults.active {
                let run = &mut runs[c];
                if run.current.is_none() {
                    if was_dark {
                        run.scan_retries += 1;
                    }
                    let mult = 1u64 << run.backoff_exp.min(MAX_SCAN_BACKOFF_EXP);
                    run.backoff_exp = (run.backoff_exp + 1).min(MAX_SCAN_BACKOFF_EXP);
                    self.spec.handoff.scan_interval * mult
                } else {
                    run.backoff_exp = 0;
                    self.spec.handoff.scan_interval
                }
            } else {
                self.spec.handoff.scan_interval
            };
            let next = now + interval;
            if next < end {
                runs[c].next_scan = next;
                queue.schedule(next, FleetEvent::Scan(c));
            }
        }

        // Close out the run: final spans and trailing outage.
        for run in runs.iter_mut() {
            match run.current {
                Some(cur) if run.span_start < end => {
                    run.spans.push((run.span_start, end, cur));
                }
                _ => {}
            }
            if let Some(dark) = run.dark_since.take() {
                if run.current.is_none() {
                    run.outage += end.saturating_since(dark);
                }
            }
        }
        runs
    }

    /// Phase A': shared-medium arbitration. With `contention: shared`,
    /// every (AP, scheduling epoch) whose association spans put two or
    /// more clients on one medium runs the CSMA/CA arbiter; each
    /// client's granted airtime becomes a per-second share that
    /// throttles its span traffic in Phase B. Epochs with at most one
    /// client bypass the arbiter (the paper's uncontended back-to-back
    /// sender), so a one-client fleet behaves like an isolated one.
    ///
    /// The contended cells are independent (each derives its own seed),
    /// so they shard on [`hint_sim::pool`]; results fold in (AP, epoch)
    /// order, which keeps each AP's f64 busy and collision sums — added
    /// into `aps` — byte-identical at any worker count. Each cell's work
    /// adds into `work`.
    fn arbitrate(
        &self,
        runs: &[ClientRun],
        aps: &mut [FleetApStats],
        workers: NonZeroUsize,
        work: &mut FleetWork,
    ) -> EpochShares {
        let mut table = EpochShares::default();
        if self.contention != ContentionMode::Shared {
            return table;
        }
        let cells = self.contended_cells(runs, aps.len());
        let medium_root = RngStream::new(self.spec.seed).derive("fleet-medium");
        let arbiter = AirtimeArbiter::new(ContentionParams::ieee80211a());
        pool::map_ordered(
            &cells,
            workers,
            |cell| {
                let mut cell_work = FleetWork::default();
                let (sched, shares) =
                    self.arbitrate_cell(&arbiter, &medium_root, cell, &mut cell_work);
                (sched, shares, cell_work)
            },
            |i, (sched, shares, cell_work)| {
                let cell = &cells[i];
                let ap = &mut aps[cell.ap];
                ap.contended_busy_s += sched.busy().as_secs_f64();
                ap.collision_s += sched.collision_airtime.as_secs_f64();
                ap.collisions += sched.collisions;
                *work += cell_work;
                table.cells.push((cell.ap, cell.epoch, table.shares.len()));
                let members = cell.windows.iter().map(|w| w.0);
                table.shares.extend(members.zip(shares));
            },
        );
        table
    }

    /// Arbitrate one contended cell: the arbiter's schedule totals and
    /// each member's granted share, in member order. The cell, its
    /// accesses and its draws count into `work`.
    fn arbitrate_cell(
        &self,
        arbiter: &AirtimeArbiter,
        medium_root: &RngStream,
        cell: &ContendedCell,
        work: &mut FleetWork,
    ) -> (GrantSchedule, Vec<f64>) {
        let stations = self.cell_stations(cell);
        let seed = medium_root
            .derive_idx("ap", cell.ap as u64)
            .derive_idx("epoch", cell.epoch)
            .seed();
        let epoch = SimDuration::from_micros(cell.end_us - cell.start_us);
        let sched = arbiter.arbitrate_totals(epoch, &stations, seed);
        work.cells += 1;
        work.accesses += sched.accesses;
        work.draws += sched.draws;
        let shares = (0..stations.len())
            .map(|i| sched.share(i, &stations))
            .collect();
        (sched, shares)
    }

    /// Every (AP, epoch) cell with two or more associated clients, in
    /// (AP, epoch) order.
    fn contended_cells(&self, runs: &[ClientRun], n_aps: usize) -> Vec<ContendedCell> {
        let duration_us = self.spec.duration.as_micros();
        let epoch_us = MEDIUM_EPOCH.as_micros();
        // Spans per AP, clients ascending (runs are in client order).
        let mut ap_spans: Vec<Vec<(usize, u64, u64)>> = vec![Vec::new(); n_aps];
        for (c, run) in runs.iter().enumerate() {
            for &(from, to, ap) in &run.spans {
                if to > from {
                    ap_spans[ap].push((c, from.as_micros(), to.as_micros()));
                }
            }
        }
        let mut cells = Vec::new();
        for (ap, spans) in ap_spans.iter().enumerate() {
            if spans.is_empty() {
                continue;
            }
            for epoch in 0..duration_us.div_ceil(epoch_us) {
                let start_us = epoch * epoch_us;
                let end_us = ((epoch + 1) * epoch_us).min(duration_us);
                // A client's spans inside the epoch merge to their
                // envelope; spans arrive client by client.
                let mut windows: Vec<(usize, u64, u64)> = Vec::new();
                for &(c, from, to) in spans {
                    let (f, t) = (from.max(start_us), to.min(end_us));
                    if t <= f {
                        continue;
                    }
                    match windows.last_mut() {
                        Some(w) if w.0 == c => {
                            w.1 = w.1.min(f);
                            w.2 = w.2.max(t);
                        }
                        _ => windows.push((c, f, t)),
                    }
                }
                if windows.len() >= 2 {
                    cells.push(ContendedCell {
                        ap,
                        epoch,
                        start_us,
                        end_us,
                        windows,
                    });
                }
            }
        }
        cells
    }

    /// The arbiter's stations for one contended cell, in client order.
    fn cell_stations(&self, cell: &ContendedCell) -> Vec<Station> {
        let ap = &self.spec.aps[cell.ap];
        let ap_pos = Position {
            x: ap.x_m,
            y: ap.y_m,
        };
        cell.windows
            .iter()
            .map(|&(c, f, t)| {
                // Nominal operating rate from the link SNR at the window
                // midpoint (RBAR-style decision).
                let mid = SimTime::from_micros((f + t) / 2);
                let dist = self.paths[c].position_at(mid).distance(ap_pos);
                let snr = link_snr_db(&self.env, dist, ap.coverage_m);
                let rate = best_rate_for_snr(snr, CONTENTION_RATE_TARGET);
                Station {
                    frame_airtime: MacTiming::ieee80211a()
                        .exchange_airtime(rate, self.spec.payload_bytes),
                    active_from: SimDuration::from_micros(f - cell.start_us),
                    active_to: SimDuration::from_micros(t - cell.start_us),
                }
            })
            .collect()
    }

    /// Run the fleet with `jobs` worker threads: [`FleetScenario::run_counted`]
    /// without the work counts.
    ///
    /// # Panics
    ///
    /// Panics when `jobs == 0`.
    pub fn run_with_jobs(&self, jobs: usize) -> FleetOutcome {
        // detlint::allow(PANIC001): the documented panic on zero jobs
        let workers = NonZeroUsize::new(jobs).expect("jobs must be >= 1");
        self.run_counted(workers).0
    }

    /// Run the fleet on `workers` threads of [`hint_sim::pool`] and count
    /// its work. Phase A (the association event loop) and the span arena
    /// build run on the calling thread. Phase A' (the medium arbitration)
    /// shards its contended (AP, epoch) cells, and Phase B its
    /// association spans: each cell's arbitration and each span's
    /// [`LinkSimulator`] run is a pure function of the spec seed.
    /// Results fold in item order — cells in (AP, epoch) order, spans in
    /// arena order — which makes the outcome **byte-identical for every
    /// worker count**; one worker (what [`FleetScenario::run`] uses)
    /// spawns no thread. The [`FleetWork`] includes compile's hint
    /// synthesis and is the same at any worker count too.
    pub fn run_counted(&self, workers: NonZeroUsize) -> (FleetOutcome, FleetWork) {
        let mut work = self.compile_work;
        let duration = self.spec.duration;
        let client_hints_on = !matches!(self.spec.hints, HintSpec::None);
        // Every stage adds its per-AP totals into these.
        let mut aps: Vec<FleetApStats> = self
            .faults
            .ap_down
            .iter()
            .map(|down| FleetApStats {
                down_s: ResolvedFaults::total_s(down),
                ..FleetApStats::default()
            })
            .collect();
        let runs = self.associate_fleet(&mut aps, &mut work);
        let epoch_shares = self.arbitrate(&runs, &mut aps, workers, &mut work);
        let tasks = span_tasks(&runs, &mut aps);

        // Per-client streaming accumulators: O(clients) memory however
        // many spans the run produced.
        let mut merged = vec![SimResult::empty(duration); runs.len()];
        pool::map_ordered(
            &tasks,
            workers,
            |task| self.simulate_span(task, &epoch_shares),
            |i, (result, span_work)| {
                merge_span(&mut merged[tasks[i].client], tasks[i].from, &result);
                work += span_work;
            },
        );

        let mut client_outcomes = Vec::with_capacity(runs.len());
        for ((c, run), mut merged) in runs.into_iter().enumerate().zip(merged) {
            merged.goodput_bps = goodput_bps(
                merged.packets_delivered * u64::from(self.spec.payload_bytes),
                duration,
            );
            client_outcomes.push(FleetClientOutcome {
                client: c,
                aps_visited: run.aps_visited,
                handoffs: run.handoffs,
                forced_handoffs: run.forced_handoffs,
                outage: run.outage,
                blackout_s: ResolvedFaults::total_s(&self.faults.blackout[c]),
                fallback_s: if client_hints_on && self.policy != HandoffPolicy::StrongestSignal {
                    self.faults.fallback_s(c)
                } else {
                    0.0
                },
                scan_retries: run.scan_retries,
                outcome: ScenarioOutcome {
                    environment: self.env.name.clone(),
                    protocol: self.protocol.name().to_string(),
                    seed: self.client_seeds[c],
                    result: merged,
                },
            });
        }

        let goodputs: Vec<f64> = client_outcomes
            .iter()
            .map(|c| c.outcome.result.goodput_bps)
            .collect();
        let outcome = FleetOutcome {
            environment: self.env.name.clone(),
            protocol: self.protocol.name().to_string(),
            policy: self.policy.name().to_string(),
            contention: self.contention.name().to_string(),
            seed: self.spec.seed,
            total_handoffs: client_outcomes.iter().map(|c| c.handoffs).sum(),
            forced_handoffs: client_outcomes.iter().map(|c| c.forced_handoffs).sum(),
            jain_fairness: jain_index(&goodputs),
            aggregate_goodput_mbps: goodputs.iter().sum::<f64>() / 1e6,
            clients: client_outcomes,
            aps,
        };
        (outcome, work)
    }

    /// Simulate one association span's traffic: a pure function of the
    /// compiled fleet, the task, and the Phase A' airtime shares — no
    /// mutable engine state — which is what lets Phase B shard the
    /// arena across threads. Returns the span's work with its result.
    fn simulate_span(&self, task: &SpanTask, epoch_shares: &EpochShares) -> (SimResult, FleetWork) {
        let mut work = FleetWork {
            spans: 1,
            ..FleetWork::default()
        };
        let sim = self.span_link(task, epoch_shares, &mut work);
        let mut adapter = self.protocol.build(&self.spec.protocol.params());
        // A trace workload replays the records that fall inside this
        // span, rebased to span-local time, so a client's recorded
        // schedule survives handoffs intact; Udp/Tcp borrow as-is.
        let workload = match &self.workloads[task.client] {
            Workload::Trace(TraceSource::Inline(t)) => Cow::Owned(Workload::Trace(
                TraceSource::Inline(t.window(task.from, task.to)),
            )),
            w => Cow::Borrowed(w),
        };
        (sim.run(adapter.as_mut(), &workload), work)
    }

    /// The link simulator one span runs on: the span's channel trace, its
    /// window of the client's hint stream, the AP's backhaul and the
    /// arbiter's airtime shares. The trace's slots count into `work`.
    fn span_link(
        &self,
        task: &SpanTask,
        epoch_shares: &EpochShares,
        work: &mut FleetWork,
    ) -> LinkSimulator {
        let &SpanTask {
            client: c,
            span_idx: k,
            from,
            to,
            ap: ap_id,
        } = task;
        let span = to.saturating_since(from);
        let ap = &self.spec.aps[ap_id];
        let ap_pos = Position {
            x: ap.x_m,
            y: ap.y_m,
        };
        // Mean link distance over the span (start/mid/end).
        let mid = from + span / 2;
        let dist = (self.paths[c].position_at(from).distance(ap_pos)
            + self.paths[c].position_at(mid).distance(ap_pos)
            + self.paths[c].position_at(to).distance(ap_pos))
            / 3.0;
        let mut span_env = self.env.clone();
        span_env.base_snr_db = link_snr_db(&self.env, dist, ap.coverage_m);
        let span_profile = slice_profile(&self.profiles[c], from, span);
        // The per-client stream compile() derived: re-rooting on the
        // stored seed is bit-identical (derivation is seed-pure).
        let span_seed = RngStream::new(self.client_seeds[c])
            .derive_idx("fleet-span", k as u64)
            .seed();
        let trace = Trace::generate(&span_env, &span_profile, span, span_seed);
        work.trace_slots += trace.len() as u64;
        let mut sim = LinkSimulator::from_trace(trace).with_payload(self.spec.payload_bytes);
        // The adapter reads the same hint stream the scans read: the
        // client's one detector, windowed to this span.
        if let Some(stream) = &self.hints[c] {
            sim = sim.with_owned_hints(stream.window(from, to));
        }
        // The span's AP brings its wired backhaul (if the spec gave it
        // one): a Flow workload's connection state — window, RTT
        // estimate, queue occupancy — resets at each association span,
        // modelling a fresh flow per association.
        if let Some(backhaul) = ap.backhaul {
            sim = sim.with_backhaul(backhaul);
        }
        if self.contention == ContentionMode::Shared {
            // Trace second s of the span runs at the share the arbiter
            // granted this client for the epoch containing that
            // second's start.
            let epoch_us = MEDIUM_EPOCH.as_micros();
            let n_secs = span.as_secs_f64().ceil() as usize;
            let span_shares: Vec<f64> = (0..n_secs)
                .map(|s| {
                    let t_us = from.as_micros() + s as u64 * 1_000_000;
                    epoch_shares.get(ap_id, t_us / epoch_us, c).unwrap_or(1.0)
                })
                .collect();
            sim = sim.with_airtime_shares(span_shares);
        }
        sim
    }

    /// Activate an association for `run` at `now` (plus the
    /// reassociation cost), updating handoff counters and outage.
    /// Returns whether a handoff was recorded, so the caller's per-AP
    /// arrival counter always agrees with the client's handoff count
    /// (initial association and re-joining the AP last left count as
    /// neither).
    fn associate(
        &self,
        run: &mut ClientRun,
        ap_id: usize,
        now: SimTime,
        reassoc: SimDuration,
        end: SimTime,
    ) -> bool {
        let active = (now + reassoc).min(end);
        if let Some(dark) = run.dark_since.take() {
            run.outage += active.saturating_since(dark);
        } else {
            run.outage += active.saturating_since(now);
        }
        let mut recorded = false;
        if run.aps_visited.last() != Some(&ap_id) {
            if !run.aps_visited.is_empty() {
                run.handoffs += 1;
                recorded = true;
                if run.pending_forced {
                    run.forced_handoffs += 1;
                }
            }
            run.aps_visited.push(ap_id);
        }
        run.pending_forced = false;
        run.current = Some(ap_id);
        run.span_start = active;
        recorded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hint_rateadapt::fleet::{
        ApOutage, ApPlacement, FaultSpec, FleetBounds, FleetClientSpec, HandoffSpec, HintDropout,
        MediumSpec, RadioBlackout,
    };
    use hint_rateadapt::scenario::MotionSpec;
    use hint_rateadapt::Workload;

    fn ap(x_m: f64, y_m: f64, coverage_m: f64) -> ApPlacement {
        ApPlacement {
            x_m,
            y_m,
            coverage_m,
            backhaul: None,
        }
    }

    /// A saturated-UDP client starting at `(x, y)`.
    fn client(start_x_m: f64, start_y_m: f64, motion: MotionSpec) -> FleetClientSpec {
        FleetClientSpec {
            start_x_m,
            start_y_m,
            motion,
            workload: Workload::Udp,
        }
    }

    fn bounds(width_m: f64, height_m: f64) -> FleetBounds {
        FleetBounds { width_m, height_m }
    }

    /// The default handoff cadence under the named policy.
    fn handoff(policy: &str) -> HandoffSpec {
        HandoffSpec {
            policy: policy.to_string(),
            ..HandoffSpec::default()
        }
    }

    /// Two APs 120 m apart with 70 m coverage; two walkers crossing the
    /// floor east/west, one static client parked near AP 0.
    fn crossing_fleet(policy: &str) -> FleetSpec {
        let walker = |heading_deg| MotionSpec::Walking {
            speed_mps: 1.6,
            heading_deg,
        };
        FleetSpec {
            bounds: bounds(200.0, 100.0),
            aps: vec![ap(40.0, 50.0, 70.0), ap(160.0, 50.0, 70.0)],
            clients: vec![
                client(5.0, 50.0, walker(90.0)),
                client(195.0, 50.0, walker(270.0)),
                client(30.0, 40.0, MotionSpec::Stationary),
            ],
            duration: SimDuration::from_secs(90),
            seed: 0xF1EE7,
            handoff: handoff(policy),
            ..FleetSpec::default()
        }
    }

    /// Every span's simulator reads the client's one compiled hint
    /// stream, offset to the span start — on the report grid, between
    /// reports, and past the span's end — under the default and an
    /// explicit sensor seed, so the adapter and the scans always read the
    /// same detector.
    #[test]
    fn span_simulators_window_the_compiled_hint_stream() {
        let seeds = [None, Some(0xACCE1)];
        for explicit in seeds {
            let mut spec = crossing_fleet("hint-aware");
            spec.hints = HintSpec::Sensors { seed: explicit };
            let fleet = FleetScenario::compile(&spec).expect("valid");
            let end = SimTime::ZERO + spec.duration;
            for (c, client) in spec.clients.iter().enumerate() {
                let client_seed = RngStream::new(spec.seed)
                    .derive_idx("fleet-client", c as u64)
                    .seed();
                let hint_seed = match explicit {
                    Some(s) => RngStream::new(s).derive_idx("fleet-hints", c as u64).seed(),
                    None => client_seed ^ HINT_SEED_MASK,
                };
                let want = HintStream::from_sensors(
                    &client.motion.profile(spec.duration),
                    spec.duration,
                    hint_seed,
                );
                let got = fleet.hints[c].as_ref().expect("sensor hints");
                for t_us in (0..end.as_micros() + 10_000).step_by(1_999) {
                    let t = SimTime::from_micros(t_us);
                    assert_eq!(got.query(t), want.query(t), "client {c} t {t_us} µs");
                }
            }

            let mut aps = vec![FleetApStats::default(); spec.aps.len()];
            let mut work = FleetWork::default();
            let runs = fleet.associate_fleet(&mut aps, &mut work);
            let shares = fleet.arbitrate(&runs, &mut aps, NonZeroUsize::MIN, &mut work);
            let tasks = span_tasks(&runs, &mut aps);
            assert!(tasks.len() >= 5, "{} spans", tasks.len());
            assert!(tasks.iter().any(|t| t.from > SimTime::ZERO));
            for task in &tasks {
                let sim = fleet.span_link(task, &shares, &mut work);
                let got = sim.hint_stream().expect("hinted fleet");
                let full = fleet.hints[task.client].as_ref().expect("sensor hints");
                let span_us = task.to.saturating_since(task.from).as_micros();
                // Grid points of the span and of the full stream, and
                // points between them.
                let off = task.from.as_micros() % 2_000;
                let mut ts: Vec<u64> = (0..span_us).step_by(2_000).collect();
                ts.extend((0..span_us).step_by(2_000).map(|t| t + 2_000 - off));
                ts.extend((0..span_us).step_by(1_337));
                for t_us in ts.into_iter().filter(|&t| t < span_us) {
                    let t = SimTime::from_micros(t_us);
                    assert_eq!(
                        got.query(t),
                        full.query(task.from + t.saturating_since(SimTime::ZERO)),
                        "client {} span {} t {t_us} µs",
                        task.client,
                        task.span_idx
                    );
                }
                // Past the span's end the window holds its last value; a
                // span that runs to the end of the fleet agrees with the
                // full stream everywhere.
                for past_us in [span_us, span_us + 1, span_us + 5_000, span_us * 4] {
                    let t = SimTime::from_micros(past_us);
                    let want = if task.to >= end {
                        full.query(task.from + t.saturating_since(SimTime::ZERO))
                    } else {
                        full.query(task.to - SimDuration::from_micros(1))
                    };
                    assert_eq!(got.query(t), want, "past the end of {task:?}");
                }
            }
        }
    }

    #[test]
    fn crossing_clients_hand_off_between_aps() {
        for policy in ["strongest-signal", "hint-aware"] {
            let fleet = FleetScenario::compile(&crossing_fleet(policy)).expect("valid");
            let out = fleet.run();
            // Both walkers visit both APs; the parked client stays put.
            for c in [0, 1] {
                assert!(
                    out.clients[c].aps_visited.len() >= 2,
                    "{policy}: client {c} visited {:?}",
                    out.clients[c].aps_visited
                );
                assert!(out.clients[c].handoffs >= 1, "{policy}: client {c}");
            }
            assert_eq!(out.clients[2].aps_visited, vec![0], "{policy}");
            assert_eq!(out.clients[2].handoffs, 0, "{policy}");
            assert!(out.total_handoffs >= 2, "{policy}");
            // Per-AP arrivals and per-client handoffs are two views of
            // the same events.
            assert_eq!(
                out.aps.iter().map(|a| a.handoffs_in).sum::<u32>(),
                out.total_handoffs,
                "{policy}: AP arrivals disagree with client handoffs"
            );
            // Everyone moves traffic.
            for c in &out.clients {
                assert!(
                    c.outcome.result.goodput_bps > 0.0,
                    "{policy}: client {} moved no traffic",
                    c.client
                );
            }
            assert!(
                out.jain_fairness > 0.3 && out.jain_fairness <= 1.0,
                "{policy}"
            );
        }
    }

    #[test]
    fn fleet_runs_are_bit_identical() {
        let fleet = FleetScenario::compile(&crossing_fleet("hint-aware")).expect("valid");
        let a = fleet.run();
        let b = fleet.run();
        assert_eq!(a, b);
        assert_eq!(a.to_json_pretty(), b.to_json_pretty());
        // And recompiling from the same spec changes nothing either.
        let again = FleetScenario::compile(&crossing_fleet("hint-aware"))
            .expect("valid")
            .run();
        assert_eq!(a, again);
    }

    #[test]
    fn sharded_runs_are_byte_identical_to_serial() {
        // The `--jobs N` contract: any worker count replays the serial
        // outcome byte-for-byte, for isolated and contended media alike.
        let crossing = FleetScenario::compile(&crossing_fleet("hint-aware")).expect("valid");
        let serial = crossing.run();
        for jobs in [2, 3, 4, 8] {
            let sharded = crossing.run_with_jobs(jobs);
            assert_eq!(serial, sharded, "jobs={jobs}");
            assert_eq!(
                serial.to_json_pretty(),
                sharded.to_json_pretty(),
                "jobs={jobs}"
            );
        }
        let contended =
            FleetScenario::compile(&parked_fleet(4, MediumSpec::shared())).expect("valid");
        let serial = contended.run();
        for jobs in [2, 4] {
            assert_eq!(serial, contended.run_with_jobs(jobs), "shared jobs={jobs}");
        }
        // More workers than spans degrades gracefully too.
        assert_eq!(serial, contended.run_with_jobs(64));
    }

    #[test]
    fn hint_policies_avoid_forced_handoffs() {
        let signal = FleetScenario::compile(&crossing_fleet("strongest-signal"))
            .expect("valid")
            .run();
        let hint = FleetScenario::compile(&crossing_fleet("hint-aware"))
            .expect("valid")
            .run();
        // The hint policy switches toward the AP ahead before coverage
        // runs out, so it never loses the link mid-walk.
        assert!(
            hint.forced_handoffs <= signal.forced_handoffs,
            "hint {} vs signal {}",
            hint.forced_handoffs,
            signal.forced_handoffs
        );
        // Ghost airtime only accrues when clients vanish silently.
        let hint_wasted: f64 = hint.aps.iter().map(|a| a.wasted_airtime_s).sum();
        let signal_wasted: f64 = signal.aps.iter().map(|a| a.wasted_airtime_s).sum();
        assert!(
            hint_wasted <= signal_wasted + 1e-9,
            "hint {hint_wasted} vs signal {signal_wasted}"
        );
    }

    #[test]
    fn rejoining_the_same_ap_after_an_outage_is_not_a_handoff() {
        // One AP, one walker that leaves coverage and walks back in: the
        // outage is real, but no AP-to-AP handoff ever happens, and the
        // AP arrival counter must agree.
        let spec = FleetSpec {
            bounds: bounds(300.0, 100.0),
            aps: vec![ap(40.0, 50.0, 60.0)],
            clients: vec![client(
                40.0,
                50.0,
                MotionSpec::Custom(vec![
                    // Walk east out of coverage...
                    hint_sensors::motion::MotionSegment {
                        state: hint_sensors::motion::MotionState::Vehicle { speed_mps: 10.0 },
                        duration: SimDuration::from_secs(10),
                        heading_deg: 90.0,
                    },
                    // ...and straight back.
                    hint_sensors::motion::MotionSegment {
                        state: hint_sensors::motion::MotionState::Vehicle { speed_mps: 10.0 },
                        duration: SimDuration::from_secs(10),
                        heading_deg: 270.0,
                    },
                ]),
            )],
            duration: SimDuration::from_secs(20),
            seed: 3,
            handoff: handoff("strongest-signal"),
            ..FleetSpec::default()
        };
        let out = FleetScenario::compile(&spec).expect("valid").run();
        let c = &out.clients[0];
        assert_eq!(c.aps_visited, vec![0], "left and rejoined the same AP");
        assert_eq!(c.handoffs, 0);
        assert_eq!(out.aps[0].handoffs_in, 0);
        // The out-of-coverage spell shows up as outage and ghost airtime.
        assert!(c.outage > SimDuration::from_secs(1), "outage {}", c.outage);
        assert!(out.aps[0].wasted_airtime_s > 0.0);
        // Association time counts both spans, outage neither.
        assert!(
            out.aps[0].association_s > 10.0 && out.aps[0].association_s < 19.0,
            "association_s {}",
            out.aps[0].association_s
        );
    }

    /// `n` stationary clients parked at staggered distances around one
    /// AP — the canonical contention geometry.
    fn parked_fleet(n: usize, medium: MediumSpec) -> FleetSpec {
        let clients = (0..n)
            .map(|i| {
                let angle = i as f64 * 2.399; // golden angle: spread, no overlap
                let r = 8.0 + 3.0 * i as f64;
                client(
                    70.0 + r * angle.cos(),
                    50.0 + r * angle.sin(),
                    MotionSpec::Stationary,
                )
            })
            .collect();
        FleetSpec {
            bounds: bounds(140.0, 100.0),
            aps: vec![ap(70.0, 50.0, 65.0)],
            clients,
            duration: SimDuration::from_secs(12),
            seed: 0xC0117E57,
            handoff: handoff("strongest-signal"),
            medium,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn shared_medium_saturates_per_ap_throughput() {
        let run = |n: usize, medium: MediumSpec| {
            FleetScenario::compile(&parked_fleet(n, medium))
                .expect("valid")
                .run()
        };
        let isolated = run(4, MediumSpec::isolated());
        let shared = run(4, MediumSpec::shared());
        // Contention makes per-AP aggregate throughput sub-additive.
        assert!(
            shared.aggregate_goodput_mbps < isolated.aggregate_goodput_mbps * 0.7,
            "shared {} vs isolated {}",
            shared.aggregate_goodput_mbps,
            isolated.aggregate_goodput_mbps
        );
        // Nobody starves, and the medium accounting is visible.
        for c in &shared.clients {
            assert!(c.outcome.result.goodput_bps > 0.0, "client {}", c.client);
        }
        assert_eq!(shared.contention, "shared");
        assert!(shared.aps[0].contended_busy_s > 0.0);
        assert!(shared.jain_fairness > 0.5, "{}", shared.jain_fairness);
        // A lone client never contends: shared == its own isolated run.
        let solo_shared = run(1, MediumSpec::shared());
        let solo_isolated = run(1, MediumSpec::isolated());
        assert_eq!(
            solo_shared.aggregate_goodput_mbps,
            solo_isolated.aggregate_goodput_mbps
        );
        assert_eq!(solo_shared.aps[0].contended_busy_s, 0.0);
    }

    #[test]
    fn shared_fleet_runs_are_bit_identical() {
        let fleet = FleetScenario::compile(&parked_fleet(3, MediumSpec::shared())).expect("valid");
        let a = fleet.run();
        let b = fleet.run();
        assert_eq!(a, b);
        assert_eq!(a.to_json_pretty(), b.to_json_pretty());
        let again = FleetScenario::compile(&parked_fleet(3, MediumSpec::shared()))
            .expect("valid")
            .run();
        assert_eq!(a, again);
    }

    /// Phase A''s exact work on the checked-in contended office: the
    /// arbiter's accesses and backoff draws, at any worker count. The
    /// counts pin "same draws, same order" for any rewrite of the loop.
    #[test]
    fn contended_office_arbitration_work_is_pinned() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/fleet_contended_office.json"
        );
        let spec = FleetSpec::load(std::path::Path::new(path)).expect("spec loads");
        let fleet = FleetScenario::compile(&spec).expect("valid");
        let mut aps = vec![FleetApStats::default(); spec.aps.len()];
        let runs = fleet.associate_fleet(&mut aps, &mut FleetWork::default());
        for workers in [1, 2, 4] {
            let mut aps = aps.clone();
            let workers = NonZeroUsize::new(workers).expect("non-zero");
            let mut work = FleetWork::default();
            fleet.arbitrate(&runs, &mut aps, workers, &mut work);
            assert_eq!(
                (work.accesses, work.draws),
                (91_333, 337_981),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn shared_outcome_serializes_contention_and_round_trips() {
        let out = FleetScenario::compile(&parked_fleet(3, MediumSpec::shared()))
            .expect("valid")
            .run();
        let json = out.to_json_pretty();
        assert!(json.contains("\"contention\": \"shared\""), "{json}");
        assert!(json.contains("contended_busy_s"), "{json}");
        let back = FleetOutcome::from_json(&json).expect("parses");
        assert_eq!(back, out);
        // Isolated outcomes keep the pre-contention schema exactly.
        let iso = FleetScenario::compile(&parked_fleet(3, MediumSpec::isolated()))
            .expect("valid")
            .run();
        let iso_json = iso.to_json_pretty();
        assert!(!iso_json.contains("contention"), "{iso_json}");
        assert!(!iso_json.contains("contended_busy_s"), "{iso_json}");
    }

    #[test]
    fn degenerate_fleet_with_unassociated_client_stays_total() {
        // One client parked far outside the only AP's coverage: it never
        // associates, moves no traffic, and must not poison any statistic
        // with NaN — under either medium model.
        for medium in [MediumSpec::isolated(), MediumSpec::shared()] {
            let spec = FleetSpec {
                bounds: bounds(400.0, 100.0),
                aps: vec![ap(40.0, 50.0, 50.0)],
                clients: vec![
                    client(30.0, 50.0, MotionSpec::Stationary),
                    client(390.0, 50.0, MotionSpec::Stationary),
                ],
                duration: SimDuration::from_secs(10),
                seed: 5,
                handoff: handoff("strongest-signal"),
                medium,
                ..FleetSpec::default()
            };
            let out = FleetScenario::compile(&spec).expect("valid").run();
            let dark = &out.clients[1];
            assert!(dark.aps_visited.is_empty());
            assert_eq!(dark.outcome.result.goodput_bps, 0.0);
            assert_eq!(dark.outage, SimDuration::from_secs(10));
            assert!(out.jain_fairness.is_finite());
            assert!(out.jain_fairness > 0.0 && out.jain_fairness <= 1.0);
            assert!(out.aggregate_goodput_mbps.is_finite());
            for ap in &out.aps {
                assert!(ap.association_s.is_finite());
                assert!(ap.wasted_airtime_s.is_finite());
                assert!(ap.contended_busy_s.is_finite());
                assert!(ap.collision_s.is_finite());
            }
            // Everything serializes to finite JSON and round-trips.
            let back = FleetOutcome::from_json(&out.to_json_pretty()).expect("parses");
            assert_eq!(back, out);
        }
    }

    #[test]
    fn fault_free_faultspec_runs_byte_identical_to_no_faultspec() {
        // A FaultSpec with no windows (here: only the naive-fallback
        // flag set, which acts on dropout windows alone) must take the
        // exact pre-fault code paths.
        let base = crossing_fleet("hint-aware");
        let mut with_empty = base.clone();
        with_empty.faults = FaultSpec {
            hint_fallback: false,
            ..FaultSpec::default()
        };
        assert!(!with_empty.faults.is_default());
        let a = FleetScenario::compile(&base).expect("valid").run();
        let b = FleetScenario::compile(&with_empty).expect("valid").run();
        assert_eq!(a, b);
        assert_eq!(a.to_json_pretty(), b.to_json_pretty());
    }

    #[test]
    fn ap_outage_evicts_clients_and_counts_resilience_metrics() {
        let mut spec = parked_fleet(3, MediumSpec::isolated());
        spec.faults.ap_outages.push(ApOutage {
            ap: 0,
            start: SimDuration::from_secs(4),
            duration: SimDuration::from_secs(3),
        });
        let fleet = FleetScenario::compile(&spec).expect("valid");
        let out = fleet.run();
        // Everyone was associated when the AP died: one eviction each,
        // and the schedule-derived downtime is exact.
        assert_eq!(out.aps[0].evictions, 3);
        assert!((out.aps[0].down_s - 3.0).abs() < 1e-9);
        // A dead AP burns no ghost airtime on its evictees.
        assert_eq!(out.aps[0].wasted_airtime_s, 0.0);
        for c in &out.clients {
            // Eviction, backed-off rescans, rejoin of the same AP: an
            // outage but no AP-to-AP handoff.
            assert_eq!(c.aps_visited, vec![0], "client {}", c.client);
            assert_eq!(c.handoffs, 0, "client {}", c.client);
            assert!(
                c.outage >= SimDuration::from_secs(3),
                "client {} outage {}",
                c.client,
                c.outage
            );
            assert!(c.scan_retries > 0, "client {}", c.client);
        }
        // The fault path keeps the Phase B sharding contract.
        for jobs in [2, 4] {
            assert_eq!(out, fleet.run_with_jobs(jobs), "jobs={jobs}");
        }
        // And replays byte-identically.
        assert_eq!(out.to_json_pretty(), fleet.run().to_json_pretty());
    }

    #[test]
    fn hint_dropout_falls_back_to_rssi_and_naive_trusting_stays_stuck() {
        // Client 0 (the eastbound walker) loses its hint stream for the
        // whole run.
        let mut spec = crossing_fleet("hint-aware");
        spec.faults.hint_dropouts.push(HintDropout {
            client: 0,
            start: SimDuration::ZERO,
            duration: SimDuration::from_secs(90),
        });
        let out = FleetScenario::compile(&spec).expect("valid").run();
        // 90 s window minus the 2 s stale hold ran in RSSI fallback.
        assert!(
            (out.clients[0].fallback_s - 88.0).abs() < 1e-9,
            "fallback {}",
            out.clients[0].fallback_s
        );
        assert_eq!(out.clients[1].fallback_s, 0.0);
        // Degraded, not stranded: the walker still crosses to AP 1.
        assert!(
            out.clients[0].aps_visited.len() >= 2,
            "visited {:?}",
            out.clients[0].aps_visited
        );

        // The naive ablation (hint_fallback: false) keeps trusting the
        // frozen "stationary" reading: every candidate scores an
        // infinite dwell, hysteresis never clears, and the walker rides
        // AP 0 to the coverage edge — a forced handoff the fallback
        // policy avoids by switching on signal strength.
        let mut naive = spec.clone();
        naive.faults.hint_fallback = false;
        let nout = FleetScenario::compile(&naive).expect("valid").run();
        assert_eq!(nout.clients[0].fallback_s, 0.0);
        assert!(
            nout.clients[0].forced_handoffs > out.clients[0].forced_handoffs
                || nout.clients[0].outage > out.clients[0].outage,
            "naive should degrade: naive forced={} outage={} vs fallback forced={} outage={}",
            nout.clients[0].forced_handoffs,
            nout.clients[0].outage,
            out.clients[0].forced_handoffs,
            out.clients[0].outage
        );
    }

    #[test]
    fn radio_blackout_truncates_spans_and_charges_ghost_airtime() {
        let mut spec = parked_fleet(2, MediumSpec::isolated());
        spec.faults.radio_blackouts.push(RadioBlackout {
            client: 1,
            start: SimDuration::from_secs(3),
            duration: SimDuration::from_secs(4),
        });
        let out = FleetScenario::compile(&spec).expect("valid").run();
        let dead = &out.clients[1];
        assert!((dead.blackout_s - 4.0).abs() < 1e-9);
        assert!(
            dead.outage >= SimDuration::from_secs(4),
            "outage {}",
            dead.outage
        );
        // The radio died silently: the AP burns a ghost window on it.
        assert!(out.aps[0].wasted_airtime_s > 0.0);
        // The untouched client carries no resilience metrics.
        assert_eq!(out.clients[0].blackout_s, 0.0);
        assert_eq!(out.clients[0].scan_retries, 0);
        // Spans truncate at the blackout boundary: the 12 s run loses
        // the 4 s hole from AP association time.
        assert!(
            out.aps[0].association_s < 2.0 * 12.0 - 3.5,
            "association_s {}",
            out.aps[0].association_s
        );
        // Everything round-trips with the sparse resilience fields.
        let back = FleetOutcome::from_json(&out.to_json_pretty()).expect("parses");
        assert_eq!(back, out);
    }

    #[test]
    fn slice_profile_preserves_total_duration() {
        let p = MotionProfile::static_move_static(
            SimDuration::from_secs(5),
            SimDuration::from_secs(10),
            SimDuration::from_secs(5),
        );
        let s = slice_profile(&p, SimTime::from_secs(3), SimDuration::from_secs(8));
        assert_eq!(s.duration(), SimDuration::from_secs(8));
        // 3..5 static, 5..11 walking.
        assert_eq!(s.segments().len(), 2);
        assert_eq!(s.segments()[0].duration, SimDuration::from_secs(2));
        // Slices past the end extend the last segment.
        let tail = slice_profile(&p, SimTime::from_secs(18), SimDuration::from_secs(10));
        assert_eq!(tail.duration(), SimDuration::from_secs(10));
        assert!(!tail.segments().iter().any(|seg| seg.state.is_moving()));
    }

    #[test]
    fn client_path_follows_heading() {
        let profile = MotionProfile::walking(SimDuration::from_secs(10), 2.0, 90.0);
        let path = ClientPath::new(Position { x: 10.0, y: 5.0 }, &profile);
        let p = path.position_at(SimTime::from_secs(5));
        assert!((p.x - 20.0).abs() < 1e-9, "east by 10 m: {}", p.x);
        assert!((p.y - 5.0).abs() < 1e-9);
        // Past the schedule the last leg extends.
        let p = path.position_at(SimTime::from_secs(20));
        assert!((p.x - 50.0).abs() < 1e-9);
    }

    #[test]
    fn link_snr_rolls_off_toward_coverage_edge() {
        let env = Environment::office();
        let near = link_snr_db(&env, 10.0, 70.0);
        let edge = link_snr_db(&env, 70.0, 70.0);
        assert!(near > env.base_snr_db);
        assert!(edge < env.base_snr_db - 10.0, "edge {edge}");
        assert!(near > edge);
    }
}
