//! The trace-driven link simulator.
//!
//! Replicates the paper's evaluation machinery (Sec. 3.3): a sender runs a
//! rate-adaptation protocol; each transmission's fate is decided by the
//! channel trace (per 5 ms slot, per rate), not by a propagation model;
//! airtime comes from the 802.11a timing tables; throughput is delivered
//! payload over wall-clock time.
//!
//! Feedback channels, matching Sec. 3.4's assumptions:
//!
//! * **Frame outcomes** reach the adapter after every attempt.
//! * **Receiver SNR** reaches the adapter every packet ("we assumed that
//!   the sender has up-to-date knowledge about the receiver SNR"), when
//!   the adapter reads it ([`RateAdapter::reads_snr`]).
//! * **Movement hints** reach the adapter every packet when a
//!   [`HintStream`] is attached (the hint bit rides ACK and probe-request
//!   frames, Sec. 2.3).

use crate::hintstream::HintStream;
use crate::protocols::RateAdapter;
use crate::trace::{Direction, PacketRecord, PacketTrace};
use crate::workload::{FlowConfig, TcpConfig, TraceSource, Workload};
use hint_cc::{BackhaulSpec, DropTailQueue, RttEstimator};
use hint_channel::Trace;
use hint_mac::{BitRate, MacTiming};
use hint_sim::{RngStream, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Standard deviation of per-packet SNR measurement noise, dB.
pub const SNR_MEASUREMENT_NOISE_DB: f64 = 2.0;

/// Smallest airtime share a contended sender can be throttled to: a
/// share below this dilates each exchange by more than 64x, at which
/// point the epoch carries no meaningful traffic anyway and further
/// dilation only risks degenerate arithmetic.
pub const MIN_AIRTIME_SHARE: f64 = 1.0 / 64.0;

/// Result of one simulated run.
///
/// Serializable so scenario outcomes are storable artifacts (see
/// [`crate::scenario::ScenarioOutcome`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Packets handed to the link (TCP: segments; UDP: datagrams).
    pub packets_sent: u64,
    /// Packets delivered (link-ACKed).
    pub packets_delivered: u64,
    /// Link-layer transmission attempts (≥ packets_sent under TCP retries).
    pub attempts: u64,
    /// Delivered payload bits per second of simulated time.
    pub goodput_bps: f64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Attempts per bit rate (diagnostic).
    pub rate_usage: [u64; BitRate::COUNT],
    /// Delivered-packet count bucketed per second (time series for the
    /// Fig. 5-1-style plots).
    pub delivered_per_second: Vec<u64>,
    /// Packets dropped at the wired backhaul's drop-tail queue. Always
    /// zero without a backhaul (and for the open-loop workloads, which
    /// never enter the wire) — and omitted from the serialized form in
    /// that case, so every pre-backhaul outcome stays byte-identical.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub backhaul_dropped: u64,
}

/// `skip_serializing_if` predicate for sparse counters: true at the
/// type's default (zero).
pub(crate) fn is_zero<T: Default + PartialEq>(v: &T) -> bool {
    *v == T::default()
}

/// Delivered payload bits per second of `duration`.
///
/// The one goodput formula: a single run divides its delivered bytes by
/// the trace duration, and a fleet client divides the bytes of its
/// merged spans by the fleet duration.
pub fn goodput_bps(delivered_bytes: u64, duration: SimDuration) -> f64 {
    delivered_bytes as f64 * 8.0 / duration.as_secs_f64()
}

impl SimResult {
    /// The zero tally over `duration`: nothing sent, and one empty
    /// per-second bucket per started second.
    pub fn empty(duration: SimDuration) -> Self {
        SimResult {
            packets_sent: 0,
            packets_delivered: 0,
            attempts: 0,
            goodput_bps: 0.0,
            duration,
            rate_usage: [0; BitRate::COUNT],
            delivered_per_second: vec![0; duration.as_secs_f64().ceil() as usize],
            backhaul_dropped: 0,
        }
    }

    /// Goodput in Mbit/s.
    pub fn goodput_mbps(&self) -> f64 {
        self.goodput_bps / 1e6
    }

    /// Link-level delivery ratio across attempts.
    pub fn attempt_delivery_ratio(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.packets_delivered as f64 / self.attempts as f64
    }
}

/// The trace-driven link simulator.
///
/// The simulator either **borrows** its trace and hint stream (the
/// classic [`LinkSimulator::new`] / [`LinkSimulator::with_hints`] path,
/// zero-copy for sweeps that run many adapters over one trace) or
/// **owns** them ([`LinkSimulator::from_trace`] /
/// [`LinkSimulator::with_owned_hints`], yielding a self-contained
/// `LinkSimulator<'static>` that a [`crate::scenario::Scenario`] can
/// carry across threads without tethering a borrow).
pub struct LinkSimulator<'a> {
    trace: Cow<'a, Trace>,
    timing: MacTiming,
    payload_bytes: u32,
    hints: Option<Cow<'a, HintStream>>,
    /// Per-rate successful-exchange airtime for `payload_bytes`, hoisted
    /// out of the per-attempt loop (the symbol-packing arithmetic is pure
    /// in (rate, payload), and a 10 s trace makes tens of thousands of
    /// attempts).
    exchange_airtimes: [SimDuration; BitRate::COUNT],
    /// Per-second airtime shares from a shared-medium arbiter (see
    /// [`LinkSimulator::with_airtime_shares`]); `None` — the default —
    /// is the uncontended sender, byte-identical to the pre-contention
    /// simulator.
    airtime_shares: Option<Vec<f64>>,
    /// The AP's wired backhaul (see [`LinkSimulator::with_backhaul`]);
    /// `None` — the default — is an ideal wire: infinite rate, zero
    /// delay, no queue, exactly the pre-backhaul behaviour.
    backhaul: Option<BackhaulSpec>,
}

impl<'a> LinkSimulator<'a> {
    /// Simulator over a borrowed `trace` with 1000-byte packets and no
    /// hint feed.
    pub fn new(trace: &'a Trace) -> Self {
        Self::over(Cow::Borrowed(trace))
    }

    /// Simulator that **owns** `trace`, yielding a `'static` value that a
    /// scenario (or a worker thread) can carry without a tethering borrow.
    pub fn from_trace(trace: Trace) -> LinkSimulator<'static> {
        LinkSimulator::over(Cow::Owned(trace))
    }

    fn over(trace: Cow<'a, Trace>) -> Self {
        let timing = MacTiming::ieee80211a();
        LinkSimulator {
            trace,
            exchange_airtimes: Self::airtime_table(&timing, 1000),
            timing,
            payload_bytes: 1000,
            hints: None,
            airtime_shares: None,
            backhaul: None,
        }
    }

    fn airtime_table(timing: &MacTiming, payload_bytes: u32) -> [SimDuration; BitRate::COUNT] {
        let mut table = [SimDuration::ZERO; BitRate::COUNT];
        for &rate in &BitRate::ALL {
            table[rate.index()] = timing.exchange_airtime(rate, payload_bytes);
        }
        table
    }

    /// Attach a movement-hint stream (enables hint-aware protocols).
    pub fn with_hints(mut self, hints: &'a HintStream) -> Self {
        self.hints = Some(Cow::Borrowed(hints));
        self
    }

    /// Attach an owned movement-hint stream (the self-contained path:
    /// no borrow ties the simulator to the stream's storage).
    pub fn with_owned_hints(mut self, hints: HintStream) -> Self {
        self.hints = Some(Cow::Owned(hints));
        self
    }

    /// Throttle the sender to a per-second airtime share of the medium,
    /// as granted by a shared-medium arbiter
    /// (`hint_mac::contention::AirtimeArbiter`): during trace second `s`
    /// every exchange occupies `airtime / shares[s]` of wall-clock time —
    /// the sender waits out other stations' transmissions, DIFS, backoff
    /// and collisions between its own frames. Seconds past the end of
    /// `shares` are uncontended (share 1). Shares clamp to
    /// [`MIN_AIRTIME_SHARE`] so a starved second stays finite.
    ///
    /// Without this call the simulator is the paper's back-to-back
    /// uncontended sender, byte-identical to the pre-contention engine.
    pub fn with_airtime_shares(mut self, shares: Vec<f64>) -> Self {
        self.airtime_shares = Some(
            shares
                .into_iter()
                .map(|s| {
                    if s.is_finite() {
                        s.clamp(MIN_AIRTIME_SHARE, 1.0)
                    } else {
                        1.0
                    }
                })
                .collect(),
        );
        self
    }

    /// Put a wired backhaul with a finite drop-tail queue behind the AP.
    ///
    /// Only [`Workload::Flow`] traffic crosses the wire: each flow
    /// packet serialises onto the backhaul at `rate_bps` (queueing
    /// behind earlier packets, dropped on a full queue of `queue_pkts`),
    /// crosses in `delay`, and only then contends for the air; acks pay
    /// `delay` again on the way back. The open-loop workloads
    /// (UDP/TCP/Trace) model the wireless hop in isolation and ignore
    /// the backhaul entirely, which is what keeps every pre-backhaul
    /// scenario byte-identical.
    pub fn with_backhaul(mut self, backhaul: BackhaulSpec) -> Self {
        self.backhaul = Some(backhaul);
        self
    }

    /// Override the payload size.
    pub fn with_payload(mut self, bytes: u32) -> Self {
        self.payload_bytes = bytes;
        self.exchange_airtimes = Self::airtime_table(&self.timing, bytes);
        self
    }

    /// The trace this simulator replays.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The attached movement-hint stream, if any.
    pub fn hint_stream(&self) -> Option<&HintStream> {
        self.hints.as_deref()
    }

    /// Run `adapter` over the whole trace under `workload`.
    ///
    /// Each call is an independent experiment: the per-packet noise
    /// stream is re-seeded from the trace seed on entry, so running twice
    /// on one simulator is bit-identical to two freshly constructed runs.
    ///
    /// A [`Workload::Trace`] must carry inline records here
    /// ([`crate::Workload::resolve`] — which spec compilation always
    /// runs — turns a path source into one); the simulator itself never
    /// touches the filesystem.
    pub fn run(&self, adapter: &mut dyn RateAdapter, workload: &Workload) -> SimResult {
        self.run_inner(adapter, workload, None)
    }

    /// Like [`LinkSimulator::run`], additionally recording the
    /// delivered-packet schedule: one `s` record per delivered packet at
    /// its send-start time. The recorded trace is itself a valid
    /// [`Workload::Trace`] workload, so any run can be re-fed as an
    /// experiment (`scenario_run --record`).
    pub fn run_recording(
        &self,
        adapter: &mut dyn RateAdapter,
        workload: &Workload,
    ) -> (SimResult, PacketTrace) {
        let mut records = Vec::new();
        let result = self.run_inner(adapter, workload, Some(&mut records));
        // Send times are non-decreasing by construction (each packet
        // starts at or after the previous one's start), so the recorded
        // trace always satisfies the PacketTrace invariants.
        (result, PacketTrace { records })
    }

    fn run_inner(
        &self,
        adapter: &mut dyn RateAdapter,
        workload: &Workload,
        rec: Option<&mut Vec<PacketRecord>>,
    ) -> SimResult {
        let mut run = LinkRun::new(self, adapter, rec);
        match workload {
            Workload::Udp => run.udp(),
            Workload::Tcp(cfg) => run.tcp(*cfg),
            Workload::Flow(cfg) => run.flow(cfg),
            Workload::Trace(TraceSource::Inline(t)) => run.replay(t),
            Workload::Trace(TraceSource::Path(p)) => {
                // Programmer error, not a spec error: every spec path
                // (scenario and fleet compilation) resolves trace files
                // before the simulator is reached.
                panic!(
                    "Workload::Trace path `{p}` reached LinkSimulator::run unresolved; \
                     call Workload::resolve() first (spec compilation does)"
                );
            }
        }
        run.finish()
    }
}

/// One run of one workload over a [`LinkSimulator`]: the per-packet
/// noise stream, the adapter under test and the tally every workload
/// accounts into. The workloads differ only in *when* they offer a
/// packet and how many link tries it gets; everything from the rate
/// pick to the per-second bucket is shared.
struct LinkRun<'r> {
    sim: &'r LinkSimulator<'r>,
    // Borrowed out of `sim`'s `Cow`s once per run: the per-attempt path
    // reads both after every adapter call, and re-reaching them through
    // `sim` each time measurably slowed the UDP and TCP runs.
    trace: &'r Trace,
    hints: Option<&'r HintStream>,
    adapter: &'r mut dyn RateAdapter,
    /// The adapter's [`RateAdapter::reads_snr`], read once per run.
    reads_snr: bool,
    /// Per-packet independent noise-loss draws (see [`Trace::noise_loss`]):
    /// noise events are shorter than a 5 ms slot, so they are drawn here,
    /// per packet, rather than baked into slot fates. Re-derived from the
    /// trace seed for every run, so each run is an independent experiment.
    noise: RngStream,
    rec: Option<&'r mut Vec<PacketRecord>>,
    end: SimTime,
    tally: SimResult,
    delivered_bytes: u64,
}

impl<'r> LinkRun<'r> {
    fn new(
        sim: &'r LinkSimulator<'r>,
        adapter: &'r mut dyn RateAdapter,
        rec: Option<&'r mut Vec<PacketRecord>>,
    ) -> Self {
        let duration = sim.trace.duration();
        LinkRun {
            sim,
            trace: &sim.trace,
            hints: sim.hints.as_deref(),
            reads_snr: adapter.reads_snr(),
            adapter,
            noise: RngStream::new(sim.trace.seed).derive("link-noise"),
            rec,
            end: SimTime::ZERO + duration,
            tally: SimResult::empty(duration),
            delivered_bytes: 0,
        }
    }

    /// Feed the per-packet side channels (hints + SNR).
    ///
    /// SNR feedback is "up-to-date" in the paper's favourable sense — it
    /// arrives every packet — but it is still a *measurement of the
    /// previous exchange*: one trace slot stale, with estimation noise.
    /// The noise grows when the channel decorrelates within the measured
    /// packet (Sec. 5.3: "the channel estimation from the packet preamble
    /// might not hold for all symbols in the packet") — at vehicular
    /// speeds a preamble-based SNR estimate is close to useless, which is
    /// why the SNR-based protocols trail RapidSample by ~2x in Fig. 3-8.
    ///
    /// An adapter that does not read SNR gets no measurement: the noise
    /// stream skips the draw ([`RngStream::skip_normal`]) so the later
    /// noise-loss draws, and so the run, stay exactly the same.
    fn feedback(&mut self, now: SimTime) {
        if let Some(h) = self.hints {
            self.adapter.report_movement_hint(now, h.query(now));
        }
        if !self.reads_snr {
            self.noise.skip_normal();
            return;
        }
        let stale = now.saturating_since(SimTime::ZERO + hint_channel::SLOT_DURATION);
        let slot = self.trace.slot_at(SimTime::ZERO + stale);
        // Estimation error scales with how fast the channel changes under
        // the estimator: ~2 dB static, ~2.3 dB at walking pace, up to
        // ~6 dB at highway speed (keyed off the trace's ground-truth speed
        // because the *receiver's own estimator* physically degrades with
        // its own motion).
        let noise_db = SNR_MEASUREMENT_NOISE_DB + 4.0 * (slot.speed_mps / 20.0).min(1.0);
        let measured = slot.snr_db + self.noise.normal() * noise_db;
        self.adapter.report_snr(now, measured);
    }

    /// One link attempt of a `bytes`-byte frame at `now`, at the
    /// adapter's rate held to at most `cap`; returns (success,
    /// completion time, rate used).
    fn attempt(
        &mut self,
        now: SimTime,
        cap: Option<usize>,
        bytes: u32,
    ) -> (bool, SimTime, BitRate) {
        let mut rate = self.adapter.pick_rate(now);
        if let Some(cap) = cap {
            if rate.index() > cap {
                rate = BitRate::from_index(cap);
            }
        }
        self.tally.attempts += 1;
        self.tally.rate_usage[rate.index()] += 1;
        let noise_hit = self.noise.chance(self.trace.noise_loss);
        let ok = self.trace.fate(now, rate) && !noise_hit;
        let airtime = if bytes == self.sim.payload_bytes {
            self.sim.exchange_airtimes[rate.index()]
        } else {
            self.sim.timing.exchange_airtime(rate, bytes)
        };
        let done = match &self.sim.airtime_shares {
            // Uncontended: exact pre-contention arithmetic.
            None => now + airtime,
            Some(shares) => {
                let sec = (now.as_micros() / 1_000_000) as usize;
                let share = shares.get(sec).copied().unwrap_or(1.0);
                now + SimDuration::from_micros((airtime.as_micros() as f64 / share).round() as u64)
            }
        };
        self.adapter.report(done, rate, ok);
        (ok, done, rate)
    }

    /// Up to `tries` link attempts of one frame from `start`, stopping at
    /// the first success or at the trace end; returns (delivered, time
    /// the chain finished).
    ///
    /// Retries follow the MadWiFi-style multi-rate-retry chain: retry `k`
    /// may not go faster than the first attempt's rate stepped down `k`
    /// notches, whatever the adapter says (the driver programs the whole
    /// chain before the frame leaves). Spec validation rejects
    /// `tries == 0`; it is clamped to one anyway so a direct-API
    /// degenerate config cannot loop without advancing time.
    fn chain(&mut self, start: SimTime, tries: u32, bytes: u32) -> (bool, SimTime) {
        let mut now = start;
        let mut first_rate = None;
        for k in 0..tries.max(1) {
            let cap = first_rate.map(|r0: usize| r0.saturating_sub(k as usize));
            let (ok, done, rate) = self.attempt(now, cap, bytes);
            first_rate.get_or_insert(rate.index());
            now = done;
            if ok || now >= self.end {
                return (ok, now);
            }
        }
        (false, now)
    }

    /// Account one packet offered to the link at `send_start`.
    ///
    /// Deliveries bucket by the **send-start** second, which is always
    /// inside the trace: a retry chain, RTO backoff or ack can finish
    /// past `end`, and bucketing by completion would drop the delivery
    /// from the series. So the series always sums to `packets_delivered`.
    fn offer(&mut self, send_start: SimTime, delivered: bool, bytes: u32) {
        self.tally.packets_sent += 1;
        if !delivered {
            return;
        }
        self.tally.packets_delivered += 1;
        self.delivered_bytes += u64::from(bytes);
        let sec = (send_start.as_micros() / 1_000_000) as usize;
        if let Some(bucket) = self.tally.delivered_per_second.get_mut(sec) {
            *bucket += 1;
        }
        if let Some(r) = self.rec.as_deref_mut() {
            r.push(PacketRecord {
                time_us: send_start.as_micros(),
                direction: Direction::Send,
                size: bytes,
            });
        }
    }

    fn finish(mut self) -> SimResult {
        self.tally.goodput_bps = goodput_bps(self.delivered_bytes, self.tally.duration);
        self.tally
    }

    /// Back-to-back datagrams, one link try each.
    fn udp(&mut self) {
        let bytes = self.sim.payload_bytes;
        let mut now = SimTime::ZERO;
        while now < self.end {
            self.feedback(now);
            let (ok, done) = self.chain(now, 1, bytes);
            self.offer(now, ok, bytes);
            now = done;
        }
    }

    /// The open-loop TCP model: segments under a retry chain of
    /// `link_attempts` tries, paced at most `cwnd` per RTT, with
    /// fast-retransmit halving and RTO backoff on sustained loss.
    fn tcp(&mut self, cfg: TcpConfig) {
        let bytes = self.sim.payload_bytes;
        let mut now = SimTime::ZERO;
        let mut cwnd: f64 = 2.0;
        let mut ssthresh: f64 = cfg.cwnd_cap;
        let mut consecutive_drops = 0u32;
        let mut window_start = now;
        let mut pkts_in_window = 0.0f64;
        // How many RTO doublings fit under rto_max (see the TcpConfig
        // rustdoc): derived from the configured pair instead of the old
        // hard-coded 16x cap, which silently truncated the curve
        // whenever rto_max > 16 * rto.
        let backoff_shift_cap = cfg.backoff_shift_cap();

        while now < self.end {
            self.feedback(now);
            let (ok, done) = self.chain(now, cfg.link_attempts, bytes);
            self.offer(now, ok, bytes);
            now = done;

            if ok {
                consecutive_drops = 0;
                cwnd = if cwnd < ssthresh {
                    (cwnd + 1.0).min(cfg.cwnd_cap)
                } else {
                    (cwnd + 1.0 / cwnd).min(cfg.cwnd_cap)
                };
            } else {
                consecutive_drops += 1;
                ssthresh = (cwnd / 2.0).max(2.0);
                if consecutive_drops >= 3 {
                    // Sustained blackout ⇒ retransmission timeout with
                    // exponential backoff ("TCP times out when faced with
                    // the high loss rate of the mobile case").
                    let backoff = 1u64 << (consecutive_drops - 3).min(backoff_shift_cap);
                    let rto = SimDuration::from_micros(
                        (cfg.rto.as_micros().saturating_mul(backoff)).min(cfg.rto_max.as_micros()),
                    );
                    now += rto;
                    cwnd = 1.0;
                } else {
                    // Fast-retransmit-style halving.
                    cwnd = (cwnd / 2.0).max(1.0);
                }
            }

            // Window pacing: at most cwnd segments per RTT.
            pkts_in_window += 1.0;
            if pkts_in_window >= cwnd {
                let window_end = window_start + cfg.rtt;
                if now < window_end {
                    now = window_end;
                }
                window_start = now;
                pkts_in_window = 0.0;
            }
        }
    }

    /// Replay a recorded packet trace against the link.
    ///
    /// Each `s` record is offered at `max(recorded time, previous packet
    /// done)` — the schedule paces the sender, the link serialises it —
    /// so idle gaps in the recording are skipped deterministically
    /// instead of being busy-waited. `r` records are receiver-side
    /// context and do not transmit. One link try per packet (like UDP),
    /// with the record's own payload size driving airtime and goodput.
    fn replay(&mut self, t: &PacketTrace) {
        let mut now = SimTime::ZERO;
        for r in t.records.iter().filter(|r| r.direction == Direction::Send) {
            let scheduled = SimTime::ZERO + SimDuration::from_micros(r.time_us);
            if scheduled > now {
                now = scheduled;
            }
            // The channel trace ends before the packet trace does: stop
            // replaying (records are time-sorted, so nothing later fits
            // either).
            if now >= self.end {
                break;
            }
            self.feedback(now);
            let (ok, done) = self.chain(now, 1, r.size);
            self.offer(now, ok, r.size);
            now = done;
        }
    }

    /// The closed-loop flow sender (`LossyWindowSender` style).
    ///
    /// A window of packets is kept in flight end-to-end: each packet
    /// crosses the wired backhaul (serialisation + drop-tail queue +
    /// propagation, when [`LinkSimulator::with_backhaul`] configured
    /// one), then contends for the air under the same multi-rate-retry
    /// chain as the TCP model, and its ack pays the wire's propagation
    /// delay back. The congestion window is owned by the pluggable
    /// controller named in the config; RTTs feed a Jacobson estimator
    /// whose timeout (clamped to `[rto_min, rto_max]`, doubling per
    /// consecutive timeout) bounds how long a lost head-of-window packet
    /// stalls the flow. Losses surfaced by later acks are charged as
    /// fast-retransmit-style loss events instead.
    ///
    /// Every packet's fate is forward-computed at its send time, in send
    /// order — the only RNG the flow path touches is the shared
    /// per-attempt noise stream, in exactly the per-packet order the
    /// open-loop workloads use, so flow runs stay byte-identical at any
    /// `--jobs`.
    fn flow(&mut self, cfg: &FlowConfig) {
        let bytes = self.sim.payload_bytes;
        let backhaul = self.sim.backhaul;
        let mut cc = match cfg.cca.build() {
            Ok(cc) => cc,
            // Programmer error, not a spec error: FlowConfig::validate —
            // which spec compilation always runs — rejects unknown CCA
            // names with this same actionable message.
            Err(e) => panic!("{e}; validate the FlowConfig before running (spec compilation does)"),
        };
        let mut rtt_est = RttEstimator::new();
        let mut queue = backhaul.map(|b| DropTailQueue::new(b.queue_pkts));
        let wire_delay = backhaul.map_or(SimDuration::ZERO, |b| b.delay);

        /// One in-flight packet: when it left the sender, and when its
        /// ack arrives (`None` = lost on the wire or in the air).
        struct InFlight {
            sent_at: SimTime,
            ack_at: Option<SimTime>,
        }
        let mut flight: VecDeque<InFlight> = VecDeque::new();

        // Sender clock (send decisions) and the time the wireless hop is
        // next free (air serialisation).
        let mut now = SimTime::ZERO;
        let mut air_free = SimTime::ZERO;
        // Consecutive-timeout doublings of the estimator's RTO.
        let mut rto_shift = 0u32;
        let rto_current = |est: &RttEstimator, shift: u32| -> SimDuration {
            let base = est
                .rto()
                .as_micros()
                .clamp(cfg.rto_min.as_micros(), cfg.rto_max.as_micros());
            SimDuration::from_micros(
                base.saturating_mul(1u64 << shift.min(32))
                    .min(cfg.rto_max.as_micros()),
            )
        };

        loop {
            // Fill the congestion window (floored at one packet so the
            // flow always probes). Sending is instantaneous at the
            // sender; each packet's fate through wire and air is
            // forward-computed here, in send order.
            let window = cc.window().max(1.0);
            while now < self.end && (flight.len() as f64) < window {
                let sent_at = now;
                // Wired segment: serialise through the drop-tail queue.
                let air_arrival = match (&mut queue, backhaul) {
                    (Some(q), Some(b)) => match q.offer(sent_at, b.tx_time(bytes)) {
                        Some(departure) => Some(departure + wire_delay),
                        None => {
                            self.tally.backhaul_dropped += 1;
                            None
                        }
                    },
                    _ => Some(sent_at),
                };
                // Air segment. The channel trace may end before a queued
                // packet reaches the air: it is never attempted (and
                // never acked), exactly as the open-loop models stop at
                // `end`.
                let mut ack_at = None;
                if let Some(air_start) = air_arrival.map(|a| a.max(air_free)) {
                    if air_start < self.end {
                        self.feedback(air_start);
                        let (ok, done) = self.chain(air_start, cfg.link_attempts, bytes);
                        air_free = done;
                        ack_at = ok.then_some(done + wire_delay);
                    }
                }
                self.offer(sent_at, ack_at.is_some(), bytes);
                flight.push_back(InFlight { sent_at, ack_at });
            }

            // Retire the head of the window.
            let Some(head) = flight.front() else {
                // Window empty with nothing left to send: the trace is
                // over (the fill loop always emits while `now < end`).
                break;
            };
            match head.ack_at {
                Some(ack_at) => {
                    let rtt = ack_at.saturating_since(head.sent_at);
                    if ack_at > now {
                        now = ack_at;
                    }
                    flight.pop_front();
                    rtt_est.observe(rtt);
                    cc.on_ack(now, rtt);
                    rto_shift = 0;
                }
                None => {
                    // Lost. If a later in-flight packet will be acked
                    // before the head's timer fires, that ack surfaces
                    // the hole (dup-ack analog): a loss event, window
                    // halving, pipe keeps moving. Otherwise the timer
                    // fires: a timeout event, window collapse, doubled
                    // timer for the next head.
                    let timeout_at = head.sent_at + rto_current(&rtt_est, rto_shift);
                    let next_ack = flight.iter().filter_map(|p| p.ack_at).min();
                    match next_ack {
                        Some(ack_at) if ack_at <= timeout_at => {
                            if ack_at > now {
                                now = ack_at;
                            }
                            flight.pop_front();
                            cc.on_loss(now);
                        }
                        _ => {
                            if timeout_at > now {
                                now = timeout_at;
                            }
                            flight.pop_front();
                            cc.on_timeout(now);
                            rto_shift = (rto_shift + 1).min(32);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{RapidSample, RateAdapter, SampleRate};
    use hint_cc::CcaSpec;
    use hint_channel::Environment;
    use hint_sensors::MotionProfile;
    use hint_sim::SimDuration;

    fn trace(moving: bool, secs: u64, seed: u64) -> Trace {
        let p = if moving {
            MotionProfile::walking(SimDuration::from_secs(secs), 1.4, 0.0)
        } else {
            MotionProfile::stationary(SimDuration::from_secs(secs))
        };
        Trace::generate(
            &Environment::office(),
            &p,
            SimDuration::from_secs(secs),
            seed,
        )
    }

    #[test]
    fn udp_goodput_bounded_by_phy() {
        let t = trace(false, 10, 1);
        let mut rs = RapidSample::new();
        let res = LinkSimulator::new(&t).run(&mut rs, &Workload::Udp);
        assert!(res.goodput_mbps() > 1.0, "goodput {}", res.goodput_mbps());
        assert!(res.goodput_mbps() < 54.0);
        assert_eq!(res.attempts, res.packets_sent);
        assert!(res.packets_delivered <= res.packets_sent);
    }

    #[test]
    fn tcp_goodput_below_udp_under_loss() {
        let t = trace(true, 20, 2);
        let mut a = RapidSample::new();
        let udp = LinkSimulator::new(&t).run(&mut a, &Workload::Udp);
        let mut b = RapidSample::new();
        let tcp = LinkSimulator::new(&t).run(&mut b, &Workload::tcp());
        assert!(
            tcp.goodput_bps <= udp.goodput_bps * 1.05,
            "tcp {} vs udp {}",
            tcp.goodput_mbps(),
            udp.goodput_mbps()
        );
        assert!(tcp.goodput_mbps() > 0.1);
    }

    #[test]
    fn rate_usage_accounts_for_all_attempts() {
        let t = trace(true, 5, 3);
        let mut rs = SampleRate::new();
        let res = LinkSimulator::new(&t).run(&mut rs, &Workload::Udp);
        let total: u64 = res.rate_usage.iter().sum();
        assert_eq!(total, res.attempts);
    }

    #[test]
    fn per_second_series_sums_to_delivered() {
        let t = trace(false, 10, 4);
        let mut rs = RapidSample::new();
        let res = LinkSimulator::new(&t).run(&mut rs, &Workload::Udp);
        let sum: u64 = res.delivered_per_second.iter().sum();
        assert_eq!(sum, res.packets_delivered);
        assert_eq!(res.delivered_per_second.len(), 10);
    }

    #[test]
    fn deterministic_runs() {
        let t = trace(true, 5, 5);
        let run = || {
            let mut rs = RapidSample::new();
            LinkSimulator::new(&t)
                .run(&mut rs, &Workload::Udp)
                .goodput_bps
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn full_airtime_share_is_bit_identical_to_uncontended() {
        let t = trace(true, 10, 7);
        let run = |shares: Option<Vec<f64>>| {
            let mut a = RapidSample::new();
            let mut sim = LinkSimulator::new(&t);
            if let Some(s) = shares {
                sim = sim.with_airtime_shares(s);
            }
            sim.run(&mut a, &Workload::Udp)
        };
        let base = run(None);
        let full = run(Some(vec![1.0; 10]));
        assert_eq!(base, full, "share 1.0 must not perturb the simulation");
    }

    #[test]
    fn halved_airtime_share_roughly_halves_goodput() {
        let t = trace(false, 10, 8);
        let run = |share: f64| {
            let mut a = RapidSample::new();
            LinkSimulator::new(&t)
                .with_airtime_shares(vec![share; 10])
                .run(&mut a, &Workload::Udp)
                .goodput_bps
        };
        let full = run(1.0);
        let half = run(0.5);
        let ratio = half / full;
        assert!(
            (0.4..0.6).contains(&ratio),
            "half share kept {ratio} of goodput"
        );
    }

    #[test]
    fn starved_share_clamps_and_stays_finite() {
        let t = trace(false, 5, 9);
        let mut a = RapidSample::new();
        let res = LinkSimulator::new(&t)
            .with_airtime_shares(vec![0.0, f64::NAN, -3.0, 1e-9, 0.2])
            .run(&mut a, &Workload::Udp);
        assert!(res.goodput_bps.is_finite());
        assert!(res.packets_sent > 0, "clamped shares still move frames");
        // Seconds past the share vector run uncontended.
        let mut b = RapidSample::new();
        let short = LinkSimulator::new(&t)
            .with_airtime_shares(vec![0.5])
            .run(&mut b, &Workload::Udp);
        assert!(short.packets_sent > 0);
    }

    #[test]
    fn hint_stream_reaches_adapter() {
        // A probe adapter that records the hints it saw.
        struct Probe {
            hints: Vec<bool>,
        }
        impl RateAdapter for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn pick_rate(&mut self, _now: SimTime) -> BitRate {
                BitRate::R6
            }
            fn report(&mut self, _now: SimTime, _r: BitRate, _s: bool) {}
            fn report_movement_hint(&mut self, _now: SimTime, moving: bool) {
                self.hints.push(moving);
            }
            fn reset(&mut self, _now: SimTime) {}
        }
        let p = MotionProfile::half_and_half(SimDuration::from_secs(2), true);
        let t = Trace::generate(&Environment::office(), &p, SimDuration::from_secs(4), 6);
        let hints = HintStream::oracle(&p, SimDuration::from_secs(4), SimDuration::ZERO);
        let mut probe = Probe { hints: Vec::new() };
        LinkSimulator::new(&t)
            .with_hints(&hints)
            .run(&mut probe, &Workload::Udp);
        assert!(!probe.hints.is_empty());
        assert!(probe.hints.iter().any(|&m| m));
        assert!(probe.hints.iter().any(|&m| !m));
    }

    #[test]
    fn tcp_per_second_series_sums_to_delivered_on_partial_final_second() {
        // Regression: a fractional trace duration guarantees segments
        // whose retry chain / RTO backoff completes past `end`; those
        // deliveries used to vanish from `delivered_per_second` while
        // still counting in `packets_delivered`.
        let p = MotionProfile::walking(SimDuration::from_millis(2500), 1.4, 0.0);
        let t = Trace::generate(
            &Environment::office(),
            &p,
            SimDuration::from_millis(2500),
            11,
        );
        let mut rs = RapidSample::new();
        let res = LinkSimulator::new(&t).run(&mut rs, &Workload::tcp());
        assert_eq!(res.delivered_per_second.len(), 3);
        let sum: u64 = res.delivered_per_second.iter().sum();
        assert_eq!(sum, res.packets_delivered);
        assert!(res.packets_delivered > 0);
    }

    #[test]
    fn degenerate_tcp_config_terminates() {
        // link_attempts == 0 must not hang even when fed straight to the
        // simulator API (spec validation rejects it earlier).
        let t = trace(false, 1, 12);
        let tcp = Workload::Tcp(TcpConfig {
            link_attempts: 0,
            ..TcpConfig::default()
        });
        let flow = Workload::Flow(FlowConfig {
            link_attempts: 0,
            ..FlowConfig::default()
        });
        for workload in [tcp, flow] {
            let mut rs = RapidSample::new();
            let res = LinkSimulator::new(&t).run(&mut rs, &workload);
            assert!(res.packets_sent > 0, "{workload:?}");
            assert!(res.attempts > 0, "{workload:?}");
        }
    }

    #[test]
    fn recorded_trace_replays_deterministically() {
        let t = trace(false, 5, 13);
        let mut rs = RapidSample::new();
        let (udp_res, recorded) = LinkSimulator::new(&t).run_recording(&mut rs, &Workload::Udp);
        assert_eq!(recorded.len() as u64, udp_res.packets_delivered);
        assert!(recorded.validate_replayable().is_ok());

        let replay = || {
            let mut a = RapidSample::new();
            LinkSimulator::new(&t).run(&mut a, &Workload::trace(recorded.clone()))
        };
        let one = replay();
        let two = replay();
        assert_eq!(one, two, "trace replay must be deterministic");
        // At most one offer per recorded packet (the replay may clip
        // tail records if its own serialisation falls behind the
        // recorded schedule and reaches the trace end first).
        assert!(one.packets_sent <= recorded.send_count() as u64);
        assert!(one.packets_sent > 0);
        assert_eq!(one.attempts, one.packets_sent);
        assert!(one.packets_delivered > 0);
        assert!(one.goodput_bps > 0.0);
    }

    #[test]
    fn trace_replay_skips_idle_gaps_and_clips_at_trace_end() {
        let t = trace(false, 2, 14);
        // Two sends separated by a long idle gap, one receive (ignored),
        // one send past the channel trace's end (clipped).
        let pkt = PacketTrace::new(vec![
            PacketRecord {
                time_us: 0,
                direction: Direction::Send,
                size: 1000,
            },
            PacketRecord {
                time_us: 500_000,
                direction: Direction::Recv,
                size: 200,
            },
            PacketRecord {
                time_us: 1_900_000,
                direction: Direction::Send,
                size: 1000,
            },
            PacketRecord {
                time_us: 5_000_000,
                direction: Direction::Send,
                size: 1000,
            },
        ])
        .unwrap();
        let mut rs = RapidSample::new();
        let res = LinkSimulator::new(&t).run(&mut rs, &Workload::trace(pkt));
        assert_eq!(res.packets_sent, 2, "recv ignored, post-end send clipped");
        // The sends land in their scheduled seconds, not back-to-back.
        assert_eq!(res.delivered_per_second.len(), 2);
        let sum: u64 = res.delivered_per_second.iter().sum();
        assert_eq!(sum, res.packets_delivered);
    }

    /// A fractional trace duration for the partial-final-second
    /// regression family: every workload must bucket deliveries by
    /// send-start second so nothing vanishes past `end`.
    fn fractional_trace(seed: u64) -> Trace {
        let d = SimDuration::from_millis(2500);
        let p = MotionProfile::walking(d, 1.4, 0.0);
        Trace::generate(&Environment::office(), &p, d, seed)
    }

    #[test]
    fn udp_per_second_series_sums_to_delivered_on_partial_final_second() {
        let t = fractional_trace(15);
        let mut rs = RapidSample::new();
        let res = LinkSimulator::new(&t).run(&mut rs, &Workload::Udp);
        assert_eq!(res.delivered_per_second.len(), 3);
        let sum: u64 = res.delivered_per_second.iter().sum();
        assert_eq!(sum, res.packets_delivered);
        assert!(res.packets_delivered > 0);
    }

    #[test]
    fn trace_per_second_series_sums_to_delivered_on_partial_final_second() {
        let t = fractional_trace(16);
        let mut rs = RapidSample::new();
        let (_, recorded) = LinkSimulator::new(&t).run_recording(&mut rs, &Workload::Udp);
        let mut replayer = RapidSample::new();
        let res = LinkSimulator::new(&t).run(&mut replayer, &Workload::trace(recorded));
        assert_eq!(res.delivered_per_second.len(), 3);
        let sum: u64 = res.delivered_per_second.iter().sum();
        assert_eq!(sum, res.packets_delivered);
        assert!(res.packets_delivered > 0);
    }

    #[test]
    fn flow_per_second_series_sums_to_delivered_on_partial_final_second() {
        let t = fractional_trace(17);
        let mut rs = RapidSample::new();
        let res = LinkSimulator::new(&t)
            .with_backhaul(BackhaulSpec::default())
            .run(&mut rs, &Workload::flow());
        assert_eq!(res.delivered_per_second.len(), 3);
        let sum: u64 = res.delivered_per_second.iter().sum();
        assert_eq!(sum, res.packets_delivered);
        assert!(res.packets_delivered > 0);
    }

    #[test]
    fn flow_runs_are_deterministic() {
        let t = trace(true, 5, 18);
        let run = || {
            let mut rs = RapidSample::new();
            LinkSimulator::new(&t)
                .with_backhaul(BackhaulSpec::default())
                .run(&mut rs, &Workload::flow())
        };
        assert_eq!(run(), run(), "flow runs must be byte-identical");
    }

    #[test]
    fn flow_without_backhaul_is_air_limited() {
        let t = trace(false, 5, 19);
        let mut rs = RapidSample::new();
        let res = LinkSimulator::new(&t).run(&mut rs, &Workload::flow());
        assert!(res.packets_delivered > 0);
        assert_eq!(res.backhaul_dropped, 0, "no wire, nothing to drop");
        assert!(res.goodput_mbps() < 54.0);
    }

    #[test]
    fn slow_backhaul_bottlenecks_flow_goodput() {
        let t = trace(false, 10, 20);
        let run = |rate_bps: u64| {
            let mut rs = RapidSample::new();
            LinkSimulator::new(&t)
                .with_backhaul(BackhaulSpec {
                    rate_bps,
                    ..BackhaulSpec::default()
                })
                .run(&mut rs, &Workload::flow())
        };
        let fast = run(100_000_000);
        let slow = run(1_000_000);
        assert!(
            slow.goodput_bps < fast.goodput_bps * 0.6,
            "1 Mbit/s wire must bottleneck a multi-Mbit/s air link: slow {} vs fast {}",
            slow.goodput_mbps(),
            fast.goodput_mbps()
        );
        // A 1 Mbit/s wire caps goodput at 1 Mbit/s by construction.
        assert!(slow.goodput_mbps() <= 1.0 + 1e-9);
    }

    #[test]
    fn tiny_backhaul_queue_drops_and_counts() {
        let t = trace(false, 5, 21);
        let mut rs = RapidSample::new();
        let res = LinkSimulator::new(&t)
            .with_backhaul(BackhaulSpec {
                rate_bps: 1_000_000,
                queue_pkts: 1,
                ..BackhaulSpec::default()
            })
            .run(
                &mut rs,
                &Workload::Flow(FlowConfig {
                    cca: CcaSpec {
                        name: "FixedWindow".into(),
                        window: 64.0,
                    },
                    ..FlowConfig::default()
                }),
            );
        assert!(
            res.backhaul_dropped > 0,
            "a 64-packet fixed window into a 1-slot queue must tail-drop"
        );
        assert!(
            res.packets_delivered + res.backhaul_dropped <= res.packets_sent,
            "delivered + dropped must stay within sent"
        );
        assert!(res.backhaul_dropped < res.packets_sent);
    }

    #[test]
    fn reno_backs_off_where_fixed_window_overruns() {
        // Same slow wire, small queue. Reno's loss response should shed
        // proportionally more of its sends into the queue than a large
        // fixed window that never backs off.
        let t = trace(false, 10, 22);
        let run = |cca: CcaSpec| {
            let mut rs = RapidSample::new();
            LinkSimulator::new(&t)
                .with_backhaul(BackhaulSpec {
                    rate_bps: 2_000_000,
                    queue_pkts: 4,
                    ..BackhaulSpec::default()
                })
                .run(
                    &mut rs,
                    &Workload::Flow(FlowConfig {
                        cca,
                        ..FlowConfig::default()
                    }),
                )
        };
        let reno = run(CcaSpec::default());
        let fixed = run(CcaSpec {
            name: "FixedWindow".into(),
            window: 64.0,
        });
        let drop_rate = |r: &SimResult| r.backhaul_dropped as f64 / r.packets_sent.max(1) as f64;
        assert!(
            drop_rate(&reno) < drop_rate(&fixed),
            "Reno must shed a smaller fraction to the queue: reno {:.3} vs fixed {:.3}",
            drop_rate(&reno),
            drop_rate(&fixed)
        );
        assert!(reno.packets_delivered > 0 && fixed.packets_delivered > 0);
    }

    #[test]
    fn flow_recording_captures_delivered_sends() {
        let t = trace(false, 5, 23);
        let mut rs = RapidSample::new();
        let (res, recorded) = LinkSimulator::new(&t)
            .with_backhaul(BackhaulSpec::default())
            .run_recording(&mut rs, &Workload::flow());
        assert_eq!(recorded.len() as u64, res.packets_delivered);
        assert!(recorded.validate_replayable().is_ok());
    }
}
