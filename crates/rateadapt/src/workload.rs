//! Traffic workload models.
//!
//! The Fig. 3-5..3-7 experiments use TCP ("the traffic workload we used to
//! evaluate was TCP"); the vehicular experiment uses UDP because "TCP
//! times out when faced with the high loss rate of the mobile case"
//! (Sec. 3.5). The TCP model here is deliberately lightweight — window
//! halving on loss, exponential-backoff retransmission timeouts on
//! sustained blackouts, slow start/congestion avoidance — enough to
//! reproduce TCP's disproportionate punishment of bursty link loss without
//! simulating a full stack.
//!
//! The third workload is a recorded one: [`Workload::Trace`] replays a
//! [`PacketTrace`] — each packet offered to the link at its recorded
//! time — from an inline record list or a trace file (see
//! [`crate::trace`]).
//!
//! The fourth is the closed-loop flow ([`Workload::Flow`]): a
//! window-based sender with acks, RTT estimation and a pluggable
//! congestion controller named through `hint-cc`'s `CcaSpec`, built so the
//! bottleneck can sit on an AP's wired backhaul (see
//! [`crate::sim::LinkSimulator::with_backhaul`]) instead of the air.
//!
//! The two TCP models serve different figures. [`Workload::Tcp`] drives
//! the paper's TCP figures (Figs. 3-5…3-7) and the fleet specs' TCP
//! clients: those figures rest on its punishment of bursty loss (the
//! retransmission-timeout backoff after 3 consecutive drops). Run through
//! the closed-loop flow with Reno instead, bursty-loss protocols close
//! the gap (Fig. 3-6 office: RRAA 0.67 → 1.05 of RapidSample) and two
//! Fig. 3-5/3-6 orderings flip (EXPERIMENTS.md, "Two TCP models").
//! [`Workload::Flow`] serves the backhaul experiments, whose bottleneck
//! is a wired queue the open-loop model never sees.

use crate::trace::PacketTrace;
use hint_cc::CcaSpec;
use hint_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Parameters of the lightweight TCP model.
///
/// # Backoff curve
///
/// Sustained blackouts trigger retransmission timeouts with exponential
/// backoff: after `d >= 3` consecutive segment drops the sender idles
/// for `min(rto * 2^(d - 3), rto_max)`. The doubling therefore runs
/// `rto, 2·rto, 4·rto, …` and **saturates exactly when it reaches
/// `rto_max`**: the shift is clamped at the smallest exponent `s` with
/// `rto * 2^s >= rto_max` (see [`TcpConfig::backoff_shift_cap`]), so the
/// whole curve — including how many doublings it takes to hit the
/// ceiling — is derived from the configured `rto`/`rto_max` pair. (An
/// earlier revision hard-coded the clamp at 16×, which silently
/// truncated the curve for any `rto_max > 16·rto`.)
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TcpConfig {
    /// Round-trip time budget per congestion window (LAN-scale).
    pub rtt: SimDuration,
    /// Base retransmission timeout.
    pub rto: SimDuration,
    /// Maximum backed-off RTO.
    pub rto_max: SimDuration,
    /// Link-layer attempts per TCP segment before TCP sees a loss.
    pub link_attempts: u32,
    /// Congestion-window cap, packets.
    pub cwnd_cap: f64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            rtt: SimDuration::from_millis(5),
            rto: SimDuration::from_millis(200),
            rto_max: SimDuration::from_secs(3),
            link_attempts: 4,
            cwnd_cap: 64.0,
        }
    }
}

impl TcpConfig {
    /// Reject degenerate parameter sets before they reach the simulator.
    ///
    /// The guards are exactly the ways a spec-supplied config can stall
    /// or corrupt a [`Workload::Tcp`] run: `link_attempts == 0` makes a
    /// segment loop that never advances time (the historical hang), a
    /// zero `rtt`/`rto` disables pacing/backoff, `rto > rto_max` inverts
    /// the backoff clamp, and `cwnd_cap < 2` is below the model's
    /// loss-recovery floor.
    pub fn validate(&self) -> Result<(), String> {
        if self.link_attempts == 0 {
            return Err(
                "TCP link_attempts must be >= 1: zero attempts per segment would make no \
                 link progress and hang the run"
                    .to_string(),
            );
        }
        if self.rtt.is_zero() {
            return Err(
                "TCP rtt must be positive (window pacing needs a real round trip)".to_string(),
            );
        }
        if self.rto.is_zero() {
            return Err(
                "TCP rto must be positive (a zero retransmission timeout retries without \
                 advancing time)"
                    .to_string(),
            );
        }
        if self.rto > self.rto_max {
            return Err(format!(
                "TCP rto {} exceeds rto_max {}; raise rto_max or lower rto",
                self.rto, self.rto_max
            ));
        }
        if !(self.cwnd_cap.is_finite() && self.cwnd_cap >= 2.0) {
            return Err(format!(
                "TCP cwnd_cap must be finite and >= 2 packets, got {}",
                self.cwnd_cap
            ));
        }
        Ok(())
    }

    /// The largest RTO-backoff exponent the doubling can reach before
    /// the `rto_max` clamp takes over: the smallest `s` with
    /// `rto * 2^s >= rto_max` (capped at 32 doublings as an arithmetic
    /// guard; a real config saturates long before that). Deriving the
    /// shift cap from the configured pair — instead of a hard-coded
    /// constant — is what keeps the backoff curve faithful for
    /// `rto_max > 16·rto` (see the type-level docs).
    pub fn backoff_shift_cap(&self) -> u32 {
        let base = self.rto.as_micros().max(1);
        let max = self.rto_max.as_micros();
        let mut s = 0u32;
        while s < 32 && base.saturating_mul(1u64 << s) < max {
            s += 1;
        }
        s
    }
}

/// Parameters of the closed-loop flow model ([`Workload::Flow`]).
///
/// Unlike [`TcpConfig`]'s open-loop heuristic, a flow sender keeps a
/// window of packets in flight end-to-end — through the AP's wired
/// backhaul queue when one is configured — measures per-packet RTTs
/// from acks, infers losses from later acks, and arms Jacobson-style
/// retransmission timers clamped to `[rto_min, rto_max]` (doubling per
/// consecutive timeout, saturating at `rto_max`). The congestion window
/// itself is owned by the pluggable controller named in
/// [`FlowConfig::cca`] (see [`CcaSpec::build`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FlowConfig {
    /// The congestion-control algorithm, by name, plus its
    /// window cap.
    pub cca: CcaSpec,
    /// Link-layer attempts per packet on the wireless hop before the
    /// flow sees a loss (the multi-rate-retry chain length, as in
    /// [`TcpConfig::link_attempts`]).
    pub link_attempts: u32,
    /// Retransmission-timeout floor (also the initial timeout, before
    /// the first RTT sample).
    pub rto_min: SimDuration,
    /// Retransmission-timeout ceiling (backoff saturates here).
    pub rto_max: SimDuration,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            cca: CcaSpec::default(),
            link_attempts: 4,
            rto_min: SimDuration::from_millis(200),
            rto_max: SimDuration::from_secs(3),
        }
    }
}

impl FlowConfig {
    /// Reject degenerate parameter sets before they reach the simulator,
    /// mirroring [`TcpConfig::validate`]: zero `link_attempts` makes no
    /// link progress, a zero `rto_min` retries without advancing time,
    /// an inverted `rto_min > rto_max` breaks the timeout clamp, and an
    /// unknown or under-windowed CCA cannot be built.
    pub fn validate(&self) -> Result<(), String> {
        if self.link_attempts == 0 {
            return Err(
                "flow link_attempts must be >= 1: zero attempts per packet would make no \
                 link progress and hang the run"
                    .to_string(),
            );
        }
        if self.rto_min.is_zero() {
            return Err(
                "flow rto_min must be positive (a zero retransmission timeout retries \
                 without advancing time)"
                    .to_string(),
            );
        }
        if self.rto_min > self.rto_max {
            return Err(format!(
                "flow rto_min {} exceeds rto_max {}; raise rto_max or lower rto_min",
                self.rto_min, self.rto_max
            ));
        }
        self.cca.validate().map_err(|e| format!("flow cca: {e}"))
    }
}

/// Where a trace workload's packet schedule comes from.
///
/// Specs normally carry `Path` (small JSON, the trace stays a separate
/// artifact); compilation resolves it to `Inline` via
/// [`Workload::resolve`], so the simulator itself never touches the
/// filesystem.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceSource {
    /// A trace file (text or binary, auto-detected; see
    /// [`crate::trace::PacketTrace::load`]). Relative paths in spec
    /// files are rebased against the spec file's directory on load.
    Path(String),
    /// The records themselves, embedded in the spec.
    Inline(PacketTrace),
}

/// A traffic workload driving the link simulator.
///
/// Serializes for [`crate::scenario::ScenarioSpec`]: `"Udp"`,
/// `{"Tcp": {...}}`, or `{"Trace": {"Path": "traces/walk.txt"}}` /
/// `{"Trace": {"Inline": {...}}}` in JSON.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Saturated UDP: back-to-back packets, one link attempt each,
    /// goodput = delivered fraction.
    Udp,
    /// The lightweight TCP model.
    Tcp(TcpConfig),
    /// Replay a recorded packet trace: each `s` record is offered to
    /// the link at its recorded time (idle gaps are skipped
    /// deterministically), one link attempt each, per-record payload
    /// sizes.
    Trace(TraceSource),
    /// The closed-loop flow model: a window-based sender with acks, RTT
    /// estimation, loss detection and a pluggable congestion controller,
    /// flowing through the AP's wired backhaul queue when one is
    /// configured.
    Flow(FlowConfig),
}

impl Workload {
    /// TCP with default parameters.
    pub fn tcp() -> Workload {
        Workload::Tcp(TcpConfig::default())
    }

    /// A closed-loop flow with default parameters (Reno, window cap 64).
    pub fn flow() -> Workload {
        Workload::Flow(FlowConfig::default())
    }

    /// Replay the trace file at `path`.
    pub fn trace_file(path: impl Into<String>) -> Workload {
        Workload::Trace(TraceSource::Path(path.into()))
    }

    /// Replay an in-memory trace.
    pub fn trace(trace: PacketTrace) -> Workload {
        Workload::Trace(TraceSource::Inline(trace))
    }

    /// Validate the workload parameters (no filesystem access — a
    /// `Trace` path is only checked for non-emptiness here; the file
    /// itself is parsed by [`Workload::resolve`] at compile time).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Workload::Udp => Ok(()),
            Workload::Tcp(cfg) => cfg.validate(),
            Workload::Trace(TraceSource::Path(p)) => {
                if p.is_empty() {
                    Err(
                        "trace workload path is empty; point it at a packet-trace file \
                         (text or binary)"
                            .to_string(),
                    )
                } else {
                    Ok(())
                }
            }
            Workload::Trace(TraceSource::Inline(t)) => t.validate_replayable(),
            Workload::Flow(cfg) => cfg.validate(),
        }
    }

    /// Resolve a `Trace` path source to its inline records (loading and
    /// parsing the file); `Udp`/`Tcp`/inline traces pass through
    /// unchanged. The returned workload never needs the filesystem
    /// again, which is what the simulator requires.
    pub fn resolve(&self) -> Result<Workload, String> {
        match self {
            Workload::Trace(TraceSource::Path(p)) => {
                let trace = PacketTrace::load(Path::new(p))
                    .map_err(|e| format!("cannot load packet trace: {e}"))?;
                trace.validate_replayable()?;
                Ok(Workload::Trace(TraceSource::Inline(trace)))
            }
            w => Ok(w.clone()),
        }
    }

    /// Rebase a relative `Trace` path against `base` (the directory of
    /// the spec file it came from), so a spec runs identically from any
    /// working directory.
    pub fn rebase(&mut self, base: &Path) {
        if let Workload::Trace(TraceSource::Path(p)) = self {
            if !p.is_empty() && !Path::new(p.as_str()).is_absolute() {
                *p = base.join(p.as_str()).to_string_lossy().into_owned();
            }
        }
    }

    /// A one-line human-readable summary (an inline trace prints its
    /// shape, not its thousands of records).
    pub fn summary(&self) -> String {
        match self {
            Workload::Udp => "Udp".to_string(),
            Workload::Tcp(cfg) => format!("{cfg:?}"),
            Workload::Trace(TraceSource::Path(p)) => format!("Trace({p})"),
            Workload::Trace(TraceSource::Inline(t)) => format!(
                "Trace(inline: {} records, {} sends, {})",
                t.len(),
                t.send_count(),
                t.duration()
            ),
            Workload::Flow(cfg) => format!(
                "Flow({} w={}, attempts={}, rto {}..{})",
                cfg.cca.name, cfg.cca.window, cfg.link_attempts, cfg.rto_min, cfg.rto_max
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Direction, PacketRecord};

    #[test]
    fn defaults_are_sane() {
        let c = TcpConfig::default();
        assert!(c.rto > c.rtt);
        assert!(c.rto_max > c.rto);
        assert!(c.link_attempts >= 1);
        assert!(c.cwnd_cap >= 2.0);
        assert_eq!(Workload::tcp(), Workload::Tcp(TcpConfig::default()));
        assert!(TcpConfig::default().validate().is_ok());
    }

    #[test]
    fn degenerate_tcp_configs_are_rejected() {
        let zeroed = TcpConfig {
            rtt: SimDuration::ZERO,
            rto: SimDuration::ZERO,
            rto_max: SimDuration::ZERO,
            link_attempts: 0,
            cwnd_cap: 0.0,
        };
        // The historical hang is the first thing called out.
        let msg = zeroed.validate().unwrap_err();
        assert!(msg.contains("link_attempts must be >= 1"), "{msg}");

        let no_rtt = TcpConfig {
            rtt: SimDuration::ZERO,
            ..TcpConfig::default()
        };
        assert!(no_rtt
            .validate()
            .unwrap_err()
            .contains("rtt must be positive"));

        let inverted = TcpConfig {
            rto: SimDuration::from_secs(10),
            rto_max: SimDuration::from_secs(3),
            ..TcpConfig::default()
        };
        assert!(inverted.validate().unwrap_err().contains("exceeds rto_max"));

        let tiny_cwnd = TcpConfig {
            cwnd_cap: 1.0,
            ..TcpConfig::default()
        };
        assert!(tiny_cwnd.validate().unwrap_err().contains("cwnd_cap"));
    }

    #[test]
    fn workload_validate_covers_all_variants() {
        assert!(Workload::Udp.validate().is_ok());
        assert!(Workload::tcp().validate().is_ok());
        assert!(Workload::trace_file("traces/x.txt").validate().is_ok());
        assert!(Workload::trace_file("").validate().is_err());
        assert!(Workload::trace(PacketTrace::default()).validate().is_err());
        let one = PacketTrace::new(vec![PacketRecord {
            time_us: 0,
            direction: Direction::Send,
            size: 1000,
        }])
        .unwrap();
        assert!(Workload::trace(one).validate().is_ok());
    }

    #[test]
    fn resolve_rejects_missing_trace_files() {
        let err = Workload::trace_file("/nonexistent/trace.txt")
            .resolve()
            .unwrap_err();
        assert!(err.contains("cannot load packet trace"), "{err}");
        // Non-trace workloads resolve to themselves.
        assert_eq!(Workload::Udp.resolve().unwrap(), Workload::Udp);
    }

    #[test]
    fn rebase_only_touches_relative_paths() {
        let base = Path::new("/specs");
        let mut rel = Workload::trace_file("traces/a.txt");
        rel.rebase(base);
        assert_eq!(rel, Workload::trace_file("/specs/traces/a.txt"));
        let mut abs = Workload::trace_file("/data/b.txt");
        abs.rebase(base);
        assert_eq!(abs, Workload::trace_file("/data/b.txt"));
        let mut udp = Workload::Udp;
        udp.rebase(base);
        assert_eq!(udp, Workload::Udp);
    }

    #[test]
    fn backoff_shift_cap_tracks_rto_max() {
        // Defaults: 3 s / 200 ms = 15x, reached at the 4th doubling
        // (16x) — exactly the clamp the old hard-coded constant baked in.
        assert_eq!(TcpConfig::default().backoff_shift_cap(), 4);
        // A taller ceiling needs more doublings: 200 ms -> 51.2 s is
        // 2^8 = 256x past 51.2/0.2 = 256.
        let tall = TcpConfig {
            rto_max: SimDuration::from_micros(51_200_000),
            ..TcpConfig::default()
        };
        assert_eq!(tall.backoff_shift_cap(), 8);
        // The old constant silently truncated this curve at 16x.
        assert!(tall.backoff_shift_cap() > 4);
        // rto == rto_max: no doubling at all.
        let flat = TcpConfig {
            rto: SimDuration::from_secs(3),
            ..TcpConfig::default()
        };
        assert_eq!(flat.backoff_shift_cap(), 0);
        // Arithmetic guard holds for absurd ratios.
        let absurd = TcpConfig {
            rto: SimDuration::from_micros(1),
            rto_max: SimDuration::from_micros(u64::MAX),
            ..TcpConfig::default()
        };
        assert!(absurd.backoff_shift_cap() <= 32);
    }

    #[test]
    fn flow_defaults_validate_and_degenerate_flows_are_rejected() {
        assert!(FlowConfig::default().validate().is_ok());
        assert_eq!(Workload::flow(), Workload::Flow(FlowConfig::default()));
        assert!(Workload::flow().validate().is_ok());

        let no_attempts = FlowConfig {
            link_attempts: 0,
            ..FlowConfig::default()
        };
        assert!(no_attempts
            .validate()
            .unwrap_err()
            .contains("link_attempts must be >= 1"));

        let zero_rto = FlowConfig {
            rto_min: SimDuration::ZERO,
            ..FlowConfig::default()
        };
        assert!(zero_rto
            .validate()
            .unwrap_err()
            .contains("rto_min must be positive"));

        let inverted = FlowConfig {
            rto_min: SimDuration::from_secs(10),
            ..FlowConfig::default()
        };
        assert!(inverted.validate().unwrap_err().contains("exceeds rto_max"));

        let unknown_cca = FlowConfig {
            cca: CcaSpec::named("vegas"),
            ..FlowConfig::default()
        };
        let msg = unknown_cca.validate().unwrap_err();
        assert!(msg.contains("Reno, FixedWindow"), "{msg}");
    }

    #[test]
    fn flow_summary_names_the_cca() {
        let s = Workload::flow().summary();
        assert!(s.contains("Reno"), "{s}");
        assert!(s.starts_with("Flow("));
    }

    #[test]
    fn summary_is_compact_for_inline_traces() {
        let t = PacketTrace::new(vec![PacketRecord {
            time_us: 500,
            direction: Direction::Send,
            size: 1000,
        }])
        .unwrap();
        let s = Workload::trace(t).summary();
        assert!(s.contains("1 records"), "{s}");
        assert!(!s.contains("time_us"), "summary must not dump records: {s}");
        assert_eq!(Workload::Udp.summary(), "Udp");
        assert!(Workload::trace_file("x.txt").summary().contains("x.txt"));
    }
}
