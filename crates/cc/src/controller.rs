//! Pluggable congestion controllers.
//!
//! A controller owns one number — the congestion window, in packets —
//! and updates it from the three events a window-based sender can
//! observe: an acknowledged packet (with its measured RTT), a loss
//! inferred from later acks (fast-retransmit analog), and a
//! retransmission timeout. The trait is object-safe so the flow
//! simulator can hold the `Box<dyn CongestionController>` that
//! [`crate::CcaSpec::build`] makes from a spec's controller name.

use hint_sim::{SimDuration, SimTime};

/// A window-based congestion-control algorithm.
///
/// The sender calls exactly one of the three event hooks per packet it
/// retires, then reads [`window`](CongestionController::window) to decide
/// how many packets may be in flight. Implementations must be
/// deterministic pure state machines: same event sequence ⇒ same windows.
pub trait CongestionController: Send {
    /// A packet was acknowledged; `rtt` is its measured round-trip time.
    fn on_ack(&mut self, now: SimTime, rtt: SimDuration);
    /// A packet was inferred lost from the arrival of a later ack
    /// (the fast-retransmit analog — the pipe is still moving).
    fn on_loss(&mut self, now: SimTime);
    /// A retransmission timer expired with no feedback at all (the pipe
    /// is presumed drained).
    fn on_timeout(&mut self, now: SimTime);
    /// Current congestion window, in packets. The sender floors this at
    /// one packet so a flow always probes.
    fn window(&self) -> f64;
    /// Canonical algorithm name (for tables and debugging).
    fn name(&self) -> &'static str;
}

/// Reno-style slow start + AIMD.
///
/// * Slow start: below `ssthresh`, each ack grows the window by one
///   packet (doubling per RTT).
/// * Congestion avoidance: at or above `ssthresh`, each ack grows it by
///   `1/cwnd` (one packet per RTT).
/// * Loss (fast-retransmit analog): `ssthresh = cwnd/2`, window restarts
///   from `ssthresh` (fast recovery's net effect).
/// * Timeout: `ssthresh = cwnd/2`, window collapses to one packet.
///
/// The window is capped at `cap` (the spec's `window` field), mirroring
/// the open-loop TCP model's `cwnd_cap`.
#[derive(Clone, Debug)]
pub struct Reno {
    cwnd: f64,
    ssthresh: f64,
    cap: f64,
}

/// Reno's initial congestion window, packets (RFC 5681 would allow more;
/// the open-loop `Workload::Tcp` model also starts at 2).
const INITIAL_WINDOW: f64 = 2.0;
/// Floor for `ssthresh` after a loss event, packets.
const MIN_SSTHRESH: f64 = 2.0;

impl Reno {
    /// A fresh Reno controller with window cap `cap` (packets).
    pub fn new(cap: f64) -> Reno {
        Reno {
            cwnd: INITIAL_WINDOW.min(cap),
            ssthresh: cap,
            cap,
        }
    }

    /// Current slow-start threshold, packets (exposed for tests).
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }
}

impl CongestionController for Reno {
    fn on_ack(&mut self, _now: SimTime, _rtt: SimDuration) {
        if self.cwnd < self.ssthresh {
            self.cwnd += 1.0;
        } else {
            self.cwnd += 1.0 / self.cwnd;
        }
        self.cwnd = self.cwnd.min(self.cap);
    }

    fn on_loss(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max(MIN_SSTHRESH);
        self.cwnd = self.ssthresh;
    }

    fn on_timeout(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max(MIN_SSTHRESH);
        self.cwnd = 1.0;
    }

    fn window(&self) -> f64 {
        self.cwnd
    }

    fn name(&self) -> &'static str {
        "Reno"
    }
}

/// A congestion-blind fixed window: the baseline that shows what closing
/// the loop buys. It keeps `window` packets in flight no matter what the
/// path reports, so a backhaul bottleneck shows up as sustained queue
/// drops instead of a backed-off sender.
#[derive(Clone, Debug)]
pub struct FixedWindow {
    window: f64,
}

impl FixedWindow {
    /// A fixed window of `window` packets.
    pub fn new(window: f64) -> FixedWindow {
        FixedWindow { window }
    }
}

impl CongestionController for FixedWindow {
    fn on_ack(&mut self, _now: SimTime, _rtt: SimDuration) {}
    fn on_loss(&mut self, _now: SimTime) {}
    fn on_timeout(&mut self, _now: SimTime) {}

    fn window(&self) -> f64 {
        self.window
    }

    fn name(&self) -> &'static str {
        "FixedWindow"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(c: &mut dyn CongestionController) {
        c.on_ack(SimTime::ZERO, SimDuration::from_millis(10));
    }

    #[test]
    fn reno_slow_starts_then_goes_linear() {
        let mut r = Reno::new(64.0);
        assert_eq!(r.window(), 2.0);
        // Slow start: +1 per ack until ssthresh.
        ack(&mut r);
        assert_eq!(r.window(), 3.0);
        // Drop ssthresh via a loss, then verify linear growth above it.
        r.on_loss(SimTime::ZERO);
        let w = r.window();
        assert!((w - 2.0).abs() < 1e-9 || w < 3.0);
        ack(&mut r);
        assert!(r.window() - w <= 1.0 / w + 1e-9, "growth must be <= 1/cwnd");
    }

    #[test]
    fn reno_loss_halves_and_timeout_collapses() {
        let mut r = Reno::new(64.0);
        for _ in 0..30 {
            ack(&mut r);
        }
        let before = r.window();
        r.on_loss(SimTime::ZERO);
        assert!((r.window() - before / 2.0).abs() < 1e-9);
        r.on_timeout(SimTime::ZERO);
        assert_eq!(r.window(), 1.0);
        // Recovery from timeout slow-starts toward the halved ssthresh.
        assert!(r.ssthresh() >= MIN_SSTHRESH);
    }

    #[test]
    fn reno_respects_cap() {
        let mut r = Reno::new(8.0);
        for _ in 0..100 {
            ack(&mut r);
        }
        assert!(r.window() <= 8.0);
    }

    #[test]
    fn fixed_window_ignores_everything() {
        let mut f = FixedWindow::new(16.0);
        ack(&mut f);
        f.on_loss(SimTime::ZERO);
        f.on_timeout(SimTime::ZERO);
        assert_eq!(f.window(), 16.0);
        assert_eq!(f.name(), "FixedWindow");
    }

    #[test]
    fn controllers_are_deterministic() {
        let mut a = Reno::new(64.0);
        let mut b = Reno::new(64.0);
        for i in 0..50 {
            if i % 7 == 3 {
                a.on_loss(SimTime::ZERO);
                b.on_loss(SimTime::ZERO);
            } else {
                ack(&mut a);
                ack(&mut b);
            }
            assert_eq!(a.window(), b.window());
        }
    }
}
