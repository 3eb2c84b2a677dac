//! CHARM (Judd et al., MobiSys 2008) — SNR-based with averaging.
//!
//! "CHARM relies on the reciprocity of the channel and uses the SNR
//! estimate of the packets overheard from the receiver. While RBAR uses
//! the SNR of the last received packet, CHARM computes average SNR over a
//! time window" (Sec. 6.2). The averaging is robust to short-term SNR
//! fluctuations (good when static) but lags a rapidly changing channel
//! (slightly worse than RBAR when mobile) — the asymmetry Fig. 3-6/3-7
//! report and Sec. 3.5 discusses.

use super::RateAdapter;
use hint_channel::delivery::best_rate_for_snr;
use hint_mac::BitRate;
use hint_sim::SimTime;

/// Default averaging time constant: CHARM averages SNR over roughly the
/// last second of feedback, in *wall-clock* terms (a per-sample weight
/// would shrink the window at high packet rates).
pub const DEFAULT_TAU_S: f64 = 1.0;

/// Default success-probability target of the SNR→rate mapping.
pub const DEFAULT_TARGET: f64 = 0.8;

/// The CHARM protocol state.
#[derive(Clone, Debug)]
pub struct Charm {
    avg: Option<f64>,
    last_update: Option<SimTime>,
    /// Averaging time constant, seconds.
    pub tau_s: f64,
    /// Success-probability target of the trained SNR→rate mapping.
    pub target: f64,
}

impl Default for Charm {
    fn default() -> Self {
        Self::new()
    }
}

impl Charm {
    /// CHARM with the default averaging window and training target.
    pub fn new() -> Self {
        Charm {
            avg: None,
            last_update: None,
            tau_s: DEFAULT_TAU_S,
            target: DEFAULT_TARGET,
        }
    }

    /// The current averaged SNR, if any feedback has arrived.
    pub fn avg_snr_db(&self) -> Option<f64> {
        self.avg
    }
}

impl RateAdapter for Charm {
    fn name(&self) -> &'static str {
        "CHARM"
    }

    fn pick_rate(&mut self, _now: SimTime) -> BitRate {
        match self.avg {
            None => BitRate::SLOWEST,
            Some(snr) => best_rate_for_snr(snr, self.target),
        }
    }

    fn report(&mut self, _now: SimTime, _rate: BitRate, _success: bool) {
        // Purely SNR-driven, like RBAR.
    }

    fn report_snr(&mut self, now: SimTime, snr_db: f64) {
        match (self.avg, self.last_update) {
            (Some(avg), Some(last)) => {
                let dt = now.saturating_since(last).as_secs_f64();
                let w = 1.0 - (-dt / self.tau_s).exp();
                self.avg = Some(avg + w * (snr_db - avg));
            }
            _ => self.avg = Some(snr_db),
        }
        self.last_update = Some(now);
    }

    fn reset(&mut self, _now: SimTime) {
        self.avg = None;
        self.last_update = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_rather_than_tracks() {
        let mut c = Charm::new();
        let mut r = crate::protocols::Rbar::new();
        // Long history at 28 dB...
        for i in 0..200 {
            let t = SimTime::from_micros(i * 5000);
            c.report_snr(t, 28.0);
            r.report_snr(t, 28.0);
        }
        // ...then a single 8 dB outlier, arriving at the same cadence.
        let t = SimTime::from_micros(200 * 5000);
        c.report_snr(t, 8.0);
        r.report_snr(t, 8.0);
        // RBAR crashes to a low rate; CHARM barely moves (a 5 ms sample
        // carries weight ~1-exp(-0.005) ~ 0.5% of the 1 s average).
        assert_eq!(r.pick_rate(t), BitRate::R6);
        assert!(c.pick_rate(t).index() >= BitRate::R36.index());
    }

    #[test]
    fn eventually_follows_sustained_change() {
        let mut c = Charm::new();
        for i in 0..200 {
            c.report_snr(SimTime::from_micros(i * 5000), 28.0);
        }
        let before = c.pick_rate(SimTime::from_secs(1));
        // Sustained 8 dB for 3 s (3 time constants) at the same cadence.
        for i in 0..600 {
            c.report_snr(
                SimTime::from_secs(1) + hint_sim::SimDuration::from_micros(i * 5000),
                8.0,
            );
        }
        let after = c.pick_rate(SimTime::from_secs(4));
        assert!(after.index() < before.index());
        assert_eq!(after, BitRate::R6);
    }

    #[test]
    fn starts_conservative() {
        let mut c = Charm::new();
        assert_eq!(c.pick_rate(SimTime::ZERO), BitRate::R6);
    }

    #[test]
    fn reset_forgets_history() {
        let mut c = Charm::new();
        c.report_snr(SimTime::ZERO, 30.0);
        assert!(c.avg_snr_db().is_some());
        c.reset(SimTime::ZERO);
        assert!(c.avg_snr_db().is_none());
        assert_eq!(c.pick_rate(SimTime::ZERO), BitRate::R6);
    }
}
