//! The Hint-Aware Rate Adaptation Protocol (Sec. 3.2).
//!
//! "The Hint-Aware Rate Adaptation Protocol implemented at the sender uses
//! RapidSample when a node is mobile and uses SampleRate when a node is
//! static. It relies on movement hints from the receiver to switch between
//! the two."
//!
//! Switching policy: reports flow to whichever strategy is active. When
//! the movement hint flips, the newly activated strategy is **reset** —
//! the history it accumulated before the mobility change describes a
//! different channel regime and would only mislead it (keeping
//! SampleRate's mobile-era averages around is precisely the failure mode
//! the paper identifies in hint-free protocols). SampleRate converges well
//! within a second of static operation, so the cold restart is cheap.

use super::{RapidSample, RateAdapter, SampleRate};
use hint_mac::BitRate;
use hint_sim::SimTime;

/// The hint-switched RapidSample/SampleRate combination.
#[derive(Clone, Debug)]
pub struct HintAware {
    rapid: RapidSample,
    sample: SampleRate,
    /// Latest movement hint (starts static: `H_0 = 0` in Sec. 2.2.1).
    moving: bool,
}

impl Default for HintAware {
    fn default() -> Self {
        Self::new()
    }
}

impl HintAware {
    /// Hint-aware protocol with both strategies at paper defaults.
    pub fn new() -> Self {
        HintAware {
            rapid: RapidSample::new(),
            sample: SampleRate::new(),
            moving: false,
        }
    }

    /// Build from explicitly configured strategies (ablations).
    pub fn with_strategies(rapid: RapidSample, sample: SampleRate) -> Self {
        HintAware {
            rapid,
            sample,
            moving: false,
        }
    }

    /// Which strategy is currently active.
    pub fn active_name(&self) -> &'static str {
        if self.moving {
            self.rapid.name()
        } else {
            self.sample.name()
        }
    }

    /// The movement hint the protocol last received.
    pub fn last_hint(&self) -> bool {
        self.moving
    }

    fn active(&mut self) -> &mut dyn RateAdapter {
        if self.moving {
            &mut self.rapid
        } else {
            &mut self.sample
        }
    }
}

impl RateAdapter for HintAware {
    fn name(&self) -> &'static str {
        "HintAware"
    }

    fn pick_rate(&mut self, now: SimTime) -> BitRate {
        self.active().pick_rate(now)
    }

    fn report(&mut self, now: SimTime, rate: BitRate, success: bool) {
        self.active().report(now, rate, success);
    }

    fn reads_snr(&self) -> bool {
        // Neither underlying strategy is SNR-based.
        false
    }

    fn report_movement_hint(&mut self, now: SimTime, moving: bool) {
        if moving != self.moving {
            self.moving = moving;
            // The regime changed: restart the strategy we are switching
            // to, so it does not act on stale cross-regime history.
            self.active().reset(now);
        }
    }

    fn reset(&mut self, now: SimTime) {
        self.rapid.reset(now);
        self.sample.reset(now);
        self.moving = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_static_with_samplerate() {
        let h = HintAware::new();
        assert_eq!(h.active_name(), "SampleRate");
        assert!(!h.last_hint());
    }

    #[test]
    fn switches_on_hint_edges_only() {
        let mut h = HintAware::new();
        h.report_movement_hint(SimTime::from_millis(1), true);
        assert_eq!(h.active_name(), "RapidSample");
        // Repeated identical hints do not re-reset.
        let picked = h.pick_rate(SimTime::from_millis(2));
        h.report(SimTime::from_millis(2), picked, false);
        let after_fail = h.pick_rate(SimTime::from_millis(3));
        h.report_movement_hint(SimTime::from_millis(3), true);
        assert_eq!(h.pick_rate(SimTime::from_millis(3)), after_fail);
        h.report_movement_hint(SimTime::from_millis(4), false);
        assert_eq!(h.active_name(), "SampleRate");
    }

    #[test]
    fn newly_activated_strategy_is_fresh() {
        let mut h = HintAware::new();
        // Poison SampleRate's view of 54 while static... then go mobile.
        for i in 0..100 {
            let t = SimTime::from_micros(i * 220);
            let r = h.pick_rate(t);
            h.report(t, r, false);
        }
        h.report_movement_hint(SimTime::from_millis(50), true);
        // RapidSample starts fresh at the fastest rate.
        assert_eq!(h.pick_rate(SimTime::from_millis(50)), BitRate::R54);
        // Back to static: SampleRate is also fresh (optimistic 54).
        h.report_movement_hint(SimTime::from_millis(100), false);
        assert_eq!(h.pick_rate(SimTime::from_millis(100)), BitRate::R54);
    }

    #[test]
    fn reports_route_to_active_strategy_only() {
        let mut h = HintAware::new();
        h.report_movement_hint(SimTime::ZERO, true);
        // Fail twice while mobile: RapidSample steps down to 36.
        h.report(SimTime::from_micros(1), BitRate::R54, false);
        h.report(SimTime::from_micros(2), BitRate::R48, false);
        assert_eq!(h.pick_rate(SimTime::from_micros(3)), BitRate::R36);
        // Switch to static: SampleRate never saw those failures, so its
        // optimism picks 54 — proving isolation of the histories.
        h.report_movement_hint(SimTime::from_micros(4), false);
        assert_eq!(h.pick_rate(SimTime::from_micros(5)), BitRate::R54);
    }
}
