//! RapidSample — the paper's mobile-optimised frame-based protocol
//! (Sec. 3.1, Fig. 3-2).
//!
//! The algorithm, verbatim from the figure:
//!
//! * On a **failure** at `lastbr`: record `failedTime[lastbr]`; if the
//!   failed packet was a sample, revert to the pre-sample rate; otherwise
//!   step down one rate.
//! * On a **success**: once the current rate has been held successfully
//!   for more than `δ_success` (5 ms), *sample upward*: jump to the
//!   fastest rate such that (a) it has not failed within the last `δ_fail`
//!   (10 ms) and (b) no slower rate has failed within that interval. The
//!   pre-sample rate is remembered so a failed sample reverts instantly.
//!
//! `δ_fail` is the paper's measured mobile coherence time (Fig. 3-1):
//! sampling a rate that failed more recently than one coherence time would
//! very likely fail again. `δ_success < δ_fail` makes upward sampling
//! aggressive — correct when the channel may be *improving*, cheap when it
//! is not because a failed sample reverts immediately. Jumps are
//! opportunistic (multi-rate), not one-step.

use super::RateAdapter;
use hint_mac::BitRate;
use hint_sim::{SimDuration, SimTime};

/// Default `δ_success`: 5 ms ("5 in our experiments").
pub const DELTA_SUCCESS: SimDuration = SimDuration::from_millis(5);

/// Default `δ_fail`: 10 ms ("10 in our experiments").
pub const DELTA_FAIL: SimDuration = SimDuration::from_millis(10);

/// The RapidSample protocol state.
#[derive(Clone, Debug)]
pub struct RapidSample {
    /// Time each rate last failed (`None` = never).
    failed_time: [Option<SimTime>; BitRate::COUNT],
    /// Time each rate was last picked (adopted as the operating rate).
    picked_time: [SimTime; BitRate::COUNT],
    /// Current operating rate (the `lastbr` of the next call).
    current: BitRate,
    /// Whether the in-flight packet is an upward sample.
    sampling: bool,
    /// The rate to revert to if a sample fails.
    old_rate: BitRate,
    /// `δ_success` parameter.
    pub delta_success: SimDuration,
    /// `δ_fail` parameter.
    pub delta_fail: SimDuration,
}

impl Default for RapidSample {
    fn default() -> Self {
        Self::new()
    }
}

impl RapidSample {
    /// RapidSample with the paper's parameters (5 ms / 10 ms), starting at
    /// the fastest rate ("RapidSample ... starts with the fastest bit
    /// rate").
    pub fn new() -> Self {
        RapidSample {
            failed_time: [None; BitRate::COUNT],
            picked_time: [SimTime::ZERO; BitRate::COUNT],
            current: BitRate::FASTEST,
            sampling: false,
            old_rate: BitRate::FASTEST,
            delta_success: DELTA_SUCCESS,
            delta_fail: DELTA_FAIL,
        }
    }

    /// RapidSample with explicit `δ_success`/`δ_fail` (for the ablation
    /// bench; the paper "experimented with different values of δ_success
    /// ... and found little difference").
    pub fn with_params(delta_success: SimDuration, delta_fail: SimDuration) -> Self {
        let mut s = Self::new();
        s.delta_success = delta_success;
        s.delta_fail = delta_fail;
        s
    }

    /// The current operating rate.
    pub fn current_rate(&self) -> BitRate {
        self.current
    }

    /// True while the in-flight packet is an upward sample.
    pub fn is_sampling(&self) -> bool {
        self.sampling
    }

    /// Has `rate` failed within `δ_fail` of `now`?
    fn failed_recently(&self, now: SimTime, rate: BitRate) -> bool {
        match self.failed_time[rate.index()] {
            None => false,
            Some(t) => now.saturating_since(t) <= self.delta_fail,
        }
    }

    /// The fastest rate satisfying the sampling condition: neither it nor
    /// any slower rate failed within `δ_fail`. `None` when even the
    /// slowest rate failed recently.
    fn sample_candidate(&self, now: SimTime) -> Option<BitRate> {
        let mut best = None;
        for &r in &BitRate::ALL {
            if self.failed_recently(now, r) {
                break; // a failure at r bars r and everything above it
            }
            best = Some(r);
        }
        best
    }

    /// Adopt `rate` as the operating rate, stamping `pickedTime`.
    fn adopt(&mut self, now: SimTime, rate: BitRate) {
        if rate != self.current {
            self.picked_time[rate.index()] = now;
        }
        self.current = rate;
    }
}

impl RateAdapter for RapidSample {
    fn name(&self) -> &'static str {
        "RapidSample"
    }

    fn pick_rate(&mut self, _now: SimTime) -> BitRate {
        self.current
    }

    fn report(&mut self, now: SimTime, rate: BitRate, success: bool) {
        if rate != self.current {
            // A MAC retry chain may transmit below the rate we picked
            // (Sec. 3.3's MadWiFi driver does). Record the outcome for the
            // sampling window but leave the state machine to reports at
            // the operating rate.
            if !success {
                self.failed_time[rate.index()] = Some(now);
            }
            return;
        }
        if !success {
            self.failed_time[rate.index()] = Some(now);
            let next = if self.sampling {
                // A failed sample reverts to the pre-sample rate.
                self.old_rate
            } else {
                // Step down one rate (clamped at the slowest).
                rate.next_slower().unwrap_or(BitRate::SLOWEST)
            };
            self.sampling = false;
            self.adopt(now, next);
            return;
        }

        // Success. A successful sample is simply adopted (sampling ends).
        self.sampling = false;
        let held = now.saturating_since(self.picked_time[rate.index()]);
        if held > self.delta_success {
            if let Some(cand) = self.sample_candidate(now) {
                if cand.index() > rate.index() {
                    // Opportunistic upward jump; remember where to revert.
                    self.old_rate = rate;
                    self.sampling = true;
                    self.adopt(now, cand);
                }
            }
        }
    }

    fn reads_snr(&self) -> bool {
        false
    }

    fn reset(&mut self, now: SimTime) {
        *self = RapidSample::with_params(self.delta_success, self.delta_fail);
        self.picked_time = [now; BitRate::COUNT];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::testutil::drive;

    #[test]
    fn starts_at_fastest() {
        let mut rs = RapidSample::new();
        assert_eq!(rs.pick_rate(SimTime::ZERO), BitRate::R54);
    }

    #[test]
    fn steps_down_on_failure() {
        let mut rs = RapidSample::new();
        let r = rs.pick_rate(SimTime::ZERO);
        rs.report(SimTime::ZERO, r, false);
        assert_eq!(rs.pick_rate(SimTime::from_micros(1)), BitRate::R48);
        rs.report(SimTime::from_micros(1), BitRate::R48, false);
        assert_eq!(rs.pick_rate(SimTime::from_micros(2)), BitRate::R36);
    }

    #[test]
    fn clamped_at_slowest() {
        let mut rs = RapidSample::new();
        // Fail everything for a while: must bottom out at 6 Mbps, not panic.
        let rates = drive(&mut rs, 20, 300, |_, _| false);
        assert_eq!(*rates.last().unwrap(), BitRate::R6);
    }

    #[test]
    fn samples_up_after_delta_success() {
        let mut rs = RapidSample::new();
        // Fail once at 54 ⇒ at 48.
        rs.report(SimTime::ZERO, BitRate::R54, false);
        assert_eq!(rs.current_rate(), BitRate::R48);
        // Succeed at 48 for just under δ_success: no sample yet.
        rs.report(SimTime::from_millis(3), BitRate::R48, true);
        assert_eq!(rs.current_rate(), BitRate::R48);
        // Past δ_success but 54 failed within δ_fail ⇒ still no sample.
        rs.report(SimTime::from_millis(8), BitRate::R48, true);
        assert_eq!(rs.current_rate(), BitRate::R48, "54 failed 8 ms ago");
        // Past δ_fail since 54's failure ⇒ sample jumps straight to 54.
        rs.report(SimTime::from_millis(11), BitRate::R48, true);
        assert_eq!(rs.current_rate(), BitRate::R54);
        assert!(rs.is_sampling());
    }

    #[test]
    fn failed_sample_reverts() {
        let mut rs = RapidSample::new();
        rs.report(SimTime::ZERO, BitRate::R54, false); // → 48
        rs.report(SimTime::from_millis(11), BitRate::R48, true); // sample → 54
        assert_eq!(rs.current_rate(), BitRate::R54);
        rs.report(SimTime::from_millis(12), BitRate::R54, false);
        // Reverts to 48, NOT 48−1.
        assert_eq!(rs.current_rate(), BitRate::R48);
        assert!(!rs.is_sampling());
    }

    #[test]
    fn successful_sample_adopts_new_rate() {
        let mut rs = RapidSample::new();
        rs.report(SimTime::ZERO, BitRate::R54, false);
        rs.report(SimTime::from_millis(11), BitRate::R48, true); // sample → 54
        rs.report(SimTime::from_millis(12), BitRate::R54, true); // sample succeeds
        assert_eq!(rs.current_rate(), BitRate::R54);
        assert!(!rs.is_sampling());
    }

    #[test]
    fn slower_failure_blocks_upward_sampling() {
        // Condition (b): a slower rate's recent failure bars all rates
        // above it from being sampled.
        let mut rs =
            RapidSample::with_params(SimDuration::from_millis(5), SimDuration::from_millis(10));
        // Drop to 36 via failures at 54 and 48.
        rs.report(SimTime::ZERO, BitRate::R54, false);
        rs.report(SimTime::from_micros(200), BitRate::R48, false);
        assert_eq!(rs.current_rate(), BitRate::R36);
        // Succeed at 36 well past δ_success, but 48 failed 6 ms ago:
        // cannot sample 48 or 54.
        rs.report(SimTime::from_millis(6), BitRate::R36, true);
        assert_eq!(rs.current_rate(), BitRate::R36);
        // 11 ms: both failures have aged out; jump straight to 54.
        rs.report(SimTime::from_millis(11), BitRate::R36, true);
        assert_eq!(rs.current_rate(), BitRate::R54);
    }

    #[test]
    fn opportunistic_jump_skips_intermediate_rates() {
        let mut rs = RapidSample::new();
        // Sink to 6 Mbps.
        for i in 0..10 {
            let now = SimTime::from_micros(i * 100);
            let r = rs.pick_rate(now);
            rs.report(now, r, false);
        }
        assert_eq!(rs.current_rate(), BitRate::R6);
        // After everything ages out, one success jumps straight to 54.
        let t = SimTime::from_millis(30);
        rs.report(t, BitRate::R6, true);
        assert_eq!(
            rs.current_rate(),
            BitRate::R54,
            "jump should be opportunistic, not one-step"
        );
    }

    #[test]
    fn stays_at_rate_on_steady_success_before_window() {
        let mut rs = RapidSample::new();
        // All success at 54: nothing to sample above, rate pinned.
        let rates = drive(&mut rs, 50, 220, |_, _| true);
        assert!(rates.iter().all(|&r| r == BitRate::R54));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut rs = RapidSample::new();
        for i in 0..5 {
            let now = SimTime::from_micros(i * 100);
            let r = rs.pick_rate(now);
            rs.report(now, r, false);
        }
        assert_ne!(rs.current_rate(), BitRate::R54);
        rs.reset(SimTime::from_secs(1));
        assert_eq!(rs.current_rate(), BitRate::R54);
        assert!(!rs.is_sampling());
    }
}
