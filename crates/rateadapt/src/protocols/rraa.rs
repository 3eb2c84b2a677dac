//! RRAA — Robust Rate Adaptation Algorithm (Wong et al., MobiCom 2006).
//!
//! "RRAA is more opportunistic than SampleRate and uses a short time
//! window of frame loss statistics to choose the best bit rate" (Sec. 6.2).
//!
//! Per the original design, RRAA evaluates the loss ratio over a short
//! window of frames at the current rate against two airtime-derived
//! thresholds:
//!
//! * **P_MTL** (maximum tolerable loss) of rate `r`: the critical loss
//!   ratio at which `r`'s goodput falls below the next slower rate's
//!   lossless goodput — `P_MTL(r) = 1 − T(r)/T(r−1)` with `T` the
//!   per-packet exchange time. Loss above this ⇒ step down.
//! * **P_ORI** (opportunistic rate increase) of rate `r`:
//!   `P_MTL(r+1) / α` with `α = 2`. Loss below this ⇒ step up.
//!
//! The window (default 40 frames) is far shorter than SampleRate's ten
//! seconds, making RRAA quicker to react — but still a window behind the
//! channel when a mobile node's coherence time is ~10 ms, "it still does
//! not adapt to the rapidly changing channel conditions when a node is
//! mobile" (Sec. 6.2). The adaptive RTS/CTS part of RRAA addresses
//! collision losses, which the single-link traces of Ch. 3 do not contain,
//! so it is omitted here (as it effectively is in the paper's single-flow
//! evaluation).

use super::RateAdapter;
use hint_mac::{BitRate, MacTiming};
use hint_sim::SimTime;

/// Default evaluation window in frames. The RRAA paper sizes windows so
/// loss estimates are statistically stable (tens to ~hundred frames); 100
/// frames is ~20-50 ms at the top 802.11a rates — far shorter than
/// SampleRate's ten seconds, but still beyond the ~10 ms mobile channel
/// coherence time, which is exactly why RRAA lags when a node moves.
pub const WINDOW_FRAMES: u32 = 100;

/// α divisor for the opportunistic-rate-increase threshold.
pub const ALPHA: f64 = 2.0;

/// The RRAA protocol state.
#[derive(Clone, Debug)]
pub struct Rraa {
    current: BitRate,
    losses: u32,
    frames: u32,
    /// Per-rate P_MTL, precomputed from airtimes.
    pmtl: [f64; BitRate::COUNT],
    /// Window length in frames.
    pub window_frames: u32,
}

impl Default for Rraa {
    fn default() -> Self {
        Self::new()
    }
}

impl Rraa {
    /// RRAA over 1000-byte packets with the default 40-frame window,
    /// starting at the fastest rate (RRAA starts optimistically).
    pub fn new() -> Self {
        Self::for_payload(1000)
    }

    /// RRAA with airtime thresholds computed for a given payload size.
    pub fn for_payload(payload_bytes: u32) -> Self {
        let timing = MacTiming::ieee80211a();
        let t = |r: BitRate| timing.exchange_airtime(r, payload_bytes).as_secs_f64();
        let mut pmtl = [0.0; BitRate::COUNT];
        for &r in &BitRate::ALL {
            pmtl[r.index()] = match r.next_slower() {
                // The slowest rate has nowhere to go: tolerate anything.
                None => 1.0,
                Some(lower) => 1.0 - t(r) / t(lower),
            };
        }
        Rraa {
            current: BitRate::FASTEST,
            losses: 0,
            frames: 0,
            pmtl,
            window_frames: WINDOW_FRAMES,
        }
    }

    /// P_MTL of `rate`.
    pub fn p_mtl(&self, rate: BitRate) -> f64 {
        self.pmtl[rate.index()]
    }

    /// P_ORI of `rate` (0 at the fastest rate — no way up).
    pub fn p_ori(&self, rate: BitRate) -> f64 {
        match rate.next_faster() {
            None => 0.0,
            Some(up) => self.pmtl[up.index()] / ALPHA,
        }
    }

    /// The current operating rate.
    pub fn current_rate(&self) -> BitRate {
        self.current
    }

    fn end_window(&mut self) {
        let p = f64::from(self.losses) / f64::from(self.frames.max(1));
        if p > self.p_mtl(self.current) {
            if let Some(down) = self.current.next_slower() {
                self.current = down;
            }
        } else if p < self.p_ori(self.current) {
            if let Some(up) = self.current.next_faster() {
                self.current = up;
            }
        }
        self.losses = 0;
        self.frames = 0;
    }
}

impl RateAdapter for Rraa {
    fn name(&self) -> &'static str {
        "RRAA"
    }

    fn pick_rate(&mut self, _now: SimTime) -> BitRate {
        self.current
    }

    fn report(&mut self, _now: SimTime, _rate: BitRate, success: bool) {
        // Retry-chain attempts below the picked rate still count toward
        // the window's loss statistics, as in the original RRAA.
        self.frames += 1;
        if !success {
            self.losses += 1;
        }
        // RRAA short-circuits a window early when the loss count already
        // guarantees crossing P_MTL — this is what makes it "opportunistic".
        let p_if_rest_succeed = f64::from(self.losses) / f64::from(self.window_frames);
        if self.frames >= self.window_frames || p_if_rest_succeed > self.p_mtl(self.current) {
            self.end_window();
        }
    }

    fn reads_snr(&self) -> bool {
        false
    }

    fn reset(&mut self, _now: SimTime) {
        let w = self.window_frames;
        *self = Rraa::new();
        self.window_frames = w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::testutil::drive;

    #[test]
    fn thresholds_are_sane() {
        let r = Rraa::new();
        for &rate in &BitRate::ALL {
            let mtl = r.p_mtl(rate);
            assert!((0.0..=1.0).contains(&mtl), "{rate} P_MTL {mtl}");
            let ori = r.p_ori(rate);
            assert!(
                ori <= mtl || rate == BitRate::R6,
                "{rate} ORI {ori} > MTL {mtl}"
            );
        }
        // The slowest rate never steps down.
        assert_eq!(r.p_mtl(BitRate::R6), 1.0);
        // The fastest rate never steps up.
        assert_eq!(r.p_ori(BitRate::R54), 0.0);
        // Low rates tolerate much more loss than the top rates.
        assert!(r.p_mtl(BitRate::R9) > r.p_mtl(BitRate::R54));
    }

    #[test]
    fn clean_channel_stays_fast() {
        let mut r = Rraa::new();
        let rates = drive(&mut r, 500, 220, |_, _| true);
        assert!(rates.iter().all(|&x| x == BitRate::R54));
    }

    #[test]
    fn heavy_loss_steps_down_quickly() {
        let mut r = Rraa::new();
        // Total blackout at every rate: must descend towards 6 Mbps.
        let rates = drive(&mut r, 2000, 220, |_, _| false);
        assert_eq!(*rates.last().unwrap(), BitRate::R6);
        // The early-exit makes descent much faster than 40 frames/step.
        let first_at_6 = rates.iter().position(|&x| x == BitRate::R6).unwrap();
        assert!(first_at_6 < 600, "took {first_at_6} frames to reach 6 Mbps");
    }

    #[test]
    fn moderate_loss_holds_position() {
        // Loss ratio between ORI and MTL at 36 Mbps should neither climb
        // nor fall (hysteresis band).
        let mut r = Rraa::new();
        // First crash down to 36 via blackout at 54/48.
        let mut i = 0u64;
        while r.current_rate() != BitRate::R36 {
            let now = SimTime::from_micros(i * 220);
            let rate = r.pick_rate(now);
            r.report(now, rate, rate.index() < BitRate::R36.index());
            i += 1;
        }
        let mtl = r.p_mtl(BitRate::R36);
        let ori = r.p_ori(BitRate::R36);
        let mid = (mtl + ori) / 2.0;
        // Feed a loss pattern at ratio ~mid.
        let mut k = 0u64;
        let rates = drive(&mut r, 400, 250, |_, rate| {
            if rate != BitRate::R36 {
                return true; // shouldn't happen, but keep it stable
            }
            k += 1;
            (k as f64 * mid).fract() >= mid
        });
        let at36 = rates.iter().filter(|&&x| x == BitRate::R36).count();
        assert!(
            at36 as f64 / rates.len() as f64 > 0.9,
            "36 share {}",
            at36 as f64 / rates.len() as f64
        );
    }

    #[test]
    fn recovery_steps_up_after_loss_clears() {
        let mut r = Rraa::new();
        // Blackout to the bottom...
        drive(&mut r, 500, 220, |_, _| false);
        assert_eq!(r.current_rate(), BitRate::R6);
        // ...then a perfectly clean channel: must climb back to 54.
        drive(&mut r, 2000, 220, |_, _| true);
        assert_eq!(r.current_rate(), BitRate::R54);
    }

    #[test]
    fn reset_restores_fastest() {
        let mut r = Rraa::new();
        drive(&mut r, 300, 220, |_, _| false);
        assert_ne!(r.current_rate(), BitRate::R54);
        r.reset(SimTime::from_secs(1));
        assert_eq!(r.current_rate(), BitRate::R54);
    }
}
