//! SampleRate (Bicket 2005) — the static-optimised frame-based protocol.
//!
//! "SampleRate picks the bit rate that minimizes the average packet
//! transmission time over a ten-second window. It periodically samples
//! higher bit rates to adapt to changing channel conditions" (Sec. 6.2).
//!
//! Implementation notes:
//!
//! * Per-rate sliding window of transmission outcomes (default 10 s).
//!   The *average transmission time per successfully delivered packet* at
//!   rate `r` is `attempts(r) × airtime(r) / successes(r)`; a rate with
//!   attempts but no successes in the window is treated as infinitely
//!   expensive, and an untried rate is scored at its lossless airtime
//!   (optimism drives initial exploration).
//! * Every `sample_every`-th packet (default 10th ⇒ ~10% sampling, as in
//!   Bicket's design) transmits at a *candidate* rate instead of the
//!   current best: a rate whose **lossless** airtime beats the best rate's
//!   current average — i.e. a rate that could plausibly win.
//! * Each rate's average is cached and recomputed, by the same arithmetic,
//!   only when that rate's window changes: a report pushes to one rate,
//!   and expiry pops from few. A pick then compares eight cached values
//!   instead of dividing eight times.
//!
//! The long window is exactly why SampleRate excels when static (it
//! averages out short-term fading) and struggles when mobile (its history
//! goes stale within one channel coherence time; Sec. 3.5, Fig. 3-6).

use super::RateAdapter;
use hint_mac::{BitRate, MacTiming};
use hint_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The default averaging window: ten seconds.
pub const WINDOW: SimDuration = SimDuration::from_secs(10);

/// Default sampling cadence: every 10th packet is a sample.
pub const SAMPLE_EVERY: u64 = 10;

/// One recorded transmission.
#[derive(Clone, Copy, Debug)]
struct Outcome {
    t: SimTime,
    success: bool,
}

/// Per-rate outcome history over the sliding window.
#[derive(Clone, Debug, Default)]
struct RateStats {
    outcomes: VecDeque<Outcome>,
    attempts: u64,
    successes: u64,
}

impl RateStats {
    fn push(&mut self, t: SimTime, success: bool) {
        self.outcomes.push_back(Outcome { t, success });
        self.attempts += 1;
        if success {
            self.successes += 1;
        }
    }

    /// Drop the outcomes older than `window`; true when any was dropped.
    fn expire(&mut self, now: SimTime, window: SimDuration) -> bool {
        let before = self.outcomes.len();
        while let Some(o) = self.outcomes.front() {
            if now.saturating_since(o.t) > window {
                self.attempts -= 1;
                if o.success {
                    self.successes -= 1;
                }
                self.outcomes.pop_front();
            } else {
                break;
            }
        }
        self.outcomes.len() != before
    }

    /// Average transmission time per delivered packet for a rate whose
    /// lossless airtime is `lossless` (`f64::INFINITY` when the window
    /// shows attempts but no successes).
    fn avg_tx_time(&self, lossless: f64) -> f64 {
        if self.attempts == 0 {
            // Untried: optimistic lossless estimate.
            return lossless;
        }
        if self.successes == 0 {
            return f64::INFINITY;
        }
        self.attempts as f64 * lossless / self.successes as f64
    }
}

/// The SampleRate protocol state.
#[derive(Clone, Debug)]
pub struct SampleRate {
    stats: [RateStats; BitRate::COUNT],
    /// Per-rate lossless exchange airtime in seconds, precomputed once:
    /// `best_rate` consults it for every rate on every pick, which made
    /// the symbol-packing arithmetic the protocol's hottest instruction
    /// path.
    lossless_s: [f64; BitRate::COUNT],
    /// Each rate's [`RateStats::avg_tx_time`], kept current by
    /// [`SampleRate::refresh`] whenever that rate's window changes.
    avg_s: [f64; BitRate::COUNT],
    packet_counter: u64,
    /// Round-robin cursor over sample candidates.
    sample_cursor: usize,
    /// Averaging window length.
    pub window: SimDuration,
    /// Sample every n-th packet.
    pub sample_every: u64,
}

impl Default for SampleRate {
    fn default() -> Self {
        Self::new()
    }
}

impl SampleRate {
    /// SampleRate with the canonical 10 s window, 10% sampling, 1000-byte
    /// packets.
    pub fn new() -> Self {
        let timing = MacTiming::ieee80211a();
        let mut lossless_s = [0.0; BitRate::COUNT];
        for &r in &BitRate::ALL {
            lossless_s[r.index()] = timing.exchange_airtime(r, 1000).as_secs_f64();
        }
        SampleRate {
            stats: Default::default(),
            lossless_s,
            // Every window starts empty, so every average is lossless.
            avg_s: lossless_s,
            packet_counter: 0,
            sample_cursor: 0,
            window: WINDOW,
            sample_every: SAMPLE_EVERY,
        }
    }

    /// SampleRate with an explicit window (the paper post-processes traces
    /// to find the best per-trace parameter; the Fig. 3-5 harness sweeps
    /// this to grant SampleRate the same favour).
    pub fn with_window(window: SimDuration) -> Self {
        let mut s = Self::new();
        s.window = window;
        s
    }

    /// Lossless airtime of one packet at `rate`.
    #[inline]
    fn lossless(&self, rate: BitRate) -> f64 {
        self.lossless_s[rate.index()]
    }

    /// Average transmission time per delivered packet at `rate`.
    #[inline]
    fn avg_tx_time(&self, rate: BitRate) -> f64 {
        self.avg_s[rate.index()]
    }

    /// Recompute the cached average of the rate at index `i`.
    fn refresh(&mut self, i: usize) {
        self.avg_s[i] = self.stats[i].avg_tx_time(self.lossless_s[i]);
    }

    /// The rate with the minimum average transmission time.
    fn best_rate(&self) -> BitRate {
        let mut best = BitRate::SLOWEST;
        let mut best_time = f64::INFINITY;
        for &r in &BitRate::ALL {
            let t = self.avg_tx_time(r);
            // Strict less-than keeps the slowest rate on total blackout.
            if t < best_time {
                best_time = t;
                best = r;
            }
        }
        best
    }

    /// Candidate rates worth sampling, slowest first: lossless time beats
    /// the current best average, excluding the best rate itself.
    fn sample_candidates(&self, best: BitRate) -> impl Iterator<Item = BitRate> + '_ {
        let best_avg = self.avg_tx_time(best);
        BitRate::ALL
            .into_iter()
            .filter(move |&r| r != best && self.lossless(r) < best_avg)
    }

    fn expire_all(&mut self, now: SimTime) {
        for i in 0..BitRate::COUNT {
            if self.stats[i].expire(now, self.window) {
                self.refresh(i);
            }
        }
    }
}

impl RateAdapter for SampleRate {
    fn name(&self) -> &'static str {
        "SampleRate"
    }

    fn pick_rate(&mut self, now: SimTime) -> BitRate {
        self.expire_all(now);
        self.packet_counter += 1;
        let best = self.best_rate();
        if self.packet_counter % self.sample_every == 0 {
            let count = self.sample_candidates(best).count();
            if count > 0 {
                self.sample_cursor = (self.sample_cursor + 1) % count;
                if let Some(r) = self.sample_candidates(best).nth(self.sample_cursor) {
                    return r;
                }
            }
        }
        best
    }

    fn report(&mut self, now: SimTime, rate: BitRate, success: bool) {
        self.stats[rate.index()].push(now, success);
        self.refresh(rate.index());
    }

    fn reads_snr(&self) -> bool {
        false
    }

    fn reset(&mut self, _now: SimTime) {
        let window = self.window;
        let sample_every = self.sample_every;
        *self = SampleRate::new();
        self.window = window;
        self.sample_every = sample_every;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::testutil::drive;
    use proptest::prelude::*;

    /// SampleRate without the cache: every pick recomputes every rate's
    /// average from its window and collects the sample candidates into a
    /// `Vec`, as the protocol did before the averages were cached.
    struct Reference {
        stats: [RateStats; BitRate::COUNT],
        lossless_s: [f64; BitRate::COUNT],
        packet_counter: u64,
        sample_cursor: usize,
        window: SimDuration,
        sample_every: u64,
    }

    impl Reference {
        fn new(window: SimDuration, sample_every: u64) -> Self {
            let timing = MacTiming::ieee80211a();
            Reference {
                stats: Default::default(),
                lossless_s: BitRate::ALL.map(|r| timing.exchange_airtime(r, 1000).as_secs_f64()),
                packet_counter: 0,
                sample_cursor: 0,
                window,
                sample_every,
            }
        }

        fn avg_tx_time(&self, r: BitRate) -> f64 {
            let s = &self.stats[r.index()];
            let lossless = self.lossless_s[r.index()];
            if s.attempts == 0 {
                return lossless;
            }
            if s.successes == 0 {
                return f64::INFINITY;
            }
            s.attempts as f64 * lossless / s.successes as f64
        }

        fn pick_rate(&mut self, now: SimTime) -> BitRate {
            for s in &mut self.stats {
                s.expire(now, self.window);
            }
            self.packet_counter += 1;
            let mut best = BitRate::SLOWEST;
            let mut best_time = f64::INFINITY;
            for &r in &BitRate::ALL {
                let t = self.avg_tx_time(r);
                if t < best_time {
                    best_time = t;
                    best = r;
                }
            }
            if self.packet_counter % self.sample_every == 0 {
                let cands: Vec<BitRate> = BitRate::ALL
                    .iter()
                    .copied()
                    .filter(|&r| r != best && self.lossless_s[r.index()] < best_time)
                    .collect();
                if !cands.is_empty() {
                    self.sample_cursor = (self.sample_cursor + 1) % cands.len();
                    return cands[self.sample_cursor];
                }
            }
            best
        }

        fn report(&mut self, now: SimTime, rate: BitRate, success: bool) {
            self.stats[rate.index()].push(now, success);
        }

        fn reset(&mut self) {
            *self = Reference::new(self.window, self.sample_every);
        }
    }

    proptest! {
        /// Over random outcome streams, with windows short enough to
        /// expire, resets and any sampling cadence, the cached protocol
        /// picks exactly what the from-scratch reference picks, and every
        /// cached average equals its recomputation to the bit.
        #[test]
        fn cached_averages_pick_what_a_recomputation_picks(
            window_ms in 1u64..400,
            sample_every in 1u64..12,
            steps in proptest::collection::vec((0u64..30_000, 0u8..100, 0usize..BitRate::COUNT), 1..400),
        ) {
            let window = SimDuration::from_millis(window_ms);
            let mut cached = SampleRate::with_window(window);
            cached.sample_every = sample_every;
            let mut reference = Reference::new(window, sample_every);
            let mut now = SimTime::ZERO;
            for (gap_us, roll, retry_rate) in steps {
                now += SimDuration::from_micros(gap_us);
                if roll == 0 {
                    cached.reset(now);
                    reference.reset();
                    continue;
                }
                let rate = cached.pick_rate(now);
                prop_assert_eq!(rate, reference.pick_rate(now));
                // Mostly the picked rate, sometimes a retry-chain rate;
                // success odds fall with the rate index.
                let sent = if roll % 7 == 0 { BitRate::from_index(retry_rate) } else { rate };
                let ok = u64::from(roll) * 8 > 20 * sent.index() as u64 + 40;
                cached.report(now, sent, ok);
                reference.report(now, sent, ok);
                for r in BitRate::ALL {
                    prop_assert_eq!(
                        cached.avg_tx_time(r).to_bits(),
                        reference.avg_tx_time(r).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn converges_to_best_rate_under_clean_channel() {
        let mut sr = SampleRate::new();
        // Everything succeeds: 54 Mbps has the lowest lossless time and
        // must dominate after warm-up.
        let rates = drive(&mut sr, 2000, 220, |_, _| true);
        let tail = &rates[1000..];
        let at54 = tail.iter().filter(|&&r| r == BitRate::R54).count();
        assert!(
            at54 as f64 / tail.len() as f64 > 0.85,
            "54 Mbps share {}",
            at54 as f64 / tail.len() as f64
        );
    }

    #[test]
    fn avoids_rate_that_always_fails() {
        let mut sr = SampleRate::new();
        // 54 always fails; 48 and below always succeed.
        let rates = drive(&mut sr, 3000, 220, |_, r| r != BitRate::R54);
        let tail = &rates[1500..];
        let at48 = tail.iter().filter(|&&r| r == BitRate::R48).count();
        let at54 = tail.iter().filter(|&&r| r == BitRate::R54).count();
        assert!(
            at48 as f64 / tail.len() as f64 > 0.8,
            "48 share {}",
            at48 as f64 / tail.len() as f64
        );
        // 54 only ever appears as an occasional sample (~≤10%).
        assert!(
            (at54 as f64 / tail.len() as f64) < 0.15,
            "54 sampled too often: {}",
            at54 as f64 / tail.len() as f64
        );
    }

    #[test]
    fn sampling_cadence_is_bounded() {
        let mut sr = SampleRate::new();
        // With a clean channel at 54 there is nothing better to sample
        // (no rate has lower lossless time), so all packets go at 54.
        let rates = drive(&mut sr, 500, 220, |_, _| true);
        let non54 = rates[100..].iter().filter(|&&r| r != BitRate::R54).count();
        assert!(non54 <= 40, "spurious sampling: {non54}");
    }

    #[test]
    fn stale_history_expires() {
        let mut sr = SampleRate::with_window(SimDuration::from_secs(1));
        // Massive failure history at 54 within t < 1 s.
        for i in 0..100 {
            sr.report(SimTime::from_micros(i * 1000), BitRate::R54, false);
            sr.report(SimTime::from_micros(i * 1000), BitRate::R48, true);
        }
        // Right after, best is 48.
        assert_eq!(sr.pick_rate(SimTime::from_millis(101)), BitRate::R48);
        // Two windows later all history is gone; optimism returns to 54.
        assert_eq!(sr.pick_rate(SimTime::from_secs(3)), BitRate::R54);
    }

    #[test]
    fn mixed_loss_prefers_throughput_optimal_rate() {
        // 54 succeeds 30% of the time, 36 succeeds always. Average tx
        // time at 54 = 220/0.3 = 733 µs > 272 µs at 36 ⇒ 36 must win.
        let mut sr = SampleRate::new();
        let mut i54 = 0u64;
        let rates = drive(&mut sr, 4000, 250, |_, r| match r {
            BitRate::R54 => {
                i54 += 1;
                i54 % 10 < 3
            }
            _ => true,
        });
        let tail = &rates[2000..];
        let at36plus = tail
            .iter()
            .filter(|&&r| r == BitRate::R36 || r == BitRate::R48)
            .count();
        assert!(
            at36plus as f64 / tail.len() as f64 > 0.7,
            "should settle at 36/48, got {:?}",
            tail.iter().filter(|&&r| r == BitRate::R54).count()
        );
    }

    #[test]
    fn reset_clears_history() {
        let mut sr = SampleRate::new();
        for i in 0..50 {
            sr.report(SimTime::from_micros(i * 220), BitRate::R54, false);
        }
        sr.reset(SimTime::from_millis(100));
        // Fresh optimism: picks 54 again.
        assert_eq!(sr.pick_rate(SimTime::from_millis(100)), BitRate::R54);
    }
}
