//! The rate-adaptation protocols under evaluation.

mod charm;
mod hintaware;
mod kind;
mod rapidsample;
mod rbar;
pub mod registry;
mod rraa;
mod samplerate;

pub use charm::Charm;
pub use hintaware::HintAware;
pub use kind::{ProtocolKind, ProtocolParams};
pub use rapidsample::RapidSample;
pub use rbar::Rbar;
pub use rraa::Rraa;
pub use samplerate::SampleRate;

use hint_mac::BitRate;
use hint_sim::SimTime;

/// The interface every rate-adaptation protocol implements.
///
/// The link simulator drives an adapter packet by packet: it asks for a
/// rate, transmits, then reports the outcome. SNR-based protocols
/// additionally receive per-packet SNR feedback (the paper "assumed that
/// the sender has up-to-date knowledge about the receiver SNR", Sec. 3.4),
/// and hint-aware protocols receive movement hints via the hint protocol.
///
/// The trait is object-safe: simulators take `&mut dyn RateAdapter` and
/// [`ProtocolKind::build`] hands the six paper protocols out as
/// `Box<dyn RateAdapter>`. Specs name only those six; any other adapter
/// runs over a compiled scenario through
/// [`crate::scenario::Scenario::run_with`].
///
/// # Example: a custom adapter over a compiled scenario
///
/// A minimal fixed-rate adapter, run over the same trace, hints and
/// workload a spec-selected protocol would see:
///
/// ```
/// use hint_mac::BitRate;
/// use hint_rateadapt::protocols::RateAdapter;
/// use hint_rateadapt::scenario::ScenarioSpec;
/// use hint_sim::{SimDuration, SimTime};
///
/// /// Always transmits at 6 Mbit/s.
/// struct Fixed6;
///
/// impl RateAdapter for Fixed6 {
///     fn name(&self) -> &'static str {
///         "Fixed6"
///     }
///     fn pick_rate(&mut self, _now: SimTime) -> BitRate {
///         BitRate::R6
///     }
///     fn report(&mut self, _now: SimTime, _rate: BitRate, _ok: bool) {}
///     fn reset(&mut self, _now: SimTime) {}
/// }
///
/// let scenario = ScenarioSpec {
///     duration: SimDuration::from_secs(2),
///     seed: 7,
///     ..ScenarioSpec::default()
/// }
/// .compile()
/// .expect("valid scenario");
/// let result = scenario.run_with(&mut Fixed6);
/// assert!(result.goodput_bps > 0.0);
/// assert_eq!(result.rate_usage[BitRate::R6.index()], result.attempts);
/// ```
pub trait RateAdapter {
    /// Short name used in result tables.
    fn name(&self) -> &'static str;

    /// Choose the bit rate for the next transmission at time `now`.
    fn pick_rate(&mut self, now: SimTime) -> BitRate;

    /// Report the outcome of the transmission that started at `now` at
    /// `rate` (`success` = link-layer ACK received).
    fn report(&mut self, now: SimTime, rate: BitRate, success: bool);

    /// Per-packet receiver SNR feedback in dB (consumed by RBAR/CHARM;
    /// ignored by frame-based protocols).
    fn report_snr(&mut self, _now: SimTime, _snr_db: f64) {}

    /// Whether [`RateAdapter::report_snr`] can change what this adapter
    /// picks. The link simulator measures SNR only for adapters that say
    /// yes. The default is `true`, so a custom adapter always gets the
    /// feedback; an adapter whose picks never depend on SNR returns
    /// `false` to spare every attempt the measurement.
    fn reads_snr(&self) -> bool {
        true
    }

    /// Movement hint delivered by the hint protocol (consumed by the
    /// hint-aware switcher; ignored by hint-oblivious protocols).
    fn report_movement_hint(&mut self, _now: SimTime, _moving: bool) {}

    /// Reset all protocol state (used when the hint-aware switcher
    /// reactivates a strategy whose history has gone stale).
    fn reset(&mut self, now: SimTime);
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Drive an adapter with a fixed success pattern and return the rates
    /// it picked. `pattern(i)` gives the fate of packet `i`; packets are
    /// `gap_us` apart.
    pub fn drive<A: RateAdapter>(
        adapter: &mut A,
        n: usize,
        gap_us: u64,
        mut pattern: impl FnMut(usize, BitRate) -> bool,
    ) -> Vec<BitRate> {
        let mut rates = Vec::with_capacity(n);
        for i in 0..n {
            let now = SimTime::from_micros(i as u64 * gap_us);
            let r = adapter.pick_rate(now);
            let ok = pattern(i, r);
            adapter.report(now, r, ok);
            rates.push(r);
        }
        rates
    }
}
