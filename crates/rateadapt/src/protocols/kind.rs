//! The closed set of rate-adaptation protocols, addressable by name.
//!
//! The [`crate::scenario`] API selects protocols **by name** so a
//! serialized [`crate::scenario::ScenarioSpec`] can say
//! `"protocol": {"name": "RapidSample"}` and mean the same thing in every
//! binary. [`ProtocolKind`] is that name table: the six protocols the
//! paper evaluates, each with one canonical display name (what outcomes
//! and tables print) and one constructor. Lookups are case-insensitive
//! (`"rapidsample"`, `"RapidSample"` and `"RAPIDSAMPLE"` all resolve).
//!
//! Validation resolves a spec's name once; compiled scenarios hold the
//! resolved kind and never look a name up again. An adapter outside this
//! set runs through [`crate::scenario::Scenario::run_with`].

use super::{Charm, HintAware, RapidSample, RateAdapter, Rbar, Rraa, SampleRate};
use hint_sim::SimDuration;

/// Tunables a protocol may consult when it is instantiated.
///
/// Today that is only SampleRate's averaging window (which also
/// parameterises the static arm of the hint-aware switcher); protocols
/// that don't care ignore it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProtocolParams {
    /// SampleRate's outcome-averaging window (Bicket's canonical ten
    /// seconds by default).
    pub samplerate_window: SimDuration,
}

impl Default for ProtocolParams {
    fn default() -> Self {
        ProtocolParams {
            samplerate_window: super::samplerate::WINDOW,
        }
    }
}

/// The protocols under evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The paper's mobile-optimised protocol (Sec. 3.1).
    RapidSample,
    /// Bicket's SampleRate.
    SampleRate,
    /// Wong et al.'s RRAA.
    Rraa,
    /// Holland et al.'s RBAR (SNR, instantaneous).
    Rbar,
    /// Judd et al.'s CHARM (SNR, averaged).
    Charm,
    /// The paper's hint-switched protocol (Sec. 3.2).
    HintAware,
}

impl ProtocolKind {
    /// All six protocols in the paper's presentation order.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::HintAware,
        ProtocolKind::RapidSample,
        ProtocolKind::SampleRate,
        ProtocolKind::Rraa,
        ProtocolKind::Rbar,
        ProtocolKind::Charm,
    ];

    /// The protocol `name` selects, ignoring ASCII case.
    pub fn from_name(name: &str) -> Option<ProtocolKind> {
        ProtocolKind::ALL
            .into_iter()
            .find(|kind| kind.name().eq_ignore_ascii_case(name))
    }

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::RapidSample => "RapidSample",
            ProtocolKind::SampleRate => "SampleRate",
            ProtocolKind::Rraa => "RRAA",
            ProtocolKind::Rbar => "RBAR",
            ProtocolKind::Charm => "CHARM",
            ProtocolKind::HintAware => "HintAware",
        }
    }

    /// A fresh adapter with clean state (SampleRate and HintAware take
    /// their averaging window from `params`).
    pub fn build(self, params: &ProtocolParams) -> Box<dyn RateAdapter> {
        match self {
            ProtocolKind::HintAware => Box::new(HintAware::with_strategies(
                RapidSample::new(),
                SampleRate::with_window(params.samplerate_window),
            )),
            ProtocolKind::RapidSample => Box::new(RapidSample::new()),
            ProtocolKind::SampleRate => Box::new(SampleRate::with_window(params.samplerate_window)),
            ProtocolKind::Rraa => Box::new(Rraa::new()),
            ProtocolKind::Rbar => Box::new(Rbar::new()),
            ProtocolKind::Charm => Box::new(Charm::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hint_mac::BitRate;
    use hint_sim::SimTime;
    use proptest::prelude::*;

    /// The rates `kind` picks over `steps`, fed the SNR `snr(step)`: each
    /// step is a movement hint, an SNR report, a pick and its outcome.
    fn drive(
        kind: ProtocolKind,
        steps: &[(u64, bool, u8, f64, f64)],
        snr: impl Fn(&(u64, bool, u8, f64, f64)) -> f64,
    ) -> Vec<BitRate> {
        let mut adapter = kind.build(&ProtocolParams {
            samplerate_window: SimDuration::from_millis(300),
        });
        let mut now = SimTime::ZERO;
        let mut rates = Vec::with_capacity(steps.len());
        for step in steps {
            let &(gap_us, moving, roll, _, _) = step;
            now += SimDuration::from_micros(gap_us);
            adapter.report_movement_hint(now, moving);
            adapter.report_snr(now, snr(step));
            let rate = adapter.pick_rate(now);
            // Success odds fall with the rate index.
            adapter.report(now, rate, u32::from(roll) > 12 * rate.index() as u32);
            rates.push(rate);
        }
        rates
    }

    proptest! {
        /// `reads_snr` is honest for every kind: a kind that says `false`
        /// picks the same rates whatever SNR it is fed, and RBAR and
        /// CHARM, which say `true`, pick differently when one feed reads
        /// 20–35 dB and the other 0–12 dB.
        #[test]
        fn reads_snr_is_honest(
            steps in proptest::collection::vec(
                (0u64..5_000, any::<bool>(), 0u8..100, 20.0f64..35.0, 0.0f64..12.0),
                200..400,
            ),
        ) {
            for kind in ProtocolKind::ALL {
                let a = drive(kind, &steps, |s| s.3);
                let b = drive(kind, &steps, |s| s.4);
                let reads = kind.build(&ProtocolParams::default()).reads_snr();
                prop_assert_eq!(
                    reads,
                    matches!(kind, ProtocolKind::Rbar | ProtocolKind::Charm),
                    "{}", kind.name()
                );
                if reads {
                    prop_assert_ne!(a, b, "{} ignored its SNR feed", kind.name());
                } else {
                    prop_assert_eq!(a, b, "{} reads SNR", kind.name());
                }
            }
        }
    }

    #[test]
    fn all_six_paper_protocols_in_presentation_order() {
        let names: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "HintAware",
                "RapidSample",
                "SampleRate",
                "RRAA",
                "RBAR",
                "CHARM"
            ]
        );
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_name(kind.name()), Some(kind));
            assert!(!kind.build(&ProtocolParams::default()).name().is_empty());
        }
    }

    #[test]
    fn lookup_is_case_insensitive_with_canonical_display() {
        assert_eq!(
            ProtocolKind::from_name("rapidsample"),
            Some(ProtocolKind::RapidSample)
        );
        assert_eq!(
            ProtocolKind::from_name("HINTAWARE"),
            Some(ProtocolKind::HintAware)
        );
        assert_eq!(
            ProtocolKind::from_name("rraa").map(ProtocolKind::name),
            Some("RRAA")
        );
        assert_eq!(ProtocolKind::from_name("made-up"), None);
    }

    #[test]
    fn builds_yield_fresh_state() {
        // Drive one SampleRate adapter into a loss history, then build
        // another: the second must start from scratch, picking exactly
        // what a never-used adapter picks.
        let params = ProtocolParams::default();
        let mut used = ProtocolKind::SampleRate.build(&params);
        for i in 0..200 {
            let now = SimTime::from_micros(i * 1_000);
            let rate = used.pick_rate(now);
            used.report(now, rate, false);
        }
        let mut fresh = ProtocolKind::SampleRate.build(&params);
        let mut reference = SampleRate::with_window(params.samplerate_window);
        let t = SimTime::from_micros(200_000);
        assert_eq!(fresh.pick_rate(t), reference.pick_rate(t));
    }
}
