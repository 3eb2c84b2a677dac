//! Figs. 3-5, 3-6, 3-7, 3-8 — the rate-adaptation throughput comparisons.
//!
//! * **Fig. 3-5** (mixed mobility, TCP): the hint-aware protocol beats
//!   SampleRate by 23–52%, RRAA by 17–39%, RBAR by up to 47% across the
//!   office / hallway / outdoor environments.
//! * **Fig. 3-6** (mobile, TCP): RapidSample wins everywhere — up to 75%
//!   over SampleRate and up to 25% over the others.
//! * **Fig. 3-7** (static, TCP): RapidSample is *worst* (12–28% below
//!   SampleRate); SampleRate is consistently best or tied.
//! * **Fig. 3-8** (vehicular, UDP): RapidSample wins by ~28% over
//!   SampleRate, ~36% over RRAA, and ~2× over the SNR-based protocols.

use crate::report::Report;
use crate::rline;
use hint_channel::Environment;
use hint_rateadapt::evaluate::{evaluate, score_of, EvalConfig, ScenarioFamily};
use hint_rateadapt::protocols::ProtocolKind;
use hint_rateadapt::Workload;
use hint_sim::SimDuration;

/// One environment's normalized scores.
#[derive(Clone, Debug)]
pub struct EnvScores {
    /// Environment name.
    pub env: String,
    /// `(protocol, normalized mean, normalized 95% CI)` rows, normalized
    /// to the reference protocol's mean.
    pub rows: Vec<(ProtocolKind, f64, f64)>,
}

/// Which figure of the 3-x family to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig3 {
    /// Fig. 3-5: mixed mobility, normalized to HintAware.
    MixedMobility,
    /// Fig. 3-6: mobile, normalized to RapidSample.
    Mobile,
    /// Fig. 3-7: static, normalized to RapidSample.
    Static,
    /// Fig. 3-8: vehicular UDP, normalized to RapidSample.
    Vehicular,
}

impl Fig3 {
    /// The scenario family and workload of this figure.
    fn scenario(self) -> (ScenarioFamily, Workload) {
        match self {
            Fig3::MixedMobility => (
                ScenarioFamily::MixedMobility {
                    half: SimDuration::from_secs(10),
                },
                Workload::tcp(),
            ),
            Fig3::Mobile => (
                ScenarioFamily::Mobile {
                    duration: SimDuration::from_secs(20),
                },
                Workload::tcp(),
            ),
            Fig3::Static => (
                ScenarioFamily::Static {
                    duration: SimDuration::from_secs(20),
                },
                Workload::tcp(),
            ),
            Fig3::Vehicular => (
                ScenarioFamily::Vehicular {
                    duration: SimDuration::from_secs(10),
                    speed_mps: 15.0,
                },
                Workload::Udp,
            ),
        }
    }

    /// The protocol every bar is normalized to.
    pub fn reference(self) -> ProtocolKind {
        match self {
            Fig3::MixedMobility => ProtocolKind::HintAware,
            _ => ProtocolKind::RapidSample,
        }
    }

    /// The environments the figure covers.
    fn environments(self) -> Vec<Environment> {
        match self {
            Fig3::Vehicular => vec![Environment::vehicular()],
            _ => Environment::indoor_three(),
        }
    }

    /// Figure title.
    pub fn title(self) -> &'static str {
        match self {
            Fig3::MixedMobility => "Fig. 3-5: mixed mobility (TCP), normalized to HintAware",
            Fig3::Mobile => "Fig. 3-6: mobile (TCP), normalized to RapidSample",
            Fig3::Static => "Fig. 3-7: static (TCP), normalized to RapidSample",
            Fig3::Vehicular => "Fig. 3-8: vehicular (UDP), normalized to RapidSample",
        }
    }
}

/// Run one of the Fig. 3-x experiments with `n_traces` per environment,
/// returning its output as a [`Report`] plus the per-environment scores.
pub fn report(fig: Fig3, n_traces: usize) -> (Report, Vec<EnvScores>) {
    let mut r = Report::new(match fig {
        Fig3::MixedMobility => "fig_3_5",
        Fig3::Mobile => "fig_3_6",
        Fig3::Static => "fig_3_7",
        Fig3::Vehicular => "fig_3_8",
    });
    r.header(fig.title());
    let (scenario, workload) = fig.scenario();
    let cfg = EvalConfig {
        n_traces,
        seed: 0x60 + fig as u64,
        workload,
        ..EvalConfig::default()
    };
    let reference = fig.reference();

    let mut out = Vec::new();
    for env in fig.environments() {
        let scores = evaluate(&env, &scenario, &cfg);
        let ref_mean = score_of(&scores, reference).mean_bps;
        let rows: Vec<(ProtocolKind, f64, f64)> = scores
            .iter()
            .map(|s| {
                (
                    s.protocol,
                    s.normalized_to(ref_mean),
                    s.normalized_ci(ref_mean),
                )
            })
            .collect();
        out.push(EnvScores {
            env: env.name.clone(),
            rows,
        });
    }

    // Print: one row per protocol, one column per environment.
    let headers: Vec<String> = std::iter::once("protocol".to_string())
        .chain(out.iter().map(|e| e.env.clone()))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = ProtocolKind::ALL
        .iter()
        .map(|&p| {
            let mut row = vec![p.name().to_string()];
            for env in &out {
                let (_, norm, ci) = env.rows.iter().find(|(k, _, _)| *k == p).expect("scored");
                row.push(format!("{norm:.3} ±{ci:.3}"));
            }
            row
        })
        .collect();
    r.table(&header_refs, &rows);
    rline!(
        r,
        "(normalized mean throughput; ± is the normalized 95% CI half-width)"
    );
    (r, out)
}

/// Convenience accessor: normalized score of `proto` in `env_scores`.
pub fn norm_of(env_scores: &EnvScores, proto: ProtocolKind) -> f64 {
    env_scores
        .rows
        .iter()
        .find(|(k, _, _)| *k == proto)
        .map(|(_, n, _)| *n)
        .expect("protocol present")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_3_5_hintaware_wins_everywhere() {
        for env in report(Fig3::MixedMobility, 4).1 {
            let hint = norm_of(&env, ProtocolKind::HintAware);
            for p in [
                ProtocolKind::SampleRate,
                ProtocolKind::Rraa,
                ProtocolKind::Rbar,
            ] {
                let other = norm_of(&env, p);
                assert!(
                    hint > other,
                    "{}: HintAware {hint:.2} must beat {} {other:.2}",
                    env.env,
                    p.name()
                );
            }
        }
    }

    #[test]
    fn fig_3_6_rapidsample_wins_mobile() {
        for env in report(Fig3::Mobile, 4).1 {
            let rapid = norm_of(&env, ProtocolKind::RapidSample);
            let sample = norm_of(&env, ProtocolKind::SampleRate);
            assert!(rapid > sample, "{}: {rapid:.2} vs {sample:.2}", env.env);
        }
    }

    #[test]
    fn fig_3_7_samplerate_wins_static() {
        for env in report(Fig3::Static, 4).1 {
            let rapid = norm_of(&env, ProtocolKind::RapidSample);
            let sample = norm_of(&env, ProtocolKind::SampleRate);
            assert!(
                sample > rapid,
                "{}: SampleRate {sample:.2} must beat RapidSample {rapid:.2}",
                env.env
            );
        }
    }

    #[test]
    fn fig_3_8_rapidsample_wins_vehicular() {
        let envs = report(Fig3::Vehicular, 4).1;
        let env = &envs[0];
        let rapid = norm_of(env, ProtocolKind::RapidSample);
        for p in [
            ProtocolKind::SampleRate,
            ProtocolKind::Rraa,
            ProtocolKind::Rbar,
            ProtocolKind::Charm,
        ] {
            assert!(
                rapid >= norm_of(env, p),
                "RapidSample must win vehicular vs {}",
                p.name()
            );
        }
    }
}
