//! The paper's four evaluation environments (Sec. 3.3).
//!
//! "We collected several traces from 4 different environments ...:
//! 1) an office setting with no line-of-sight between sender and receiver,
//! 2) a long hallway with line-of-sight between the nodes,
//! 3) an outdoor setting with a lightly crowded outdoor pavement area, and
//! 4) a vehicular setting where the sender is stationary on the roadside
//!    and the receiver is in a moving car."
//!
//! Each preset fixes the mean SNR operating point, shadowing statistics,
//! Rician K-factors (LoS strength) and, for the vehicular case, a drive-by
//! path-loss profile keyed to distance travelled.

use serde::{Deserialize, Serialize};

/// Drive-by geometry for the vehicular environment: a roadside sender and
/// a receiver shuttling back and forth along a straight road.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DriveBy {
    /// Where along the shuttle the trace starts, metres of pre-travelled
    /// distance (lets a short trace begin inside radio range rather than
    /// at the far turnaround).
    pub start_offset_m: f64,
    /// Closest-approach distance from sender to the car's path, metres.
    pub closest_m: f64,
    /// Half-length of the shuttle span, metres; the car reverses at ±span.
    pub span_m: f64,
    /// SNR at the closest approach, dB.
    pub peak_snr_db: f64,
    /// Path-loss exponent along the road.
    pub path_loss_exp: f64,
}

impl DriveBy {
    /// Mean SNR when the receiver has travelled `travelled_m` metres in
    /// total (folded into the ±span shuttle pattern).
    pub fn mean_snr_db(&self, travelled_m: f64) -> f64 {
        // Fold total distance onto the shuttle: position in [-span, span].
        let period = 4.0 * self.span_m;
        let ph = (travelled_m + self.start_offset_m).rem_euclid(period);
        let along = if ph < 2.0 * self.span_m {
            ph - self.span_m
        } else {
            3.0 * self.span_m - ph
        };
        let dist = (along * along + self.closest_m * self.closest_m).sqrt();
        self.peak_snr_db - 10.0 * self.path_loss_exp * (dist / self.closest_m).log10()
    }
}

/// A channel environment preset.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Environment {
    /// Short identifier used in trace metadata and result tables.
    pub name: String,
    /// Baseline mean SNR, dB (ignored when `drive_by` is set).
    pub base_snr_db: f64,
    /// Log-normal shadowing standard deviation, dB.
    pub shadow_sigma_db: f64,
    /// Shadowing time constant, seconds.
    pub shadow_tau_s: f64,
    /// Rician K-factor while static (large K = stable dominant path).
    pub k_factor_static: f64,
    /// Rician K-factor while moving (small K = Rayleigh-like fading).
    pub k_factor_moving: f64,
    /// Coherence time while static, seconds.
    pub static_coherence_s: f64,
    /// Per-packet independent loss probability from interference,
    /// collisions and noise bursts — uncorrelated across packets, so the
    /// dominant loss mode of a *static* link (where fading barely moves).
    pub noise_loss: f64,
    /// Standard deviation of the *static* environmental churn, dB — slow
    /// drift from people, doors and interferers shifting the multipath
    /// geometry around a stationary link.
    pub static_churn_sigma_db: f64,
    /// Time constant of the static churn, seconds (tens of seconds).
    pub static_churn_tau_s: f64,
    /// Optional drive-by mean-SNR profile (vehicular setting).
    pub drive_by: Option<DriveBy>,
}

impl Environment {
    /// Office with no line of sight: mid SNR, strong multipath (low K).
    pub fn office() -> Self {
        Environment {
            name: "office".into(),
            base_snr_db: 26.0,
            shadow_sigma_db: 2.5,
            shadow_tau_s: 6.0,
            k_factor_static: 8.0,
            k_factor_moving: 0.6,
            static_coherence_s: 0.4,
            noise_loss: 0.015,
            static_churn_sigma_db: 1.0,
            static_churn_tau_s: 60.0,
            drive_by: None,
        }
    }

    /// Long hallway with line of sight: high SNR, strong LoS (high K).
    pub fn hallway() -> Self {
        Environment {
            name: "hallway".into(),
            base_snr_db: 30.0,
            shadow_sigma_db: 2.0,
            shadow_tau_s: 8.0,
            k_factor_static: 18.0,
            k_factor_moving: 2.0,
            static_coherence_s: 0.5,
            noise_loss: 0.01,
            static_churn_sigma_db: 0.8,
            static_churn_tau_s: 60.0,
            drive_by: None,
        }
    }

    /// Lightly crowded outdoor pavement: lower SNR, pedestrians stir the
    /// channel even when the device is static (shorter static coherence,
    /// moderate K) — the Sec. 5.6 observation.
    pub fn outdoor() -> Self {
        Environment {
            name: "outdoor".into(),
            base_snr_db: 22.0,
            shadow_sigma_db: 2.5,
            shadow_tau_s: 4.0,
            k_factor_static: 7.0,
            k_factor_moving: 1.0,
            static_coherence_s: 0.15,
            noise_loss: 0.02,
            static_churn_sigma_db: 1.5,
            static_churn_tau_s: 30.0,
            drive_by: None,
        }
    }

    /// Roadside sender, receiver in a car shuttling past at 8–72 km/h
    /// (Fig. 3-4's Vehicle/Mobile row).
    pub fn vehicular() -> Self {
        Environment {
            name: "vehicular".into(),
            base_snr_db: 24.0,
            shadow_sigma_db: 3.0,
            shadow_tau_s: 2.0,
            k_factor_static: 10.0,
            k_factor_moving: 0.3,
            static_coherence_s: 0.3,
            noise_loss: 0.02,
            static_churn_sigma_db: 1.5,
            static_churn_tau_s: 30.0,
            drive_by: Some(DriveBy {
                start_offset_m: 40.0,
                closest_m: 8.0,
                span_m: 100.0,
                peak_snr_db: 33.0,
                path_loss_exp: 2.4,
            }),
        }
    }

    /// A marginal mesh link: long sender–receiver distance where even
    /// 6 Mbit/s delivery fluctuates under movement. This is the regime of
    /// the Ch. 4 topology-maintenance measurements (Fig. 4-1 shows 6 Mbps
    /// delivery swinging by >20% per second while moving).
    pub fn mesh_edge() -> Self {
        Environment {
            name: "mesh-edge".into(),
            base_snr_db: 15.0,
            shadow_sigma_db: 7.0,
            shadow_tau_s: 3.0,
            k_factor_static: 12.0,
            k_factor_moving: 8.0,
            static_coherence_s: 0.4,
            noise_loss: 0.005,
            static_churn_sigma_db: 5.0,
            static_churn_tau_s: 30.0,
            drive_by: None,
        }
    }

    /// The three indoor/pedestrian environments of Figs. 3-5..3-7.
    pub fn indoor_three() -> Vec<Environment> {
        vec![Self::office(), Self::hallway(), Self::outdoor()]
    }

    /// Mean SNR at a given total travelled distance (constant unless a
    /// drive-by profile is configured).
    pub fn mean_snr_db(&self, travelled_m: f64) -> f64 {
        match &self.drive_by {
            None => self.base_snr_db,
            Some(d) => d.mean_snr_db(travelled_m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct_and_sane() {
        for env in [
            Environment::office(),
            Environment::hallway(),
            Environment::outdoor(),
            Environment::vehicular(),
        ] {
            assert!(env.base_snr_db > 10.0 && env.base_snr_db < 40.0);
            assert!(env.shadow_sigma_db >= 0.0);
            assert!(env.k_factor_static > env.k_factor_moving);
            assert!(env.static_coherence_s > 0.01);
        }
        assert!(Environment::hallway().base_snr_db > Environment::office().base_snr_db);
        assert!(Environment::office().base_snr_db > Environment::outdoor().base_snr_db);
    }

    #[test]
    fn drive_by_peaks_at_closest_approach() {
        let d = DriveBy {
            start_offset_m: 0.0,
            closest_m: 15.0,
            span_m: 150.0,
            peak_snr_db: 30.0,
            path_loss_exp: 2.7,
        };
        // travelled = span puts the car at the closest point (along = 0).
        let at_peak = d.mean_snr_db(150.0);
        assert!((at_peak - 30.0).abs() < 1e-9);
        // At the turnaround (along = ±span) SNR is much lower.
        let at_end = d.mean_snr_db(0.0);
        assert!(at_peak - at_end > 10.0, "peak {at_peak} end {at_end}");
        // Symmetric on both sides.
        assert!((d.mean_snr_db(100.0) - d.mean_snr_db(200.0)).abs() < 1e-9);
    }

    #[test]
    fn drive_by_is_periodic() {
        let d = DriveBy {
            start_offset_m: 0.0,
            closest_m: 10.0,
            span_m: 100.0,
            peak_snr_db: 28.0,
            path_loss_exp: 2.5,
        };
        for x in [0.0, 37.0, 260.0] {
            assert!((d.mean_snr_db(x) - d.mean_snr_db(x + 400.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn indoor_three_returns_paper_environments() {
        let names: Vec<String> = Environment::indoor_three()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["office", "hallway", "outdoor"]);
    }
}
