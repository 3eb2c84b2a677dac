//! The SNR process: path loss + shadowing + motion-coupled fast fading.
//!
//! The received SNR at time `t` is modelled as
//!
//! ```text
//! SNR(t) [dB] = mean(t) + shadow(t) + 10·log10(|h(t)|²)
//! ```
//!
//! * `mean(t)` — environment path-loss level; constant indoors, a
//!   drive-by distance profile in the vehicular setting.
//! * `shadow(t)` — slow log-normal shadowing, an AR(1) (Ornstein–
//!   Uhlenbeck) process in dB with a multi-second time constant.
//! * `h(t)` — the complex small-scale fading tap, a Rician process:
//!   a fixed line-of-sight component of power `K/(K+1)` plus a scattered
//!   Gauss–Markov component of power `1/(K+1)` whose correlation decays
//!   with the **channel coherence time**.
//!
//! Coherence time is where mobility enters. The paper measures ≈8–10 ms at
//! walking speed (Fig. 3-1); classic Clarke-model scaling gives
//! `Tc ∝ 1/v`. We pin `Tc = 10 ms` at 1.4 m/s and scale inversely with
//! speed, clamping to a long `Tc` (default 400 ms) when static. The Rician
//! K-factor also drops when moving: a static terminal enjoys a stable
//! dominant path, while motion turns the channel Rayleigh-like with deep
//! fades — this is precisely the static/mobile asymmetry the hint-aware
//! protocols exploit.

use crate::environments::Environment;
use hint_sensors::motion::{MotionProfile, SegmentCursor};
use hint_sim::{RngStream, SimDuration, SimTime};

/// Walking-speed coherence-time anchor: 10 ms at 1.4 m/s (Fig. 3-1).
pub const COHERENCE_AT_WALK: f64 = 0.010;

/// Walking speed the anchor refers to, m/s.
pub const WALK_SPEED: f64 = 1.4;

/// Floor on the mobile coherence time, seconds. Pure Clarke scaling gives
/// sub-millisecond coherence at highway speed, but measured vehicular
/// 802.11 channels retain ~10 ms of loss-burst correlation from dominant
/// ground/LoS paths and shadowing micro-structure (Camp & Knightly 2008);
/// the paper's own RapidSample hard-codes delta_fail = 10 ms and performs
/// best in its vehicular traces, implying burst durations of that order.
pub const COHERENCE_FLOOR: f64 = 0.010;

/// Coherence time in seconds for a device moving at `speed_mps`
/// (clamped to the static coherence time for very low speeds and to
/// [`COHERENCE_FLOOR`] for very high ones).
pub fn coherence_time(speed_mps: f64, static_coherence_s: f64) -> f64 {
    if speed_mps < 0.05 {
        static_coherence_s
    } else {
        (COHERENCE_AT_WALK * WALK_SPEED / speed_mps)
            .max(COHERENCE_FLOOR)
            .min(static_coherence_s)
    }
}

/// The evolving channel between one sender/receiver pair.
///
/// Queries must be made with non-decreasing `t`; the process state advances
/// by the elapsed interval on each call, so arbitrary (per-packet or
/// per-slot) sampling granularity works and stays consistent.
///
/// The per-step AR(1) constants (`exp`/`sqrt` of `dt` over the fading and
/// shadowing time constants) are memoized: experiments sample on a fixed
/// grid (the 5 ms trace slots, or back-to-back packet airtimes) and the
/// motion profiles are piecewise-constant in speed, so almost every step
/// reuses the constants of the previous one instead of paying four
/// transcendentals. The memoized values are bit-identical to recomputing,
/// so traces are unchanged.
#[derive(Clone, Debug)]
pub struct ChannelModel {
    env: Environment,
    profile: MotionProfile,
    /// Forward position in `profile` (queries walk time forward).
    cursor: SegmentCursor,
    rng: RngStream,
    /// Scattered (diffuse) component, in-phase and quadrature.
    h_i: f64,
    h_q: f64,
    /// Shadowing level, dB.
    shadow_db: f64,
    /// Last query time in integer µs (`u64::MAX` = never queried), so the
    /// hot path does one integer subtraction and one `f64` conversion per
    /// step instead of `Option`/`SimDuration` round-trips.
    last_us: u64,
    /// Integrated 1-D position for drive-by mean profiles, metres.
    travelled_m: f64,
    /// Memoized fast-fading AR(1) step: key (dt µs, speed bits) → (rho, sigma).
    fade_key: (u64, u64),
    fade_rho: f64,
    fade_sigma: f64,
    /// Memoized shadowing AR(1) step: key (dt µs, moving) → (rho_s, sig_s).
    shadow_key: (u64, bool),
    shadow_rho: f64,
    shadow_sig: f64,
    /// Rician recombination constants for the two mobility regimes.
    los_moving: f64,
    scatter_moving: f64,
    los_static: f64,
    scatter_static: f64,
}

impl ChannelModel {
    /// Create a channel for `profile` in `env`, deterministically seeded.
    pub fn new(env: Environment, profile: MotionProfile, rng: RngStream) -> Self {
        let k_m = env.k_factor_moving;
        let k_s = env.k_factor_static;
        let mut s = ChannelModel {
            los_moving: (k_m / (k_m + 1.0)).sqrt(),
            scatter_moving: (1.0 / (k_m + 1.0)).sqrt(),
            los_static: (k_s / (k_s + 1.0)).sqrt(),
            scatter_static: (1.0 / (k_s + 1.0)).sqrt(),
            env,
            profile,
            cursor: SegmentCursor::new(),
            rng,
            h_i: 0.0,
            h_q: 0.0,
            shadow_db: 0.0,
            last_us: u64::MAX,
            travelled_m: 0.0,
            fade_key: (u64::MAX, u64::MAX),
            fade_rho: 0.0,
            fade_sigma: 0.0,
            shadow_key: (u64::MAX, false),
            shadow_rho: 0.0,
            shadow_sig: 0.0,
        };
        // Draw the initial state from the stationary distributions.
        let sigma = std::f64::consts::FRAC_1_SQRT_2;
        s.h_i = s.rng.normal() * sigma;
        s.h_q = s.rng.normal() * sigma;
        // The initial shadowing draw uses a reduced spread: experimenters
        // place nodes where the link is usable, so the starting point is
        // biased toward the environment's nominal operating level. While
        // the device moves, the OU process explores the full +-sigma.
        s.shadow_db = s.rng.normal() * s.env.shadow_sigma_db * 0.4;
        s
    }

    /// The environment this channel lives in.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// The ground-truth motion profile of the receiver.
    pub fn profile(&self) -> &MotionProfile {
        &self.profile
    }

    /// Advance internal state to time `t` and return the instantaneous
    /// SNR in dB.
    ///
    /// # Panics
    /// Debug-asserts that `t` is non-decreasing across calls.
    pub fn snr_at(&mut self, t: SimTime) -> f64 {
        let t_us = t.as_micros();
        let dt_us = if self.last_us == u64::MAX {
            0
        } else {
            debug_assert!(t_us >= self.last_us, "channel sampled backwards");
            t_us.saturating_sub(self.last_us)
        };
        self.last_us = t_us;

        let state = self.cursor.state(&self.profile, t);
        let speed = state.speed_mps();
        let moving = state.is_moving();

        if dt_us > 0 {
            // One integer-µs → seconds conversion per step (matching
            // `SimDuration::as_secs_f64` bit-for-bit).
            let dt = dt_us as f64 / 1e6;
            self.travelled_m += speed * dt;

            // Fast fading: Gauss–Markov with motion-dependent coherence.
            // rho/sigma depend only on (dt, speed), both piecewise-constant
            // over a trace — memoized, recomputed only on a grid or speed
            // change.
            if self.fade_key != (dt_us, speed.to_bits()) {
                let tc = coherence_time(speed, self.env.static_coherence_s);
                let rho = (-dt / tc).exp();
                self.fade_rho = rho;
                self.fade_sigma = std::f64::consts::FRAC_1_SQRT_2 * (1.0 - rho * rho).sqrt();
                self.fade_key = (dt_us, speed.to_bits());
            }
            self.h_i = self.fade_rho * self.h_i + self.rng.normal() * self.fade_sigma;
            self.h_q = self.fade_rho * self.h_q + self.rng.normal() * self.fade_sigma;

            // Shadowing: OU process with a slow time constant. Shadowing
            // varies with position, so while *moving* it explores the full
            // sigma at tau. A *static* link still sees slow environmental
            // churn (people, doors, interferers shifting the multipath
            // geometry) — modelled as the same OU with a 10x longer time
            // constant and 0.4x the spread. This residual drift is what
            // makes very low probing rates inaccurate even when static
            // (Fig. 4-2's error rise below ~0.2 probes/s).
            if self.shadow_key != (dt_us, moving) {
                let (tau, sig) = if moving {
                    (self.env.shadow_tau_s, self.env.shadow_sigma_db)
                } else {
                    (self.env.static_churn_tau_s, self.env.static_churn_sigma_db)
                };
                let rho_s = (-dt / tau).exp();
                self.shadow_rho = rho_s;
                self.shadow_sig = sig * (1.0 - rho_s * rho_s).sqrt();
                self.shadow_key = (dt_us, moving);
            }
            self.shadow_db = self.shadow_rho * self.shadow_db + self.rng.normal() * self.shadow_sig;
        }

        // Rician recombination: LoS power K/(K+1), scattered 1/(K+1).
        let (los, scatter_scale) = if moving {
            (self.los_moving, self.scatter_moving)
        } else {
            (self.los_static, self.scatter_static)
        };
        let re = los + scatter_scale * self.h_i;
        let im = scatter_scale * self.h_q;
        let power = (re * re + im * im).max(1e-6);

        let mean = self.env.mean_snr_db(self.travelled_m);
        mean + self.shadow_db + 10.0 * power.log10()
    }

    /// Fill `out[i]` with the SNR at `start + i·step` — the batched
    /// fixed-grid form of [`ChannelModel::snr_at`] used by trace
    /// generation, producing bit-identical values to the equivalent
    /// sequence of scalar calls.
    pub fn snr_block(&mut self, start: SimTime, step: SimDuration, out: &mut [f64]) {
        let start_us = start.as_micros();
        let step_us = step.as_micros();
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.snr_at(SimTime::from_micros(start_us + i as u64 * step_us));
        }
    }

    /// Metres travelled so far along the motion profile (drives the
    /// vehicular drive-by path-loss profile).
    pub fn travelled_m(&self) -> f64 {
        self.travelled_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environments::Environment;
    use hint_sim::{SimDuration, SimTime};

    fn rng() -> RngStream {
        RngStream::new(4242).derive("chan")
    }

    #[test]
    fn coherence_scaling() {
        assert!((coherence_time(1.4, 0.4) - 0.010).abs() < 1e-12);
        // Vehicular speed: Clarke scaling would give 1 ms, but the floor
        // keeps loss bursts at the measured ~10 ms scale.
        assert!((coherence_time(14.0, 0.4) - COHERENCE_FLOOR).abs() < 1e-12);
        assert_eq!(coherence_time(0.0, 0.4), 0.4);
        // Crawling slower than walking can't exceed the static value.
        assert!(coherence_time(0.06, 0.4) <= 0.4);
    }

    #[test]
    fn static_snr_is_stable_mobile_snr_swings() {
        let env = Environment::office();
        let spread = |profile: MotionProfile| {
            let mut ch = ChannelModel::new(env.clone(), profile, rng());
            let mut snrs = Vec::new();
            // Sample every 5 ms over 10 s.
            for i in 0..2000u64 {
                snrs.push(ch.snr_at(SimTime::from_micros(i * 5_000)));
            }
            let mean = snrs.iter().sum::<f64>() / snrs.len() as f64;
            let var = snrs.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / snrs.len() as f64;
            var.sqrt()
        };
        let sd_static = spread(MotionProfile::stationary(SimDuration::from_secs(10)));
        let sd_mobile = spread(MotionProfile::walking(SimDuration::from_secs(10), 1.4, 0.0));
        assert!(
            sd_mobile > 1.5 * sd_static,
            "mobile sd {sd_mobile:.2} dB vs static sd {sd_static:.2} dB"
        );
    }

    #[test]
    fn mobile_channel_decorrelates_at_coherence_time() {
        // Autocorrelation of the fading envelope should drop substantially
        // past one coherence time (10 ms at walking speed).
        let env = Environment::hallway();
        let profile = MotionProfile::walking(SimDuration::from_secs(30), 1.4, 0.0);
        let mut ch = ChannelModel::new(env, profile, rng());
        let step_us = 1_000u64; // 1 ms sampling
        let snrs: Vec<f64> = (0..30_000u64)
            .map(|i| ch.snr_at(SimTime::from_micros(i * step_us)))
            .collect();
        let mean = snrs.iter().sum::<f64>() / snrs.len() as f64;
        let var = snrs.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / snrs.len() as f64;
        let autocorr = |lag: usize| {
            let n = snrs.len() - lag;
            let mut acc = 0.0;
            for i in 0..n {
                acc += (snrs[i] - mean) * (snrs[i + lag] - mean);
            }
            acc / (n as f64 * var)
        };
        let r1 = autocorr(1); // 1 ms
        let r30 = autocorr(30); // 30 ms = 3 coherence times
        assert!(r1 > 0.7, "1 ms autocorr {r1:.2}");
        assert!(r30 < 0.4, "30 ms autocorr {r30:.2}");
    }

    #[test]
    fn deterministic_in_seed() {
        let env = Environment::office();
        let p = MotionProfile::walking(SimDuration::from_secs(1), 1.4, 0.0);
        let mut a = ChannelModel::new(env.clone(), p.clone(), RngStream::new(1).derive("x"));
        let mut b = ChannelModel::new(env, p, RngStream::new(1).derive("x"));
        for i in 0..200u64 {
            let t = SimTime::from_micros(i * 500);
            assert_eq!(a.snr_at(t), b.snr_at(t));
        }
    }

    #[test]
    fn vehicular_mean_tracks_drive_by() {
        let env = Environment::vehicular();
        let profile = MotionProfile::vehicle(SimDuration::from_secs(60), 15.0, 0.0);
        let mut ch = ChannelModel::new(env, profile, rng());
        // Average SNR in 1 s windows; the drive-by profile must produce a
        // clear rise-and-fall pattern (range of window means > 8 dB).
        let mut window_means = Vec::new();
        for w in 0..60u64 {
            let mut acc = 0.0;
            for i in 0..200u64 {
                acc += ch.snr_at(SimTime::from_micros((w * 1_000_000) + i * 5_000));
            }
            window_means.push(acc / 200.0);
        }
        let max = window_means.iter().cloned().fold(f64::MIN, f64::max);
        let min = window_means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min > 8.0, "drive-by swing {:.1} dB", max - min);
    }

    #[test]
    fn snr_mean_near_environment_level_when_static() {
        let env = Environment::hallway();
        let p = MotionProfile::stationary(SimDuration::from_secs(20));
        let mut ch = ChannelModel::new(env.clone(), p, rng());
        let snrs: Vec<f64> = (0..4000u64)
            .map(|i| ch.snr_at(SimTime::from_micros(i * 5_000)))
            .collect();
        let mean = snrs.iter().sum::<f64>() / snrs.len() as f64;
        assert!(
            (mean - env.mean_snr_db(0.0)).abs() < 4.0,
            "mean {mean:.1} vs env {:.1}",
            env.mean_snr_db(0.0)
        );
    }
}
