//! The Sec. 5.3–5.6 sketches, quantified: PHY parameter adaptation,
//! movement-based power saving, and the microphone dynamism hint.
//!
//! The paper outlines these applications without evaluating them; these
//! experiments put numbers on each sketch using the same substrates as
//! the main results, and are labelled extensions in EXPERIMENTS.md.

use crate::report::Report;
use crate::rline;
use hint_mac::phy_adapt::{
    max_frame_for_coherence, net_throughput_factor, prefix_for_gps_lock, CyclicPrefix,
    DelaySpreadEnv,
};
use hint_mac::{BitRate, MacTiming};
use hint_sensors::hints::{MobilityHints, SpeedHint};
use hint_sensors::microphone::{ActivityProfile, DynamismDetector, Microphone};
use hint_sim::{RngStream, SimDuration, SimTime};
use sensor_hints::power::{PowerManager, PowerPolicy};

/// Sec. 5.3 (a): cyclic-prefix choice by GPS-lock hint. Returns the
/// output as a [`Report`] plus `(env, std_factor, ext_factor,
/// hint_picks_winner)` rows.
pub fn phy_cyclic_prefix_report() -> (Report, Vec<(String, f64, f64, bool)>) {
    let mut r = Report::new("ext_phy_cyclic_prefix");
    r.header("Extension (Sec. 5.3): cyclic prefix vs environment, 54 Mbit/s @ 26 dB");
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for (env, has_gps) in [
        (DelaySpreadEnv::Indoor, false),
        (DelaySpreadEnv::OutdoorUrban, true),
        (DelaySpreadEnv::OutdoorLong, true),
    ] {
        let std = net_throughput_factor(CyclicPrefix::Standard, env, 26.0, BitRate::R54);
        let ext = net_throughput_factor(CyclicPrefix::Extended, env, 26.0, BitRate::R54);
        let hint_choice = prefix_for_gps_lock(has_gps);
        let winner = if std >= ext {
            CyclicPrefix::Standard
        } else {
            CyclicPrefix::Extended
        };
        let correct = hint_choice == winner;
        rows.push(vec![
            format!("{env:?}"),
            format!("{std:.3}"),
            format!("{ext:.3}"),
            format!("{correct}"),
        ]);
        out.push((format!("{env:?}"), std, ext, correct));
    }
    r.table(
        &[
            "environment",
            "standard CP",
            "extended CP",
            "GPS hint picks winner",
        ],
        &rows,
    );
    (r, out)
}

/// Sec. 5.3 (b): frame-size cap by speed hint. Returns the output as a
/// [`Report`] plus `(speed_mps, frame_cap_at_6mbps)` rows.
pub fn phy_frame_cap_report() -> (Report, Vec<(f64, u32)>) {
    let mut r = Report::new("ext_phy_frame_cap");
    r.header("Extension (Sec. 5.3): frame cap vs speed (6 Mbit/s, half-coherence budget)");
    let timing = MacTiming::ieee80211a();
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for speed in [0.0f64, 1.4, 5.0, 10.0, 20.0, 30.0] {
        // Raw Clarke-model coherence (no burst floor): Sec. 5.3's concern
        // is symbol-level channel change *within* a frame, where the
        // physical decorrelation matters, not the loss-burst duration.
        let tc = if speed < 0.05 {
            0.4
        } else {
            hint_channel::snr::COHERENCE_AT_WALK * hint_channel::snr::WALK_SPEED / speed
        };
        let cap = max_frame_for_coherence(&timing, BitRate::R6, tc, 64);
        rows.push(vec![
            format!("{speed:.1}"),
            format!("{:.1}", tc * 1000.0),
            cap.to_string(),
        ]);
        out.push((speed, cap));
    }
    r.table(
        &["speed (m/s)", "coherence (ms)", "max frame (bytes)"],
        &rows,
    );
    (r, out)
}

/// Sec. 5.4: energy of hint-aware vs periodic scanning while a device
/// waits, parked and unassociated, then walks for a while. Returns the
/// output as a [`Report`] plus `(policy, energy_mj, scans)` rows.
pub fn power_saving_report() -> (Report, Vec<(String, f64, u64)>) {
    let mut r = Report::new("ext_power_saving");
    r.header("Extension (Sec. 5.4): radio energy while unassociated (10 min, 80% parked)");
    let tick = SimDuration::from_millis(100);
    let total_s = 600u64;
    // Parked 0..480 s, walking 480..600 s.
    let hints_at = |s: u64| -> MobilityHints {
        let mut h = MobilityHints::movement_only(s >= 480);
        h.speed = Some(SpeedHint::new(if s >= 480 { 1.4 } else { 0.0 }));
        h
    };
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for (name, policy) in [
        (
            "periodic 10 s scan",
            PowerPolicy::PeriodicScan {
                scan_interval: SimDuration::from_secs(10),
            },
        ),
        (
            "hint-aware",
            PowerPolicy::HintAware {
                scan_interval: SimDuration::from_secs(10),
                max_useful_speed_mps: 10.0,
            },
        ),
    ] {
        let mut pm = PowerManager::new(policy);
        for i in 0..(total_s * 10) {
            let now = SimTime::from_micros(i * 100_000);
            pm.step(now, tick, &hints_at(i / 10), false);
        }
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", pm.energy_mj()),
            pm.scans().to_string(),
        ]);
        out.push((name.to_string(), pm.energy_mj(), pm.scans()));
    }
    r.table(&["policy", "energy (mJ)", "scans"], &rows);
    rline!(
        r,
        "saving: {:.1}x less radio energy from the movement hint",
        out[0].1 / out[1].1.max(1.0)
    );
    (r, out)
}

/// Sec. 5.6: the microphone dynamism hint distinguishes quiet from busy
/// surroundings. Returns the output as a [`Report`] plus
/// `(env, dynamism fraction)` rows.
pub fn microphone_dynamism_report() -> (Report, Vec<(String, f64)>) {
    let mut r = Report::new("ext_microphone_dynamism");
    r.header("Extension (Sec. 5.6): microphone dynamism hint (600 s per environment)");
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for (name, profile) in [
        ("quiet office", ActivityProfile::quiet()),
        ("busy pavement", ActivityProfile::busy()),
    ] {
        let mut mic = Microphone::new(profile, RngStream::new(56).derive(name));
        let mut det = DynamismDetector::default();
        let n = 6000u64;
        let mut active = 0u64;
        for _ in 0..n {
            let s = mic.next_sample();
            if det.push(&s) {
                active += 1;
            }
        }
        let frac = active as f64 / n as f64;
        rows.push(vec![name.to_string(), format!("{frac:.2}")]);
        out.push((name.to_string(), frac));
    }
    r.table(&["environment", "fraction of time 'dynamic'"], &rows);
    rline!(
        r,
        "(a static node in the busy environment would run RapidSample on this \
         hint, as the paper observed helps there)"
    );
    (r, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gps_rule_picks_winner_everywhere() {
        for (env, _, _, correct) in phy_cyclic_prefix_report().1 {
            assert!(correct, "{env}: GPS rule picked the losing prefix");
        }
    }

    #[test]
    fn frame_cap_monotone_in_speed() {
        let rows = phy_frame_cap_report().1;
        for w in rows.windows(2) {
            assert!(w[0].1 >= w[1].1, "cap grew with speed: {rows:?}");
        }
        assert!(rows[0].1 > rows.last().unwrap().1);
    }

    #[test]
    fn hint_power_saves_substantially() {
        let rows = power_saving_report().1;
        let periodic = rows[0].1;
        let hinted = rows[1].1;
        assert!(
            hinted * 2.0 < periodic,
            "hint {hinted} vs periodic {periodic}"
        );
    }

    #[test]
    fn microphone_separates_environments() {
        let rows = microphone_dynamism_report().1;
        let quiet = rows[0].1;
        let busy = rows[1].1;
        assert!(busy > quiet + 0.3, "busy {busy} vs quiet {quiet}");
    }
}
