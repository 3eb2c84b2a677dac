//! The movement hint's paper claim (Sec. 2.2.1, Fig. 2-2), across seeds.
//!
//! The synthetic accelerometer and the jerk detector run over a
//! static → walking → static profile (2 s each) for 200 seeds, with the
//! same stream derivation the engine's `HintStream::from_sensors` uses.
//! The detector must raise no hint while the device is still, keep static
//! jerk far under the threshold of 3, flag the start of motion within the
//! paper's 100 ms, and drop the hint once the 100 ms hysteresis window
//! runs out after motion stops. Each seed must flip the hint exactly twice.

use sensor_hints::sensors::{Accelerometer, MotionProfile, MovementDetector};
use sensor_hints::sim::{RngStream, SimDuration, SimTime};

const SEEDS: u64 = 200;

/// What one seed's run shows.
struct Run {
    /// Largest jerk over reports whose whole ten-report window is static.
    max_static_jerk: f64,
    /// Whether the hint was ever set before motion started.
    early_hint: bool,
    /// Time from the start of motion to the first set hint.
    rise: SimDuration,
    /// Time from the end of motion to the first cleared hint after it.
    fall: SimDuration,
    /// Number of hint changes over the whole run.
    flips: usize,
}

fn run(seed: u64) -> Run {
    let phase = SimDuration::from_secs(2);
    let profile = MotionProfile::static_move_static(phase, phase, phase);
    let (start, stop) = (SimTime::ZERO + phase, SimTime::ZERO + phase * 2);
    let end = SimTime::ZERO + profile.duration();
    // The last report of a moving window sits 9 reports (18 ms) after its
    // first one, so a window is all-static from 18 ms after motion stops.
    let settled = stop + SimDuration::from_millis(18);
    let rng = RngStream::new(seed).derive("hintstream-accel");
    let mut accel = Accelerometer::new(profile, rng);
    let mut det = MovementDetector::new();
    let (mut max_static_jerk, mut early_hint) = (0.0f64, false);
    let (mut rise, mut fall, mut flips, mut last) = (None, None, 0, false);
    loop {
        let r = accel.next_report();
        if r.t >= end {
            break;
        }
        let s = det.push(&r);
        if r.t < start || r.t >= settled {
            max_static_jerk = max_static_jerk.max(s.jerk);
        }
        early_hint |= r.t < start && s.moving;
        if s.moving != last {
            flips += 1;
            last = s.moving;
        }
        if r.t >= start && s.moving && rise.is_none() {
            rise = Some(r.t.saturating_since(start));
        }
        if r.t >= stop && !s.moving && fall.is_none() {
            fall = Some(r.t.saturating_since(stop));
        }
    }
    Run {
        max_static_jerk,
        early_hint,
        rise: rise.unwrap_or_else(|| panic!("seed {seed}: motion never detected")),
        fall: fall.unwrap_or_else(|| panic!("seed {seed}: hint never cleared")),
        flips,
    }
}

#[test]
fn detector_meets_the_papers_latency_across_seeds() {
    let runs: Vec<Run> = (0..SEEDS).map(run).collect();
    let max_jerk = runs.iter().map(|r| r.max_static_jerk).fold(0.0, f64::max);
    // Each latency over all seeds, in ms, sorted.
    let sorted_ms = |of: fn(&Run) -> SimDuration| {
        let mut v: Vec<f64> = runs.iter().map(|r| of(r).as_millis_f64()).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let (rises, falls) = (sorted_ms(|r| r.rise), sorted_ms(|r| r.fall));
    let (rise_min, rise_med, rise_max) = (rises[0], rises[rises.len() / 2], rises[rises.len() - 1]);
    let (fall_min, fall_max) = (falls[0], falls[falls.len() - 1]);
    let summary = format!(
        "max static jerk {max_jerk:.3}, rise {rise_min}–{rise_max} ms (median {rise_med}), \
         fall {fall_min}–{fall_max} ms"
    );
    for (seed, r) in runs.iter().enumerate() {
        assert!(
            !r.early_hint,
            "seed {seed}: hint set while still; {summary}"
        );
        assert_eq!(r.flips, 2, "seed {seed}: {} hint flips; {summary}", r.flips);
    }
    assert!(max_jerk < 1.5, "{summary}");
    assert!(rise_max <= 100.0, "{summary}");
    assert!((50.0..=200.0).contains(&fall_min), "{summary}");
    assert!(fall_max <= 200.0, "{summary}");
    eprintln!("{summary}");
}
