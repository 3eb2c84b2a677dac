//! Figs. 4-4 and 4-5 — delivery probability by probing rate over time,
//! for one representative stationary trace and one mobile trace.
//!
//! "In the static case, the delivery probability tracks the actual one
//! relatively closely at the three different probing rates. In contrast,
//! in the mobile case, only the high probing rates do; at 1 probe per
//! second ... the difference from the actual delivery probability is
//! substantial, erring in both directions."

use crate::report::Report;
use crate::rline;
use hint_mac::BitRate;
use hint_rateadapt::scenario::{EnvironmentSpec, MotionSpec, ScenarioBuilder};
use hint_sim::{SimDuration, SimTime};
use hint_topology::delivery::{actual_at, actual_series, held_tracking_error, observed_series};
use hint_topology::ProbeStream;

/// Per-rate tracking errors for one trace.
#[derive(Clone, Debug)]
pub struct TraceTracking {
    /// Probing rates, Hz.
    pub rates_hz: Vec<f64>,
    /// Time-held mean tracking error per rate.
    pub held_error: Vec<f64>,
}

/// Run both figures (25 s representative traces), returning the output
/// as a [`Report`] plus the tracking errors (static, mobile).
pub fn report() -> (Report, (TraceTracking, TraceTracking)) {
    let mut r = Report::new("fig_4_4_4_5");
    r.header("Figs. 4-4 / 4-5: delivery probability by probing rate over time");
    let rates = vec![1.0, 5.0, 10.0];
    let dur = SimDuration::from_secs(25);

    let mut out = Vec::new();
    for moving in [false, true] {
        let label = if moving {
            "mobile (Fig. 4-5)"
        } else {
            "stationary (Fig. 4-4)"
        };
        rline!(r, "\n--- {label} ---");
        let motion = if moving {
            MotionSpec::Walking {
                speed_mps: 1.4,
                heading_deg: 0.0,
            }
        } else {
            MotionSpec::Stationary
        };
        // Representative traces (the paper likewise shows one
        // representative 25 s trace per regime).
        let trace = ScenarioBuilder::new()
            .environment(EnvironmentSpec::MeshEdge)
            .motion(motion)
            .duration(dur)
            .seed(if moving { 4407 } else { 4402 })
            .build_trace()
            .expect("valid Fig. 4-4/4-5 scenario");
        let stream = ProbeStream::from_trace(&trace, BitRate::R6, 7);
        let actual = actual_series(&stream);

        // Print the actual series sampled each second.
        let actual_pts: Vec<(f64, f64)> = (0..25)
            .map(|s| {
                let t = SimTime::from_secs(s);
                (s as f64, actual_at(&actual, t))
            })
            .collect();
        r.series("actual", &actual_pts, 1.0, 40);

        let mut held = Vec::new();
        for &rate in &rates {
            let obs = observed_series(&stream, rate);
            let err = held_tracking_error(&obs, &actual, SimDuration::from_millis(100));
            held.push(err.mean());
            let obs_pts: Vec<(f64, f64)> = (0..25)
                .map(|s| {
                    let t = SimTime::from_secs(s);
                    let v = obs
                        .iter()
                        .take_while(|o| o.t <= t)
                        .last()
                        .map(|o| o.p)
                        .unwrap_or(0.0);
                    (s as f64, v)
                })
                .collect();
            r.series(
                &format!("{rate} probes/s (held err {:.3})", err.mean()),
                &obs_pts,
                1.0,
                40,
            );
        }
        out.push(TraceTracking {
            rates_hz: rates.clone(),
            held_error: held,
        });
    }
    let mobile = out.pop().expect("two entries");
    let stat = out.pop().expect("two entries");
    (r, (stat, mobile))
}

#[cfg(test)]
mod tests {
    #[test]
    fn shape_holds() {
        let (stat, mobile) = super::report().1;
        // Static: even 1 probe/s tracks decently (small error).
        assert!(
            stat.held_error[0] < 0.15,
            "static 1/s err {}",
            stat.held_error[0]
        );
        // Mobile: 1 probe/s errs substantially more than 10 probes/s.
        assert!(
            mobile.held_error[0] > mobile.held_error[2],
            "mobile 1/s {} vs 10/s {}",
            mobile.held_error[0],
            mobile.held_error[2]
        );
        // Mobile at 1/s is much worse than static at 1/s.
        assert!(mobile.held_error[0] > 1.5 * stat.held_error[0]);
    }
}
