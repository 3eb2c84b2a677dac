//! Figs. 4-2 and 4-3 — delivery-probability estimate error versus probing
//! rate, static and mobile.
//!
//! The paper's headline: "there is a significant (factor-of-20) difference
//! in the probing rates required between the static and moving cases, in
//! order to maintain link quality information to within 5%-10% of the
//! correct value."

use crate::report::Report;
use crate::rline;
use hint_mac::BitRate;
use hint_rateadapt::scenario::{EnvironmentSpec, MotionSpec, ScenarioBuilder};
use hint_sim::{OnlineStats, SimDuration};
use hint_topology::delivery::estimate_error;
use hint_topology::ProbeStream;

/// Error-vs-rate curves for both mobility regimes.
#[derive(Clone, Debug)]
pub struct Fig4243Result {
    /// Probing rates measured, Hz.
    pub rates_hz: Vec<f64>,
    /// `(mean, stddev)` static error per rate.
    pub static_err: Vec<(f64, f64)>,
    /// `(mean, stddev)` mobile error per rate.
    pub mobile_err: Vec<(f64, f64)>,
}

impl Fig4243Result {
    /// Lowest probing rate achieving error ≤ `target` (static, mobile).
    pub fn rate_for_error(&self, target: f64) -> (Option<f64>, Option<f64>) {
        let find = |errs: &[(f64, f64)]| {
            self.rates_hz
                .iter()
                .zip(errs)
                .find(|(_, (m, _))| *m <= target)
                .map(|(r, _)| *r)
        };
        (find(&self.static_err), find(&self.mobile_err))
    }
}

/// Run with `n_traces` 180 s traces per regime (the paper used 20),
/// returning the output as a [`Report`] plus the curves.
pub fn report(n_traces: u64) -> (Report, Fig4243Result) {
    let mut r = Report::new("fig_4_2_4_3");
    r.header("Figs. 4-2 / 4-3: estimate error vs probing rate (static / mobile)");
    let rates = vec![0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0];
    let dur = SimDuration::from_secs(180);

    let measure = |moving: bool| -> Vec<(f64, f64)> {
        // The traces depend only on (regime, seed), not on the probing
        // rate: build each scenario's probe stream once, sweep all rates.
        let streams: Vec<ProbeStream> = (0..n_traces)
            .map(|seed| {
                let motion = if moving {
                    MotionSpec::Walking {
                        speed_mps: 1.4,
                        heading_deg: 0.0,
                    }
                } else {
                    MotionSpec::Stationary
                };
                let base = if moving { 4300 } else { 4200 };
                let trace = ScenarioBuilder::new()
                    .environment(EnvironmentSpec::MeshEdge)
                    .motion(motion)
                    .duration(dur)
                    .seed(base + seed)
                    .build_trace()
                    .expect("valid Fig. 4-2/4-3 scenario");
                ProbeStream::from_trace(&trace, BitRate::R6, seed)
            })
            .collect();
        rates
            .iter()
            .map(|&rate| {
                let mut err = OnlineStats::new();
                for stream in &streams {
                    err.merge(&estimate_error(stream, rate));
                }
                (err.mean(), err.stddev())
            })
            .collect()
    };

    let static_err = measure(false);
    let mobile_err = measure(true);

    let rows: Vec<Vec<String>> = rates
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            vec![
                format!("{r}"),
                format!("{:.3} ±{:.3}", static_err[i].0, static_err[i].1),
                format!("{:.3} ±{:.3}", mobile_err[i].0, mobile_err[i].1),
                format!("{:.1}x", mobile_err[i].0 / static_err[i].0.max(1e-9)),
            ]
        })
        .collect();
    r.table(
        &["probes/s", "static error", "mobile error", "mobile/static"],
        &rows,
    );

    let result = Fig4243Result {
        rates_hz: rates,
        static_err,
        mobile_err,
    };
    // The factor-of-20 crossover summary.
    for target in [0.10, 0.08] {
        let (s, m) = result.rate_for_error(target);
        match (s, m) {
            (Some(s), Some(m)) => rline!(
                r,
                "error <= {target:.2}: static needs {s} probes/s, mobile needs {m} probes/s ({}x)",
                m / s
            ),
            (Some(s), None) => rline!(
                r,
                "error <= {target:.2}: static needs {s} probes/s, mobile cannot reach it below 10/s (>{:.0}x)",
                10.0 / s
            ),
            _ => rline!(r, "error <= {target:.2}: not reachable in the measured range"),
        }
    }
    (r, result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn shape_holds() {
        let r = super::report(6).1;
        // Mobile error exceeds static error at every rate, by >=2x at 1/s.
        for (i, rate) in r.rates_hz.iter().enumerate() {
            assert!(
                r.mobile_err[i].0 > r.static_err[i].0,
                "at {rate}/s: mobile {} vs static {}",
                r.mobile_err[i].0,
                r.static_err[i].0
            );
        }
        let idx1 = r.rates_hz.iter().position(|&x| x == 1.0).unwrap();
        assert!(r.mobile_err[idx1].0 > 2.0 * r.static_err[idx1].0);
        // Mobile error decreases with probing rate.
        assert!(r.mobile_err.last().unwrap().0 < r.mobile_err[0].0);
        // The probing-rate gap at matched error is large (>=10x).
        let (s, m) = r.rate_for_error(0.10);
        let s = s.expect("static reaches 10%");
        let gap = m.map(|m| m / s).unwrap_or(10.0 / s);
        assert!(gap >= 10.0, "probing-rate gap {gap}");
    }
}
