//! Fig. 3-1 — conditional packet-loss probability versus lag at 54 Mbit/s.
//!
//! "The conditional probability of packet loss is much higher in the
//! mobile case than in the static case for k < 10 packets ... The
//! probability does not return to the base-line loss rate until
//! approximately k = 50 packets" — the paper's estimate of an 8–10 ms
//! mobile coherence time at ~5000 back-to-back packets/s.

use crate::report::Report;
use crate::rline;
use hint_channel::analysis::{back_to_back_fates, coherence_lag, conditional_loss_curve};
use hint_channel::Environment;
use hint_mac::{BitRate, MacTiming};
use hint_sensors::MotionProfile;
use hint_sim::SimDuration;

/// Summary of the Fig. 3-1 run.
#[derive(Clone, Debug)]
pub struct Fig31Result {
    /// `(lag, P(loss|loss), static)` rows.
    pub static_curve: Vec<(usize, f64)>,
    /// `(lag, P(loss|loss), mobile)` rows.
    pub mobile_curve: Vec<(usize, f64)>,
    /// Unconditional loss probabilities (static, mobile).
    pub unconditional: (f64, f64),
    /// Lag at which the mobile curve re-joins its baseline (±0.05), and
    /// the coherence time it implies in milliseconds.
    pub mobile_coherence: Option<(usize, f64)>,
}

/// Run the experiment, returning the figure's rows as a [`Report`] plus
/// the curves.
pub fn report() -> (Report, Fig31Result) {
    let mut r = Report::new("fig_3_1");
    r.header("Fig. 3-1: conditional loss probability vs lag k (54 Mbit/s)");
    let env = Environment::office();
    let dur = SimDuration::from_secs(120);
    let static_fates =
        back_to_back_fates(&env, &MotionProfile::stationary(dur), BitRate::R54, dur, 33);
    let mobile_fates = back_to_back_fates(
        &env,
        &MotionProfile::walking(dur, 1.4, 0.0),
        BitRate::R54,
        dur,
        33,
    );

    let lags: Vec<usize> = vec![1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 75, 100, 150, 200, 300];
    let sc = conditional_loss_curve(&static_fates, &lags);
    let mc = conditional_loss_curve(&mobile_fates, &lags);

    let rows: Vec<Vec<String>> = lags
        .iter()
        .map(|&k| {
            let s = sc
                .points
                .iter()
                .find(|(kk, _)| *kk == k)
                .map(|(_, p)| format!("{p:.3}"))
                .unwrap_or_else(|| "-".into());
            let m = mc
                .points
                .iter()
                .find(|(kk, _)| *kk == k)
                .map(|(_, p)| format!("{p:.3}"))
                .unwrap_or_else(|| "-".into());
            vec![k.to_string(), s, m]
        })
        .collect();
    r.table(
        &["lag k", "P(loss|loss) static", "P(loss|loss) mobile"],
        &rows,
    );
    rline!(
        r,
        "unconditional loss:   static {:.3}   mobile {:.3}",
        sc.unconditional,
        mc.unconditional
    );

    // Coherence estimate: the lag at which the conditional-loss *excess*
    // over the baseline has decayed to 25% of its lag-1 value. (Mobile
    // shadowing adds a long shallow tail above the baseline, so an
    // absolute margin would overstate the coherence time.)
    let dense_lags: Vec<usize> = (1..=400).collect();
    let dense = conditional_loss_curve(&mobile_fates, &dense_lags);
    let pkt_time = MacTiming::ieee80211a()
        .exchange_airtime(BitRate::R54, 1000)
        .as_secs_f64();
    let lag1_excess = dense
        .points
        .first()
        .map(|(_, p)| p - dense.unconditional)
        .unwrap_or(0.0);
    let mobile_coherence = coherence_lag(&dense, (lag1_excess * 0.25).max(0.02))
        .map(|k| (k, k as f64 * pkt_time * 1e3));
    if let Some((k, ms)) = mobile_coherence {
        rline!(
            r,
            "mobile curve re-joins baseline at k = {k} packets ≈ {ms:.1} ms (paper: ~8-10 ms)"
        );
    }

    let res = Fig31Result {
        static_curve: sc.points,
        mobile_curve: mc.points,
        unconditional: (sc.unconditional, mc.unconditional),
        mobile_coherence,
    };
    (r, res)
}

#[cfg(test)]
mod tests {
    #[test]
    fn shape_holds() {
        let r = super::report().1;
        let lag1_mobile = r.mobile_curve[0].1;
        let lag1_static = r.static_curve[0].1;
        assert!(lag1_mobile > lag1_static, "mobile lag-1 must dominate");
        assert!(lag1_mobile > r.unconditional.1 + 0.2);
        let (_, ms) = r.mobile_coherence.expect("curve decays");
        assert!((4.0..40.0).contains(&ms), "coherence {ms} ms");
    }
}
