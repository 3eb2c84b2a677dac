//! Fig. 5-1 — throughput over time for two clients when one departs.
//!
//! "Initially, both clients roughly share the available bandwidth. One of
//! the node\[s\] moves away shortly before 35 seconds into the trace. Soon
//! after, the throughput to the remaining static node drops precipitously
//! and remains low for about 10 seconds, before recovering to use the
//! entire bandwidth!" The hint-aware pruning policy avoids the collapse.

use crate::report::Report;
use crate::rline;
use hint_ap::disassociation::{fig_5_1_scenario, DisassociationPolicy, FairnessModel};
use hint_sim::SimDuration;

/// Summary of the three policy runs.
#[derive(Clone, Debug)]
pub struct Fig51Result {
    /// Static client's pre-departure goodput, Mbit/s (frame fairness).
    pub before_mbps: f64,
    /// Static client's goodput during the 36–44 s collapse window.
    pub during_mbps: f64,
    /// Static client's goodput after recovery (48–60 s).
    pub after_mbps: f64,
    /// The same during-window goodput under time-based fairness.
    pub time_based_during_mbps: f64,
    /// The same during-window goodput under hint-aware pruning.
    pub hint_aware_during_mbps: f64,
}

/// Run the scenario under all three policies, returning its output as a
/// [`Report`] plus the statistics.
pub fn report() -> (Report, Fig51Result) {
    let mut r = Report::new("fig_5_1");
    r.header("Fig. 5-1: two-client AP, client 2 departs at 35 s");
    let timeout = DisassociationPolicy::Timeout {
        prune_after: SimDuration::from_secs(10),
    };
    let hint = DisassociationPolicy::HintAware {
        probe_interval: SimDuration::from_secs(1),
    };

    let frame = fig_5_1_scenario(timeout, FairnessModel::FrameLevel);
    let time = fig_5_1_scenario(timeout, FairnessModel::TimeBased);
    let hint_run = fig_5_1_scenario(hint, FairnessModel::FrameLevel);

    // The figure itself: both clients' series under frame fairness.
    let c0: Vec<(f64, f64)> = frame
        .goodput_mbps_series(0)
        .iter()
        .enumerate()
        .step_by(2)
        .map(|(i, &v)| (i as f64, v))
        .collect();
    let c1: Vec<(f64, f64)> = frame
        .goodput_mbps_series(1)
        .iter()
        .enumerate()
        .step_by(2)
        .map(|(i, &v)| (i as f64, v))
        .collect();
    r.series("client 1 (static) goodput, Mbit/s", &c0, 30.0, 40);
    r.series("client 2 (departs ~35 s) goodput, Mbit/s", &c1, 30.0, 40);

    let before = frame.mean_goodput_mbps(0, 5, 30);
    let during = frame.mean_goodput_mbps(0, 36, 44);
    let after = frame.mean_goodput_mbps(0, 48, 60);
    let time_during = time.mean_goodput_mbps(0, 36, 44);
    let hint_during = hint_run.mean_goodput_mbps(0, 36, 44);

    r.blank();
    r.table(
        &[
            "policy",
            "before (5-30s)",
            "collapse window (36-44s)",
            "after (48-60s)",
        ],
        &[
            vec![
                "frame fairness + 10s timeout".into(),
                format!("{before:.2}"),
                format!("{during:.2}"),
                format!("{after:.2}"),
            ],
            vec![
                "time fairness + 10s timeout".into(),
                format!("{:.2}", time.mean_goodput_mbps(0, 5, 30)),
                format!("{time_during:.2}"),
                format!("{:.2}", time.mean_goodput_mbps(0, 48, 60)),
            ],
            vec![
                "hint-aware pruning".into(),
                format!("{:.2}", hint_run.mean_goodput_mbps(0, 5, 30)),
                format!("{hint_during:.2}"),
                format!("{:.2}", hint_run.mean_goodput_mbps(0, 48, 60)),
            ],
        ],
    );
    rline!(r, "(static client's goodput in Mbit/s; paper: collapse to near zero for ~10 s, then full recovery)");

    let res = Fig51Result {
        before_mbps: before,
        during_mbps: during,
        after_mbps: after,
        time_based_during_mbps: time_during,
        hint_aware_during_mbps: hint_during,
    };
    (r, res)
}

#[cfg(test)]
mod tests {
    #[test]
    fn shape_holds() {
        let r = super::report().1;
        // Collapse under frame fairness.
        assert!(r.during_mbps < 0.35 * r.before_mbps);
        // Full recovery (roughly 2x the shared-era rate).
        assert!(r.after_mbps > 1.6 * r.before_mbps);
        // Time fairness bounds the damage; hint-aware eliminates it.
        assert!(r.time_based_during_mbps > 1.5 * r.during_mbps);
        assert!(r.hint_aware_during_mbps > 1.3 * r.before_mbps);
    }
}
