//! Shared-medium contention at fleet scale: per-AP aggregate throughput
//! saturates as clients are added, and hints cut the ghost airtime an AP
//! counts for a departed client.
//!
//! The sweep parks `n − 1` saturated clients around one AP and walks one
//! client out of coverage mid-run, for `n` in 1→8, under three
//! configurations of the same floor:
//!
//! 1. **isolated** — the pre-contention engine: every client runs its own
//!    back-to-back link, so per-AP aggregate goodput grows additively
//!    with `n` (unrealistically — one radio cannot carry eight saturated
//!    senders at full rate).
//! 2. **shared, legacy** — the CSMA/CA arbiter splits the AP's airtime
//!    (DIFS, backoff, collisions, retries), so aggregate goodput
//!    *saturates*: the medium is the bottleneck, not the per-link
//!    channel. No hints, signal handoff: the departing walker leaves
//!    silently and the AP counts the Fig. 5-1 ghost window on it.
//! 3. **shared, hint-aware** — same contended medium, but the walker's
//!    movement hint lets the AP quarantine it on departure: ghost
//!    airtime collapses to a handful of probes.
//!
//! Ghost airtime is counted (`wasted_airtime_s`) but not charged to the
//! medium: the arbiter's stations are association spans only, so a
//! departed client never contends, and the clients that stay get the
//! same shares with or without the hint.

use crate::fleet::Comparison;
use crate::report::Report;
use crate::rline;
use hint_rateadapt::fleet::{FleetOutcome, FleetSpec, MediumSpec};
use hint_rateadapt::scenario::{HintSpec, MotionSpec};
use hint_rateadapt::Workload;
use hint_sim::SimDuration;

/// Clients-per-AP counts the sweep visits.
pub const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The contended office floor: one AP at the centre of a 140 × 100 m
/// floor, `n_clients − 1` saturated UDP clients parked at staggered
/// distances (golden-angle spiral, 8–32 m), and one walker (client 0)
/// that strolls east out of coverage midway through the 30 s run.
/// `n_clients == 1` is just the walker.
///
/// With `n_clients = 4`, `MediumSpec::shared()`, the `hint-aware`
/// policy and sensor hints, this is exactly the checked-in
/// `scenarios/fleet_contended_office.json`.
pub fn contended_office_fleet(
    n_clients: usize,
    policy: &str,
    hints: HintSpec,
    medium: MediumSpec,
) -> FleetSpec {
    assert!(n_clients >= 1, "fleet needs at least one client");
    let mut b = FleetSpec::builder()
        .bounds(140.0, 100.0)
        .ap(50.0, 50.0, 65.0)
        // Client 0: walks east at 1.6 m/s from x=80, crossing the
        // coverage edge (x = 115) around t ≈ 22 s of the 30 s run.
        .client(
            80.0,
            50.0,
            MotionSpec::Walking {
                speed_mps: 1.6,
                heading_deg: 90.0,
            },
            Workload::Udp,
        )
        .duration(SimDuration::from_secs(30))
        .seed(0xC047E17)
        .protocol("HintAware")
        .handoff_policy(policy)
        .hints(hints)
        .medium(medium);
    for i in 0..n_clients.saturating_sub(1) {
        let angle = i as f64 * 2.399_963; // golden angle: spread without overlap
        let r = 8.0 + 3.0 * i as f64;
        b = b.client(
            50.0 + r * angle.cos(),
            50.0 + r * angle.sin(),
            MotionSpec::Stationary,
            Workload::Udp,
        );
    }
    b.into_spec()
}

/// The three configurations compared at each sweep point.
fn configurations(n: usize) -> [(&'static str, FleetSpec); 3] {
    [
        (
            "isolated",
            contended_office_fleet(
                n,
                "strongest-signal",
                HintSpec::None,
                MediumSpec::isolated(),
            ),
        ),
        (
            "shared, legacy",
            contended_office_fleet(n, "strongest-signal", HintSpec::None, MediumSpec::shared()),
        ),
        (
            "shared, hint-aware",
            contended_office_fleet(
                n,
                "hint-aware",
                HintSpec::Sensors { seed: None },
                MediumSpec::shared(),
            ),
        ),
    ]
}

/// Total ghost (wasted) airtime across APs, seconds.
pub fn ghost_airtime_s(o: &FleetOutcome) -> f64 {
    o.aps.iter().map(|a| a.wasted_airtime_s).sum()
}

/// Run the sweep, returning its output as a [`Report`] plus each
/// sweep point's outcomes.
pub fn report() -> (Report, Vec<(usize, Comparison)>) {
    let mut r = Report::new("fig_contention");
    r.header("Contended medium: 1-8 clients per AP, isolated vs CSMA/CA-shared airtime");

    let points: Vec<(usize, Comparison)> = SWEEP
        .iter()
        .map(|&n| (n, Comparison::run(configurations(n))))
        .collect();

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|(n, p)| {
            let iso = p.get("isolated");
            let legacy = p.get("shared, legacy");
            let hint = p.get("shared, hint-aware");
            vec![
                format!("{n}"),
                format!("{:.2}", iso.aggregate_goodput_mbps),
                format!("{:.2}", legacy.aggregate_goodput_mbps),
                format!("{:.2}", hint.aggregate_goodput_mbps),
                format!("{:.3}", hint.jain_fairness),
                format!("{:.2}", ghost_airtime_s(legacy)),
                format!("{:.2}", ghost_airtime_s(hint)),
                format!(
                    "{:.2}",
                    legacy.aps.iter().map(|a| a.collision_s).sum::<f64>()
                ),
            ]
        })
        .collect();
    r.table(
        &[
            "clients/AP",
            "isolated Mbit/s",
            "shared Mbit/s",
            "shared+hints Mbit/s",
            "Jain",
            "ghost s (legacy)",
            "ghost s (hints)",
            "collision s",
        ],
        &rows,
    );

    r.blank();
    rline!(
        r,
        "Isolated aggregate grows ~linearly with clients (each span is an"
    );
    rline!(
        r,
        "independent link); under `contention: shared` the CSMA/CA arbiter"
    );
    rline!(
        r,
        "splits the AP's epoch, so aggregate goodput saturates at the medium"
    );
    rline!(
        r,
        "capacity and collisions rise with the contender count. Hints cut"
    );
    rline!(
        r,
        "the walker's ghost airtime from 8 s to a few probes, but the engine"
    );
    rline!(
        r,
        "counts ghost airtime without charging it to the medium, so no"
    );
    rline!(
        r,
        "contender gets it back: shared+hints does not beat shared here."
    );

    (r, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds() {
        let (_, points) = report();
        assert_eq!(points.len(), SWEEP.len());
        let at = |n: usize| &points.iter().find(|p| p.0 == n).expect("swept").1;

        // Isolated throughput is roughly additive in parked clients...
        let iso1 = at(1).get("isolated").aggregate_goodput_mbps;
        let iso8 = at(8).get("isolated").aggregate_goodput_mbps;
        assert!(iso8 > iso1 * 3.0, "isolated not additive: {iso1} -> {iso8}");

        // ...while the shared medium saturates: far below isolated at 8
        // clients, and nearly flat from 4 to 8.
        for label in ["shared, legacy", "shared, hint-aware"] {
            let s4 = at(4).get(label).aggregate_goodput_mbps;
            let s8 = at(8).get(label).aggregate_goodput_mbps;
            assert!(
                s8 < iso8 * 0.5,
                "{label}: shared {s8} not sub-additive vs isolated {iso8}"
            );
            assert!(
                s8 < s4 * 1.5,
                "{label}: no saturation between 4 ({s4}) and 8 ({s8}) clients"
            );
        }

        // Contention accounting is visible and grows with contenders.
        let coll8: f64 = at(8)
            .get("shared, legacy")
            .aps
            .iter()
            .map(|a| a.collision_s)
            .sum();
        assert!(coll8 > 0.0, "8 contenders must collide");

        // Hint-policy airtime savings hold under contention: the silent
        // walker costs the legacy AP its ghost window; the hinting walker
        // costs probes.
        for &n in &SWEEP {
            let legacy_ghost = ghost_airtime_s(at(n).get("shared, legacy"));
            let hint_ghost = ghost_airtime_s(at(n).get("shared, hint-aware"));
            assert!(
                legacy_ghost > 5.0,
                "n={n}: silent departure ghost {legacy_ghost}"
            );
            assert!(hint_ghost < 1.0, "n={n}: hinted ghost {hint_ghost}");
        }
    }
}
