//! Property-based tests for the CSMA/CA airtime arbiter: exact airtime
//! conservation, no starvation under symmetric demand, determinism of
//! the grant schedule, a totals-only path that makes the same draws, and
//! agreement with a plain reference DCF loop.

use hint_mac::contention::{AirtimeArbiter, ContentionParams, Grant, GrantSchedule, Station};
use hint_mac::{BitRate, MacTiming};
use hint_sim::{RngStream, SimDuration};
use proptest::collection;
use proptest::prelude::*;

/// Exchange airtime for an arbitrary (rate, payload) pair — realistic
/// frame airtimes, never zero.
fn frame_airtime(rate_idx: usize, payload: u32) -> SimDuration {
    MacTiming::ieee80211a().exchange_airtime(BitRate::from_index(rate_idx), payload)
}

/// Strategy: one station with an arbitrary rate/payload and an arbitrary
/// (possibly empty, possibly out-of-epoch) active window in microseconds.
fn station_strategy(epoch_us: u64) -> impl Strategy<Value = Station> {
    (0usize..8, 100u32..2000, 0..epoch_us + 1, 0..epoch_us + 1).prop_map(
        move |(rate, payload, a, b)| Station {
            frame_airtime: frame_airtime(rate, payload),
            active_from: SimDuration::from_micros(a.min(b)),
            active_to: SimDuration::from_micros(a.max(b)),
        },
    )
}

/// DCF parameters as plain values, for the reference loop.
#[derive(Clone, Copy, Debug)]
struct Dcf {
    slot: SimDuration,
    difs: SimDuration,
    cw_min: u32,
    cw_max: u32,
    max_attempts: u32,
}

impl Dcf {
    fn params(&self) -> ContentionParams {
        ContentionParams::new(
            self.slot,
            self.difs,
            self.cw_min,
            self.cw_max,
            self.max_attempts,
        )
        .expect("strategy makes valid parameters")
    }
}

/// Strategy: valid DCF parameters, with windows that are and are not
/// one less than a power of two.
fn dcf_strategy() -> impl Strategy<Value = Dcf> {
    (1u64..20, 1u64..60, 0u32..64, 0u32..1100, 1u32..8).prop_map(
        |(slot, difs, cw_min, extra, max_attempts)| Dcf {
            slot: SimDuration::from_micros(slot),
            difs: SimDuration::from_micros(difs),
            cw_min,
            cw_max: cw_min + extra,
            max_attempts,
        },
    )
}

/// The DCF loop in its plainest form: rescan the active set and draw
/// every backoff as a float on every access. The arbiter must produce
/// exactly this schedule, grant for grant, from the same draws.
fn reference_arbitrate(
    dcf: Dcf,
    epoch: SimDuration,
    stations: &[Station],
    seed: u64,
) -> GrantSchedule {
    let mut rng = RngStream::new(seed).derive("contention");
    let n = stations.len();
    let mut cw = vec![dcf.cw_min; n];
    let mut attempts = vec![0u32; n];
    let mut out = GrantSchedule {
        epoch,
        grants: Vec::new(),
        granted: vec![SimDuration::ZERO; n],
        collision_airtime: SimDuration::ZERO,
        idle: SimDuration::ZERO,
        collisions: 0,
        dropped_frames: 0,
        accesses: 0,
        draws: 0,
    };
    let mut t = SimDuration::ZERO;
    while t < epoch {
        let active: Vec<usize> = (0..n)
            .filter(|&i| stations[i].active_from <= t && t < stations[i].active_to.min(epoch))
            .collect();
        if active.is_empty() {
            let next = stations
                .iter()
                .filter(|s| s.active_from > t && s.active_from < s.active_to)
                .map(|s| s.active_from)
                .min()
                .unwrap_or(epoch)
                .min(epoch);
            out.idle += next - t;
            t = next;
            continue;
        }
        out.accesses += 1;
        out.draws += active.len() as u64;
        let backoffs: Vec<u64> = active
            .iter()
            .map(|&i| ((rng.uniform() * (f64::from(cw[i]) + 1.0)) as u64).min(u64::from(cw[i])))
            .collect();
        let min = *backoffs.iter().min().expect("non-empty");
        let access = dcf.difs + dcf.slot * min;
        if t + access >= epoch {
            out.idle += epoch - t;
            break;
        }
        out.idle += access;
        t += access;
        let winners: Vec<usize> = active
            .iter()
            .zip(&backoffs)
            .filter(|&(&i, &b)| b == min && t < stations[i].active_to.min(epoch))
            .map(|(&i, _)| i)
            .collect();
        match winners.as_slice() {
            [] => {}
            &[w] => {
                let tx = stations[w].frame_airtime;
                if t + tx > epoch {
                    out.idle += epoch - t;
                    break;
                }
                out.grants.push(Grant {
                    station: w,
                    at: t,
                    airtime: tx,
                });
                out.granted[w] += tx;
                t += tx;
                cw[w] = dcf.cw_min;
                attempts[w] = 0;
            }
            colliders => {
                let longest = colliders.iter().map(|&i| stations[i].frame_airtime).max();
                let cost = longest.expect("colliders").min(epoch - t);
                out.collision_airtime += cost;
                out.collisions += 1;
                t += cost;
                for &i in colliders {
                    attempts[i] += 1;
                    if attempts[i] >= dcf.max_attempts {
                        out.dropped_frames += 1;
                        attempts[i] = 0;
                        cw[i] = dcf.cw_min;
                    } else {
                        cw[i] = cw[i].saturating_mul(2).saturating_add(1).min(dcf.cw_max);
                    }
                }
            }
        }
    }
    out
}

proptest! {
    /// The arbiter is the reference loop, grant for grant and draw for
    /// draw, for arbitrary DCF parameters (power-of-two windows take the
    /// exact integer draw, the rest the float one) and for windows that
    /// open and close mid-epoch.
    #[test]
    fn arbiter_matches_the_reference_loop(
        dcf in dcf_strategy(),
        epoch_ms in 1u64..300,
        seed in any::<u64>(),
        stations in collection::vec(station_strategy(300_000), 0..8),
    ) {
        let epoch = SimDuration::from_millis(epoch_ms);
        let got = AirtimeArbiter::new(dcf.params()).arbitrate(epoch, &stations, seed);
        prop_assert_eq!(got, reference_arbitrate(dcf, epoch, &stations, seed));
    }

    /// Conservation: every microsecond of the epoch is granted airtime,
    /// collision airtime, or idle — exactly, in integer microseconds,
    /// for arbitrary station mixes and windows.
    #[test]
    fn airtime_is_conserved_exactly(
        epoch_ms in 20u64..1500,
        seed in any::<u64>(),
        stations in collection::vec(station_strategy(1_500_000), 0..8),
    ) {
        let epoch = SimDuration::from_millis(epoch_ms);
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let s = arb.arbitrate(epoch, &stations, seed);
        prop_assert_eq!(s.accounted(), epoch, "granted {:?} + collision {:?} + idle {:?}",
            s.busy(), s.collision_airtime, s.idle);
        // The per-station totals are exactly the sum of the schedule.
        let mut per = vec![SimDuration::ZERO; stations.len()];
        for g in &s.grants {
            per[g.station] += g.airtime;
            prop_assert!(g.at + g.airtime <= epoch, "grant overruns the epoch");
            prop_assert!(g.at >= stations[g.station].active_from, "grant before activation");
            prop_assert!(g.at < stations[g.station].active_to, "grant after deactivation");
        }
        prop_assert_eq!(&per, &s.granted);
        // Shares are total: finite and within [0, 1] whatever the window.
        for i in 0..stations.len() {
            let share = s.share(i, &stations);
            prop_assert!((0.0..=1.0).contains(&share), "share {share}");
        }
    }

    /// No starvation: stations with identical frames contending for the
    /// whole epoch split the medium evenly — everyone transmits, and no
    /// station gets less than half of the best-served station.
    #[test]
    fn symmetric_demand_never_starves(
        n in 2usize..7,
        rate_idx in 0usize..8,
        seed in any::<u64>(),
    ) {
        let epoch = SimDuration::from_secs(1);
        let stations: Vec<Station> = (0..n)
            .map(|_| Station::saturated(frame_airtime(rate_idx, 1000)))
            .collect();
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let s = arb.arbitrate(epoch, &stations, seed);
        let min = s.granted.iter().min().expect("n >= 2").as_micros();
        let max = s.granted.iter().max().expect("n >= 2").as_micros();
        prop_assert!(min > 0, "a symmetric station starved: {:?}", s.granted);
        prop_assert!(min * 2 >= max, "split too uneven: {:?}", s.granted);
    }

    /// Determinism: the same spec and seed reproduce the identical grant
    /// schedule, grant for grant; a different seed is allowed to differ
    /// but must still conserve airtime (checked above).
    #[test]
    fn same_seed_same_grant_schedule(
        epoch_ms in 20u64..500,
        seed in any::<u64>(),
        stations in collection::vec(station_strategy(500_000), 1..6),
    ) {
        let epoch = SimDuration::from_millis(epoch_ms);
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let a = arb.arbitrate(epoch, &stations, seed);
        let b = arb.arbitrate(epoch, &stations, seed);
        prop_assert_eq!(a, b, "two arbitrations of one seed diverged");
    }

    /// The totals-only path is the recording path minus its grant log:
    /// same draws, same accesses, same airtime, for windows that open
    /// and close mid-epoch (each edge rebuilds the active set).
    #[test]
    fn totals_path_matches_recording_path(
        epoch_ms in 20u64..1500,
        seed in any::<u64>(),
        stations in collection::vec(station_strategy(1_500_000), 0..8),
    ) {
        let epoch = SimDuration::from_millis(epoch_ms);
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let mut recorded = arb.arbitrate(epoch, &stations, seed);
        // Every grant and every collision ends one access.
        prop_assert!(
            recorded.grants.len() as u64 + u64::from(recorded.collisions) <= recorded.accesses
        );
        recorded.grants.clear();
        prop_assert_eq!(arb.arbitrate_totals(epoch, &stations, seed), recorded);
    }

    /// The same, when every station contends for the whole epoch.
    #[test]
    fn totals_path_matches_recording_path_over_whole_epochs(
        n in 1usize..9,
        rate_idx in 0usize..8,
        seed in any::<u64>(),
    ) {
        let epoch = SimDuration::from_secs(1);
        let stations: Vec<Station> = (0..n)
            .map(|i| Station::saturated(frame_airtime((rate_idx + i) % 8, 1000)))
            .collect();
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let mut recorded = arb.arbitrate(epoch, &stations, seed);
        prop_assert_eq!(recorded.draws, recorded.accesses * n as u64);
        recorded.grants.clear();
        prop_assert_eq!(arb.arbitrate_totals(epoch, &stations, seed), recorded);
    }

    /// Sub-additivity: the medium never hands out more than the epoch,
    /// and adding contenders shrinks the *per-station* share — which is
    /// exactly why per-AP aggregate throughput saturates instead of
    /// growing additively (the shape `fig_contention` shows end to end).
    /// (Total busy airtime may tick *up* slightly with more stations —
    /// the minimum of more backoff draws is smaller, so less air idles —
    /// which is faithful DCF behaviour.)
    #[test]
    fn adding_stations_shrinks_the_per_station_share(
        n in 1usize..6,
        seed in any::<u64>(),
    ) {
        let epoch = SimDuration::from_secs(1);
        let arb = AirtimeArbiter::new(ContentionParams::ieee80211a());
        let frame = frame_airtime(7, 1000);
        let small: Vec<Station> = (0..n).map(|_| Station::saturated(frame)).collect();
        let large: Vec<Station> = (0..n + 3).map(|_| Station::saturated(frame)).collect();
        let busy_small = arb.arbitrate(epoch, &small, seed).busy();
        let busy_large = arb.arbitrate(epoch, &large, seed).busy();
        prop_assert!(busy_large <= epoch && busy_small <= epoch);
        let per_small = busy_small.as_micros() as f64 / n as f64;
        let per_large = busy_large.as_micros() as f64 / (n + 3) as f64;
        prop_assert!(
            per_large < per_small,
            "per-station airtime grew: {per_large} vs {per_small} (n={n})"
        );
    }
}
