//! Property tests for the fault-injection layer: window normalization is
//! a canonical form (sorted, disjoint, non-adjacent, order-independent,
//! union-preserving), and `FaultSpec::validate` rejects every malformed
//! schedule with a message that names the offending entry.

use hint_rateadapt::fleet::{normalize_windows, ApOutage, FaultSpec, HintDropout, RadioBlackout};
use hint_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// Raw (start, len) pairs in microseconds — including zero-length and
/// heavily overlapping windows — mapped to the half-open `(SimTime,
/// SimTime)` form `normalize_windows` takes.
fn raw_windows() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..2_000, 0u64..800), 0..24)
}

fn to_windows(raw: &[(u64, u64)]) -> Vec<(SimTime, SimTime)> {
    raw.iter()
        .map(|&(s, len)| (SimTime::from_micros(s), SimTime::from_micros(s + len)))
        .collect()
}

/// Is `t` inside any half-open window of `wins`?
fn covered(wins: &[(SimTime, SimTime)], t: SimTime) -> bool {
    wins.iter().any(|&(s, e)| s <= t && t < e)
}

proptest! {
    /// The normalized schedule is sorted, pairwise disjoint, and
    /// non-adjacent: every window is non-empty and a strict gap
    /// separates consecutive windows (touching inputs coalesce).
    #[test]
    fn normalize_yields_sorted_disjoint_windows(raw in raw_windows()) {
        let norm = normalize_windows(to_windows(&raw));
        for &(s, e) in &norm {
            prop_assert!(s < e, "empty window {s}..{e} survived");
        }
        for pair in norm.windows(2) {
            prop_assert!(
                pair[0].1 < pair[1].0,
                "windows {:?} and {:?} overlap or touch",
                pair[0],
                pair[1]
            );
        }
    }

    /// Normalization depends only on the *set* of input windows, not
    /// their order — and is idempotent, so the engine can re-normalize
    /// freely.
    #[test]
    fn normalize_is_order_independent_and_idempotent(raw in raw_windows(), rot in 0usize..7) {
        let norm = normalize_windows(to_windows(&raw));

        let mut reversed = to_windows(&raw);
        reversed.reverse();
        prop_assert_eq!(&normalize_windows(reversed), &norm, "reversal changed the result");

        let mut rotated = to_windows(&raw);
        if !rotated.is_empty() {
            let mid = rot % rotated.len();
            rotated.rotate_left(mid);
        }
        prop_assert_eq!(&normalize_windows(rotated), &norm, "rotation changed the result");

        prop_assert_eq!(&normalize_windows(norm.clone()), &norm, "not idempotent");
    }

    /// Normalization preserves coverage exactly: an instant is down in
    /// the canonical schedule iff some raw window covered it. Probed at
    /// every boundary and just around it, where off-by-one coalescing
    /// bugs live.
    #[test]
    fn normalize_preserves_the_covered_set(raw in raw_windows()) {
        let wins = to_windows(&raw);
        let norm = normalize_windows(wins.clone());
        let mut probes = Vec::new();
        for &(s, e) in &wins {
            for t in [s, e] {
                probes.push(t);
                probes.push(t + SimDuration::from_micros(1));
                if t > SimTime::ZERO {
                    probes.push(SimTime::from_micros(t.as_micros() - 1));
                }
            }
        }
        for t in probes {
            prop_assert_eq!(
                covered(&norm, t),
                covered(&wins, t),
                "coverage at {} changed under normalization",
                t
            );
        }
    }

    /// Any window naming an out-of-range AP or client index is rejected,
    /// and the message names the offending entry and the bad index —
    /// whatever else the schedule contains.
    #[test]
    fn validate_rejects_out_of_range_indices(
        n_aps in 1usize..8,
        n_clients in 1usize..8,
        excess in 0usize..100,
        which in 0u8..3,
    ) {
        let start = SimDuration::from_secs(1);
        let duration = SimDuration::from_secs(2);
        let run = SimDuration::from_secs(30);
        let mut spec = FaultSpec::default();
        let (list, bad) = match which {
            0 => {
                let bad = n_aps + excess;
                spec.ap_outages.push(ApOutage { ap: bad, start, duration });
                ("ap_outages[0]", bad)
            }
            1 => {
                let bad = n_clients + excess;
                spec.hint_dropouts.push(HintDropout { client: bad, start, duration });
                ("hint_dropouts[0]", bad)
            }
            _ => {
                let bad = n_clients + excess;
                spec.radio_blackouts.push(RadioBlackout { client: bad, start, duration });
                ("radio_blackouts[0]", bad)
            }
        };
        let err = spec
            .validate(n_aps, n_clients, run)
            .expect_err("out-of-range index accepted");
        prop_assert!(err.contains(list), "error does not name the entry: {err}");
        prop_assert!(err.contains(&bad.to_string()), "error does not name index {bad}: {err}");
    }

    /// Zero-duration windows and windows starting at or past the run end
    /// are rejected with messages that say which entry and why.
    #[test]
    fn validate_rejects_degenerate_windows(
        start_us in 0u64..60_000_000,
        run_us in 1u64..60_000_000,
        which in 0u8..3,
    ) {
        let run = SimDuration::from_micros(run_us);
        let mut zero = FaultSpec::default();
        let start = SimDuration::from_micros(start_us % run_us);
        let (list, late_list) = match which {
            0 => {
                zero.ap_outages.push(ApOutage { ap: 0, start, duration: SimDuration::ZERO });
                ("ap_outages[0]", "ap_outages[0]")
            }
            1 => {
                zero.hint_dropouts
                    .push(HintDropout { client: 0, start, duration: SimDuration::ZERO });
                ("hint_dropouts[0]", "hint_dropouts[0]")
            }
            _ => {
                zero.radio_blackouts
                    .push(RadioBlackout { client: 0, start, duration: SimDuration::ZERO });
                ("radio_blackouts[0]", "radio_blackouts[0]")
            }
        };
        let err = zero.validate(4, 4, run).expect_err("zero-duration window accepted");
        prop_assert!(err.contains("zero duration"), "message does not say why: {err}");
        prop_assert!(err.contains(list), "message does not name the entry: {err}");

        let mut late = FaultSpec::default();
        let late_start = run + SimDuration::from_micros(start_us);
        let window = SimDuration::from_secs(1);
        match which {
            0 => late.ap_outages.push(ApOutage { ap: 0, start: late_start, duration: window }),
            1 => late
                .hint_dropouts
                .push(HintDropout { client: 0, start: late_start, duration: window }),
            _ => late
                .radio_blackouts
                .push(RadioBlackout { client: 0, start: late_start, duration: window }),
        }
        let err = late.validate(4, 4, run).expect_err("window past the run end accepted");
        prop_assert!(err.contains("past the run end"), "message does not say why: {err}");
        prop_assert!(err.contains(late_list), "message does not name the entry: {err}");
    }

    /// Well-formed schedules — in-range indices, positive durations,
    /// starts inside the run — always validate, however many windows
    /// they stack on the same entity.
    #[test]
    fn validate_accepts_well_formed_schedules(
        wins in proptest::collection::vec((0u8..4, 0u64..29, 1u64..40), 0..12),
    ) {
        let run = SimDuration::from_secs(30);
        let mut spec = FaultSpec::default();
        for (i, &(idx, start_s, dur_s)) in wins.iter().enumerate() {
            let start = SimDuration::from_secs(start_s);
            let duration = SimDuration::from_secs(dur_s);
            match i % 3 {
                0 => spec.ap_outages.push(ApOutage { ap: idx as usize, start, duration }),
                1 => spec
                    .hint_dropouts
                    .push(HintDropout { client: idx as usize, start, duration }),
                _ => spec
                    .radio_blackouts
                    .push(RadioBlackout { client: idx as usize, start, duration }),
            }
        }
        prop_assert_eq!(spec.validate(4, 4, run), Ok(()));
    }
}
