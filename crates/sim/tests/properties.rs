//! Property-based tests for the simulation substrate.

use hint_sim::series::TimeSeries;
use hint_sim::{
    ci95, mean, median, percentile, stddev, EventQueue, OnlineStats, RngStream, SimDuration,
    SimTime,
};
use proptest::prelude::*;
use rand::RngCore;

proptest! {
    /// Online Welford statistics must match the batch formulas for any input.
    #[test]
    fn online_stats_match_batch(xs in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
        let mut o = OnlineStats::new();
        for &x in &xs { o.push(x); }
        prop_assert!((o.mean() - mean(&xs)).abs() < 1e-6);
        prop_assert!((o.stddev() - stddev(&xs)).abs() < 1e-6);
        prop_assert!((o.ci95() - ci95(&xs)).abs() < 1e-6);
    }

    /// Merging two accumulators equals accumulating the concatenation.
    #[test]
    fn online_stats_merge_associative(
        xs in proptest::collection::vec(-1e3f64..1e3, 0..100),
        ys in proptest::collection::vec(-1e3f64..1e3, 0..100),
    ) {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs.iter().for_each(|&x| a.push(x));
        ys.iter().for_each(|&y| b.push(y));
        a.merge(&b);
        let all: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        prop_assert!((a.mean() - mean(&all)).abs() < 1e-6);
        prop_assert!((a.stddev() - stddev(&all)).abs() < 1e-6);
    }

    /// Percentiles are monotone in q and bounded by the sample extremes.
    #[test]
    fn percentile_monotone_and_bounded(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..100.0,
        q2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let plo = percentile(&xs, lo);
        let phi = percentile(&xs, hi);
        prop_assert!(plo <= phi + 1e-9);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(percentile(&xs, 0.0) >= min - 1e-9);
        prop_assert!(percentile(&xs, 100.0) <= max + 1e-9);
        let m = median(&xs);
        prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
    }

    /// The event queue always pops in non-decreasing time order, and FIFO
    /// among equal times.
    #[test]
    fn event_queue_is_stable_priority_queue(times in proptest::collection::vec(0u64..1000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(ev) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(ev.at >= lt);
                if ev.at == lt {
                    prop_assert!(ev.event > li, "FIFO violated among simultaneous events");
                }
            }
            last = Some((ev.at, ev.event));
        }
    }

    /// RNG streams derived with the same label are identical; different
    /// labels diverge quickly.
    #[test]
    fn rng_derivation_reproducible(seed in any::<u64>()) {
        let root = RngStream::new(seed);
        let mut a = root.derive("x");
        let mut b = root.derive("x");
        let mut c = root.derive("y");
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        prop_assert_eq!(&va, &vb);
        prop_assert_ne!(va, vc);
    }

    /// uniform() stays in [0,1); chance() is consistent with its bound.
    #[test]
    fn rng_uniform_bounds(seed in any::<u64>()) {
        let mut r = RngStream::new(seed);
        for _ in 0..64 {
            let u = r.uniform();
            prop_assert!((0.0..1.0).contains(&u));
        }
        prop_assert!(!r.chance(-1.0));
        prop_assert!(r.chance(2.0));
    }

    /// skip_normal() advances a stream exactly as normal() does: under
    /// any interleaving with normal() and uniform(), a stream that skips
    /// stays at the position of one that draws every normal, and each
    /// normal() it does draw, a banked half of a skipped pair included,
    /// is the all-normal() value to the bit.
    #[test]
    fn skip_normal_keeps_the_stream_in_step(
        seed in any::<u64>(),
        ops in proptest::collection::vec(0u8..3, 0..200),
    ) {
        let mut reference = RngStream::new(seed);
        let mut skipping = RngStream::new(seed);
        for op in ops {
            match op {
                0 => prop_assert_eq!(skipping.normal().to_bits(), reference.normal().to_bits()),
                1 => {
                    skipping.skip_normal();
                    reference.normal();
                }
                _ => prop_assert_eq!(skipping.uniform().to_bits(), reference.uniform().to_bits()),
            }
            // Same banked half and same generator state.
            let (mut a, mut b) = (skipping.clone(), reference.clone());
            prop_assert_eq!(a.normal().to_bits(), b.normal().to_bits());
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Time-series bucketing conserves the total count and sum.
    #[test]
    fn timeseries_conserves_mass(
        obs in proptest::collection::vec((0u64..60_000_000, -100.0f64..100.0), 0..300)
    ) {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        for &(t, v) in &obs {
            ts.push(SimTime::from_micros(t), v);
        }
        let samples = ts.finish();
        let total_count: u64 = samples.iter().map(|s| s.count).sum();
        let total_sum: f64 = samples.iter().map(|s| s.sum).sum();
        let expect_sum: f64 = obs.iter().map(|o| o.1).sum();
        prop_assert_eq!(total_count, obs.len() as u64);
        prop_assert!((total_sum - expect_sum).abs() < 1e-6 * (1.0 + expect_sum.abs()));
    }

    /// SimTime/SimDuration arithmetic round-trips.
    #[test]
    fn time_arithmetic_roundtrip(a in 0u64..u32::MAX as u64, d in 0u64..u32::MAX as u64) {
        let t = SimTime::from_micros(a);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!(((t + dur) - t).as_micros(), d);
        prop_assert_eq!((t + dur).saturating_since(t).as_micros(), d);
        prop_assert_eq!(t.saturating_since(t + dur), SimDuration::ZERO);
    }
}
