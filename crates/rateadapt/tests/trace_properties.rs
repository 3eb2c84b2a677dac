//! Property-based tests for the packet-trace layer: the text and binary
//! serializations must round-trip every valid trace, and the parsers
//! must reject malformed input with the documented, actionable messages —
//! whatever records a recorder happens to produce.

use hint_mac::MAX_MSDU_BYTES;
use hint_rateadapt::trace::{Direction, PacketRecord, PacketTrace, BINARY_RECORD_BYTES};
use proptest::prelude::*;

/// Arbitrary valid traces: non-decreasing timestamps (built from gaps),
/// sizes from 1 byte to the 802.11 MSDU limit, mixed directions.
fn traces() -> impl Strategy<Value = PacketTrace> {
    let size = 1u32..MAX_MSDU_BYTES + 1;
    proptest::collection::vec((0u64..500_000, any::<bool>(), size), 0..60).prop_map(|raw| {
        let mut t = 0u64;
        let records = raw
            .into_iter()
            .map(|(gap, send, size)| {
                t += gap;
                PacketRecord {
                    time_us: t,
                    direction: if send {
                        Direction::Send
                    } else {
                        Direction::Recv
                    },
                    size,
                }
            })
            .collect();
        PacketTrace::new(records).expect("constructed monotone and in range")
    })
}

proptest! {
    /// text -> parse is the identity on every valid trace.
    #[test]
    fn text_round_trips(trace in traces()) {
        let text = trace.to_text();
        let back = PacketTrace::parse_text(&text).expect("own text output parses");
        prop_assert_eq!(&back, &trace);
        // And through the auto-detecting entry point too.
        prop_assert_eq!(&PacketTrace::parse(text.as_bytes()).expect("auto-detects text"), &trace);
    }

    /// binary -> parse is the identity on every valid trace, and the
    /// encoding is exactly header + fixed-width records.
    #[test]
    fn binary_round_trips(trace in traces()) {
        let bytes = trace.to_binary();
        prop_assert_eq!(bytes.len(), 12 + trace.len() * BINARY_RECORD_BYTES);
        let back = PacketTrace::parse_binary(&bytes).expect("own binary output parses");
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(&PacketTrace::parse(&bytes).expect("auto-detects binary"), &trace);
    }

    /// Truncating a binary trace anywhere strictly inside it is always
    /// rejected, and the error says "truncated" with the byte counts.
    #[test]
    fn binary_truncation_is_rejected(trace in traces(), frac in 0.0f64..1.0) {
        let bytes = trace.to_binary();
        let cut = (bytes.len() as f64 * frac) as usize;
        if cut < bytes.len() {
            let err = PacketTrace::parse_binary(&bytes[..cut])
                .expect_err("truncated input must not parse")
                .to_string();
            prop_assert!(err.contains("truncated"), "unexpected error: {}", err);
        }
    }

    /// Appending garbage after the declared record count is rejected
    /// (the count is authoritative; trailing bytes mean corruption).
    #[test]
    fn binary_trailing_bytes_are_rejected(trace in traces(), extra in 1usize..16) {
        let mut bytes = trace.to_binary();
        bytes.extend(vec![0xAAu8; extra]);
        let err = PacketTrace::parse_binary(&bytes)
            .expect_err("trailing bytes must not parse")
            .to_string();
        prop_assert!(err.contains("trailing"), "unexpected error: {}", err);
    }

    /// A backwards timestamp anywhere in a text trace is rejected, and
    /// the error names both offending lines.
    #[test]
    fn text_non_monotone_time_is_rejected(trace in traces(), jump in 1u64..1_000_000) {
        if trace.len() >= 2 {
            // Raise one non-final timestamp above its successor.
            let mut records = trace.records.clone();
            let i = records.len() / 2 - 1;
            records[i].time_us = records[i + 1].time_us + jump;
            let text: String = records
                .iter()
                .map(|r| format!("{},{},{}\n", r.time_us, r.direction.code(), r.size))
                .collect();
            let err = PacketTrace::parse_text(&text)
                .expect_err("non-monotone trace must not parse")
                .to_string();
            prop_assert!(err.contains("runs backwards"), "unexpected error: {}", err);
            prop_assert!(
                err.contains(&format!("line {}", i + 2)),
                "error must name the offending line: {}",
                err
            );
        }
    }

    /// A zero packet size is rejected wherever it appears, naming the
    /// line.
    #[test]
    fn text_zero_size_is_rejected(trace in traces(), pos in 0.0f64..1.0) {
        if !trace.is_empty() {
            let mut records = trace.records.clone();
            let i = (records.len() as f64 * pos) as usize;
            let i = i.min(records.len() - 1);
            records[i].size = 0;
            let text: String = records
                .iter()
                .map(|r| format!("{},{},{}\n", r.time_us, r.direction.code(), r.size))
                .collect();
            let err = PacketTrace::parse_text(&text)
                .expect_err("zero size must not parse")
                .to_string();
            prop_assert!(err.contains("size must be positive"), "unexpected error: {}", err);
            prop_assert!(err.contains(&format!("line {}", i + 1)), "{}", err);
        }
    }

    /// An unknown direction token is rejected with the allowed values.
    #[test]
    fn text_bad_direction_is_rejected(time in 0u64..1_000_000, size in 1u32..3000) {
        let err = PacketTrace::parse_text(&format!("{time},x,{size}\n"))
            .expect_err("unknown direction must not parse")
            .to_string();
        prop_assert!(err.contains("unknown direction `x`"), "{}", err);
        prop_assert!(err.contains("`s`") && err.contains("`r`"), "{}", err);
    }

    /// Windowing is always a valid sub-trace: in-range, rebased to the
    /// window start, monotone, and exactly the records in [from, to).
    #[test]
    fn window_extracts_exactly_the_range(trace in traces(), a in 0u64..2_000_000, b in 0u64..2_000_000) {
        use hint_sim::SimTime;
        let (from, to) = (a.min(b), a.max(b));
        let expected = trace
            .records
            .iter()
            .filter(|r| r.time_us >= from && r.time_us < to)
            .count();
        let w = trace.window(
            SimTime::ZERO + hint_sim::SimDuration::from_micros(from),
            SimTime::ZERO + hint_sim::SimDuration::from_micros(to),
        );
        prop_assert_eq!(w.len(), expected);
        for r in &w.records {
            prop_assert!(r.time_us < to - from || expected == 0);
        }
        // The windowed trace still satisfies the construction invariants.
        prop_assert!(PacketTrace::new(w.records.clone()).is_ok());
    }
}
