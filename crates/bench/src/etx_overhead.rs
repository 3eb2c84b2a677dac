//! Sec. 4.2's ETX wrong-link analysis.
//!
//! "If we have two links, one with a delivery probability p1 = 0.8 and the
//! other with p2 = 0.6, the overhead, for δ = 0.25, is 5/12 = 42% on that
//! hop, a non-trivial quantity." (The 5/12 value is the penalty
//! `1/p2 − 1/p1`; the overhead formula the paper states, `p1/p2 − 1`,
//! evaluates to 33% — both are reported.)

use crate::report::Report;
use crate::rline;
use hint_topology::etx::{expected_overhead_monte_carlo, wrong_link_analysis};

/// Numbers for the paper's worked example plus a δ sweep.
#[derive(Clone, Debug)]
pub struct EtxResult {
    /// The worked example's penalty (`1/p2 − 1/p1`, the quoted 5/12).
    pub example_penalty: f64,
    /// The worked example's overhead (`p1/p2 − 1`).
    pub example_overhead: f64,
    /// `(delta, wrong-pick possible, expected overhead)` sweep rows.
    pub sweep: Vec<(f64, bool, f64)>,
}

/// Run the analysis, returning its output as a [`Report`] plus the
/// numbers.
pub fn report() -> (Report, EtxResult) {
    let mut r = Report::new("etx_overhead");
    r.header("Sec. 4.2: ETX wrong-link overhead under estimate error");
    let (p1, p2) = (0.8, 0.6);
    let a = wrong_link_analysis(p1, p2, 0.25);
    rline!(r, "links: p1 = {p1}, p2 = {p2}, delta = 0.25");
    rline!(
        r,
        "penalty  1/p2 - 1/p1 = {:.4}  (the paper's quoted '5/12 = 42%')",
        a.penalty
    );
    rline!(
        r,
        "overhead p1/p2 - 1   = {:.4}  (the paper's stated formula)",
        a.overhead
    );

    let deltas = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3];
    let mut sweep = Vec::new();
    let rows: Vec<Vec<String>> = deltas
        .iter()
        .map(|&d| {
            let an = wrong_link_analysis(p1, p2, d);
            let exp = expected_overhead_monte_carlo(p1, p2, d, 200_000, 42);
            sweep.push((d, an.wrong_pick_possible, exp));
            vec![
                format!("{d:.2}"),
                an.wrong_pick_possible.to_string(),
                format!("{exp:.4}"),
            ]
        })
        .collect();
    r.blank();
    r.table(
        &["delta", "wrong pick possible", "expected overhead (MC)"],
        &rows,
    );

    let res = EtxResult {
        example_penalty: a.penalty,
        example_overhead: a.overhead,
        sweep,
    };
    (r, res)
}

#[cfg(test)]
mod tests {
    #[test]
    fn paper_numbers_reproduced() {
        let r = super::report().1;
        assert!((r.example_penalty - 5.0 / 12.0).abs() < 1e-12);
        assert!((r.example_overhead - 1.0 / 3.0).abs() < 1e-12);
        // Expected overhead grows with delta; impossible below the gap/2.
        assert!(!r.sweep[0].1, "delta 0.05 cannot flip a 0.2 gap");
        assert!(r.sweep.last().unwrap().2 > r.sweep[2].2);
    }
}
