//! Route stability: CTE versus hint-free route selection.
//!
//! The paper's 4–5× stability claim is Table 5.1's aligned-vs-all-links
//! median ratio (picking aligned links buys 4–5× the lifetime). This
//! experiment goes one step further than the paper — an *extension*, noted
//! as such in EXPERIMENTS.md — and measures end-to-end multi-hop route
//! lifetimes when routes are chosen by max-min CTE versus min-hop BFS on a
//! dense urban fleet.

use crate::report::Report;
use crate::rline;
use hint_sim::mean;
use hint_vehicular::routing::route_stability_experiment;

/// Aggregated route-stability numbers.
#[derive(Clone, Debug)]
pub struct RouteStabilityResult {
    /// Mean CTE-route lifetime, seconds.
    pub cte_mean_s: f64,
    /// Mean hint-free-route lifetime, seconds.
    pub hint_free_mean_s: f64,
    /// Ratio of means.
    pub factor: f64,
    /// Number of route pairs measured.
    pub n_routes: usize,
}

/// Run over `n_networks` dense fleets, returning the output as a
/// [`Report`] plus the numbers.
pub fn report(n_networks: u64) -> (Report, RouteStabilityResult) {
    let mut r = Report::new("route_stability");
    r.header("Route stability (extension): CTE vs hint-free route lifetimes");
    let mut cte_all = Vec::new();
    let mut hf_all = Vec::new();
    for i in 0..n_networks {
        let res = route_stability_experiment(8, 300, 900.0, 400, 10, 0x57AB + i);
        cte_all.extend(res.cte_lifetimes);
        hf_all.extend(res.hint_free_lifetimes);
    }
    let cte_mean = mean(&cte_all);
    let hf_mean = mean(&hf_all);
    let factor = if hf_mean > 0.0 {
        cte_mean / hf_mean
    } else {
        0.0
    };

    r.table(
        &["strategy", "routes", "mean lifetime (s)"],
        &[
            vec![
                "max-min CTE".into(),
                cte_all.len().to_string(),
                format!("{cte_mean:.2}"),
            ],
            vec![
                "hint-free (min hop)".into(),
                hf_all.len().to_string(),
                format!("{hf_mean:.2}"),
            ],
        ],
    );
    rline!(r, "stability factor (means): {factor:.2}x");
    rline!(
        r,
        "(link-level 4-5x factor: see Table 5.1's aligned-to-all ratio)"
    );

    let res = RouteStabilityResult {
        cte_mean_s: cte_mean,
        hint_free_mean_s: hf_mean,
        factor,
        n_routes: cte_all.len(),
    };
    (r, res)
}

#[cfg(test)]
mod tests {
    #[test]
    fn shape_holds() {
        let r = super::report(2).1;
        assert!(r.n_routes >= 50);
        assert!(
            r.factor > 1.5,
            "CTE routes should outlive hint-free by >1.5x, got {:.2}",
            r.factor
        );
    }
}
