//! Table 5.1 — median link duration by initial heading difference.
//!
//! "We studied 15 networks consisting of 100 vehicles each ... For
//! vehicles with headings within 10 degrees, the median link duration is
//! 66 seconds. This value roughly halves with each successive increase of
//! 10 degrees, falling to a median of 9 seconds by the time the headings
//! are 30 degrees apart." Paper row: \[0,10): 66, \[10,20): 32, \[20,30): 15,
//! \[30,180\]: 9, all links: 16.

use crate::report::Report;
use crate::rline;
use hint_sim::RngStream;
use hint_vehicular::links::{collect_links, table_5_1};
use hint_vehicular::mobility::Fleet;
use hint_vehicular::roads::RoadNetwork;

/// Table 5.1 reproduction output.
#[derive(Clone, Debug)]
pub struct Table51Result {
    /// Median durations for the four buckets, seconds.
    pub medians: Vec<f64>,
    /// All-links median, seconds.
    pub all_median: f64,
    /// Links per bucket.
    pub counts: Vec<usize>,
    /// Total links observed.
    pub total_links: usize,
}

/// Run with `n_networks` networks of `n_vehicles` each
/// (paper: 15 × 100), returning the output as a [`Report`] plus the
/// table data.
pub fn report(n_networks: u64, n_vehicles: usize) -> (Report, Table51Result) {
    let mut r = Report::new("table_5_1");
    r.header("Table 5.1: median link duration (s) by initial heading difference");
    let mut records = Vec::new();
    for net_i in 0..n_networks {
        let root = RngStream::new(0x51 + net_i);
        let mut net_rng = root.derive("net");
        let network = RoadNetwork::generate(15, 4000.0, &mut net_rng);
        let fleet = Fleet::new(network, n_vehicles, root.derive("fleet"));
        let snaps = fleet.simulate(900);
        records.extend(collect_links(&snaps));
    }
    let (medians, all_median, counts) = table_5_1(&records);

    let rows = vec![
        std::iter::once("measured".to_string())
            .chain(medians.iter().map(|m| format!("{m:.0}")))
            .chain(std::iter::once(format!("{all_median:.0}")))
            .collect::<Vec<_>>(),
        vec![
            "paper".into(),
            "66".into(),
            "32".into(),
            "15".into(),
            "9".into(),
            "16".into(),
        ],
        std::iter::once("links".to_string())
            .chain(counts.iter().map(|c| c.to_string()))
            .chain(std::iter::once(records.len().to_string()))
            .collect::<Vec<_>>(),
    ];
    r.table(
        &["", "[0,10)", "[10,20)", "[20,30)", "[30,180]", "all"],
        &rows,
    );
    rline!(
        r,
        "aligned-to-all ratio: {:.1}x (paper: 66/16 = 4.1x)",
        medians[0] / all_median
    );

    let res = Table51Result {
        medians,
        all_median,
        counts,
        total_links: records.len(),
    };
    (r, res)
}

#[cfg(test)]
mod tests {
    #[test]
    fn shape_holds() {
        // Scaled down: 4 networks x 100 vehicles.
        let r = super::report(4, 100).1;
        assert!(r.total_links > 2000, "links {}", r.total_links);
        // Aligned links far outlive opposed ones. (Strict bucket-to-bucket
        // monotonicity needs the full 15-network run — the middle buckets
        // hold only tens of links at this scale.)
        assert!(
            r.medians[0] > r.medians[3],
            "aligned {:?} must beat opposed",
            r.medians
        );
        assert!(r.medians[1] >= r.medians[3], "medians {:?}", r.medians);
        // The aligned bucket beats the all-links median by >= 3x
        // (paper: 4.1x).
        assert!(
            r.medians[0] > 3.0 * r.all_median,
            "aligned {:.0} vs all {:.0}",
            r.medians[0],
            r.all_median
        );
    }
}
