//! Proximity links and link-duration tracking (Sec. 5.1.2).
//!
//! "We consider two vehicles to have a link at a given time if and only if
//! they are within 100 meters at that time in their traces" — geographic
//! proximity as "a crude surrogate for a connection", exactly as in the
//! paper. For each link we record the heading difference *when the link
//! begins* and its total duration; Table 5.1 buckets links by that initial
//! difference.

use crate::mobility::VehicleState;
use hint_sim::median;
use std::collections::BTreeMap;

/// Link formation range, metres (the paper's 100 m).
pub const LINK_RANGE_M: f64 = 100.0;

/// One completed (or trace-end-truncated) link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkRecord {
    /// Lower vehicle index.
    pub a: usize,
    /// Higher vehicle index.
    pub b: usize,
    /// Second at which the link formed.
    pub start_s: usize,
    /// Link lifetime in seconds.
    pub duration_s: usize,
    /// Heading difference at link formation, degrees `[0, 180]`.
    pub initial_heading_diff: f64,
}

/// Smallest absolute angular difference, degrees `[0, 180]`.
fn heading_difference(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(360.0);
    if d > 180.0 {
        360.0 - d
    } else {
        d
    }
}

/// Tracks link formation/teardown across per-second snapshots.
#[derive(Debug, Default)]
pub struct LinkTracker {
    /// Links currently up: (a, b) → (start second, initial heading diff).
    /// Ordered map, not a hash map: [`LinkTracker::finish`] iterates it
    /// to close out still-active links, and hash order would leak into
    /// the record order (a nondeterminism `detlint` DET001 now rejects).
    active: BTreeMap<(usize, usize), (usize, f64)>,
    /// Completed links.
    records: Vec<LinkRecord>,
}

impl LinkTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Process the snapshot for second `t`.
    pub fn observe(&mut self, t: usize, snapshot: &[VehicleState]) {
        let n = snapshot.len();
        for a in 0..n {
            for b in (a + 1)..n {
                let key = (a, b);
                let in_range = snapshot[a].position.distance(snapshot[b].position) <= LINK_RANGE_M;
                match (self.active.get(&key), in_range) {
                    (None, true) => {
                        let diff =
                            heading_difference(snapshot[a].heading_deg, snapshot[b].heading_deg);
                        self.active.insert(key, (t, diff));
                    }
                    (Some(&(start, diff)), false) => {
                        self.records.push(LinkRecord {
                            a,
                            b,
                            start_s: start,
                            duration_s: t - start,
                            initial_heading_diff: diff,
                        });
                        self.active.remove(&key);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Close out links still active at trace end (`t_end` seconds).
    /// Trailing records append in ascending `(a, b)` order — the map is
    /// ordered, so the returned vector is identical run to run.
    pub fn finish(mut self, t_end: usize) -> Vec<LinkRecord> {
        for (&(a, b), &(start, diff)) in &self.active {
            self.records.push(LinkRecord {
                a,
                b,
                start_s: start,
                duration_s: t_end - start,
                initial_heading_diff: diff,
            });
        }
        self.records
    }

    /// Completed links so far (excluding still-active ones).
    pub fn records(&self) -> &[LinkRecord] {
        &self.records
    }
}

/// Run the tracker over a full snapshot series.
pub fn collect_links(snapshots: &[Vec<VehicleState>]) -> Vec<LinkRecord> {
    let mut tracker = LinkTracker::new();
    for (t, snap) in snapshots.iter().enumerate() {
        tracker.observe(t, snap);
    }
    tracker.finish(snapshots.len().saturating_sub(1))
}

/// Table 5.1's heading-difference buckets, as `(lo, hi)` degree bounds.
pub const TABLE_5_1_BUCKETS: [(f64, f64); 4] =
    [(0.0, 10.0), (10.0, 20.0), (20.0, 30.0), (30.0, 180.1)];

/// Median link duration per Table 5.1 bucket, plus the all-links median.
/// Returns `(per_bucket_median_s, all_links_median_s, per_bucket_counts)`.
pub fn table_5_1(records: &[LinkRecord]) -> (Vec<f64>, f64, Vec<usize>) {
    let mut medians = Vec::with_capacity(TABLE_5_1_BUCKETS.len());
    let mut counts = Vec::with_capacity(TABLE_5_1_BUCKETS.len());
    for &(lo, hi) in &TABLE_5_1_BUCKETS {
        let durs: Vec<f64> = records
            .iter()
            .filter(|r| r.initial_heading_diff >= lo && r.initial_heading_diff < hi)
            .map(|r| r.duration_s as f64)
            .collect();
        counts.push(durs.len());
        medians.push(median(&durs));
    }
    let all: Vec<f64> = records.iter().map(|r| r.duration_s as f64).collect();
    (medians, median(&all), counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::Fleet;
    use crate::roads::{Point, RoadNetwork};
    use hint_sim::RngStream;
    use proptest::{prop_assert, proptest};

    fn state(x: f64, y: f64, h: f64) -> VehicleState {
        VehicleState {
            position: Point { x, y },
            heading_deg: h,
            speed_mps: 10.0,
        }
    }

    #[test]
    fn link_lifecycle_tracked() {
        let mut t = LinkTracker::new();
        // Two vehicles approach, stay linked 3 s, then separate.
        t.observe(0, &[state(0.0, 0.0, 0.0), state(500.0, 0.0, 180.0)]);
        t.observe(1, &[state(0.0, 0.0, 0.0), state(50.0, 0.0, 180.0)]); // link forms
        t.observe(2, &[state(0.0, 0.0, 0.0), state(60.0, 0.0, 180.0)]);
        t.observe(3, &[state(0.0, 0.0, 0.0), state(90.0, 0.0, 180.0)]);
        t.observe(4, &[state(0.0, 0.0, 0.0), state(400.0, 0.0, 180.0)]); // breaks
        let recs = t.finish(4);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].start_s, 1);
        assert_eq!(recs[0].duration_s, 3);
        assert_eq!(recs[0].initial_heading_diff, 180.0);
    }

    #[test]
    fn still_active_links_closed_at_end() {
        let mut t = LinkTracker::new();
        t.observe(0, &[state(0.0, 0.0, 10.0), state(10.0, 0.0, 15.0)]);
        t.observe(1, &[state(0.0, 0.0, 10.0), state(12.0, 0.0, 15.0)]);
        let recs = t.finish(5);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].duration_s, 5);
        assert!((recs[0].initial_heading_diff - 5.0).abs() < 1e-9);
    }

    #[test]
    fn boundary_is_inclusive_at_100m() {
        let mut t = LinkTracker::new();
        t.observe(0, &[state(0.0, 0.0, 0.0), state(100.0, 0.0, 0.0)]);
        assert_eq!(t.active.len(), 1);
        let mut t2 = LinkTracker::new();
        t2.observe(0, &[state(0.0, 0.0, 0.0), state(100.1, 0.0, 0.0)]);
        assert_eq!(t2.active.len(), 0);
    }

    #[test]
    fn same_heading_links_outlive_crossing_links() {
        // The Table 5.1 mechanism in miniature: aggregate a few simulated
        // networks so every heading bucket is populated (road-orientation
        // pairs 10–30° apart are rare in any single random network).
        let mut records = Vec::new();
        for seed in 11..14 {
            let mut rng = RngStream::new(seed).derive("net");
            let net = RoadNetwork::generate(25, 2500.0, &mut rng);
            let fleet = Fleet::new(net, 80, RngStream::new(seed).derive("fleet"));
            let snaps = fleet.simulate(900);
            records.extend(collect_links(&snaps));
        }
        assert!(records.len() > 100, "only {} links formed", records.len());
        let (medians, all_median, counts) = table_5_1(&records);
        // Every bucket must be populated.
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 5, "bucket {i} has only {c} links");
        }
        // Monotone decreasing medians, and the aligned bucket beats the
        // all-links median by a large factor.
        assert!(
            medians[0] > medians[2] && medians[1] > medians[3],
            "medians {medians:?}"
        );
        assert!(
            medians[0] > 2.0 * all_median,
            "aligned {:.0} vs all {all_median:.0}",
            medians[0]
        );
    }

    #[test]
    fn heading_difference_range() {
        assert_eq!(heading_difference(0.0, 180.0), 180.0);
        assert_eq!(heading_difference(10.0, 350.0), 20.0);
        assert_eq!(heading_difference(90.0, 90.0), 0.0);
    }

    proptest! {
        /// heading_difference is symmetric, bounded by [0,180], zero on self,
        /// and invariant to full rotations.
        #[test]
        fn heading_difference_properties(a in -720.0f64..720.0, b in -720.0f64..720.0) {
            let d = heading_difference(a, b);
            prop_assert!((0.0..=180.0).contains(&d));
            prop_assert!((heading_difference(b, a) - d).abs() < 1e-9);
            prop_assert!(heading_difference(a, a) < 1e-9);
            prop_assert!((heading_difference(a + 360.0, b) - d).abs() < 1e-9);
        }
    }
}
