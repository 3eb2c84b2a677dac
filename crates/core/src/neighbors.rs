//! Per-neighbour hint tables.
//!
//! "In addition to using local hints, a protocol can adapt based on hints
//! communicated from other nodes. For instance, a sender can adapt its bit
//! rate based on the mobility state of the receiver" (Sec. 2.1). Every
//! received frame's [`HintField`] updates the table; queries carry the
//! update time so protocols can apply freshness rules.

use hint_mac::hint_proto::{HintField, HintWire};
use hint_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// What we currently know about one neighbour.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NeighborEntry {
    /// Latest movement hint (None until the neighbour reports one — a
    /// legacy neighbour never does).
    pub moving: Option<bool>,
    /// Latest heading hint, degrees.
    pub heading_deg: Option<f64>,
    /// Latest speed hint, m/s.
    pub speed_mps: Option<f64>,
    /// When any hint from this neighbour last arrived.
    pub updated_at: SimTime,
}

/// The hint table: neighbour id → latest hints.
///
/// Backed by a `BTreeMap` so every traversal (`expire`'s retain sweep,
/// `Debug` output) runs in key order: a table embedded in a
/// deterministic engine can never leak hash-iteration order into an
/// outcome.
#[derive(Clone, Debug, Default)]
pub struct NeighborHints<K: Ord + Copy> {
    entries: BTreeMap<K, NeighborEntry>,
}

impl<K: Ord + Copy> NeighborHints<K> {
    /// Empty table.
    pub fn new() -> Self {
        NeighborHints {
            entries: BTreeMap::new(),
        }
    }

    /// Ingest the hint field of a frame received from `neighbor` at `now`.
    /// Legacy frames (no hints) still refresh the timestamp — we heard
    /// from the node — but set no hint values.
    pub fn on_frame(&mut self, neighbor: K, now: SimTime, hints: &HintField) {
        let e = self.entries.entry(neighbor).or_default();
        e.updated_at = now;
        if let Some(m) = hints.movement_hint() {
            e.moving = Some(m);
        }
        if let Some(tlv) = hints.tlv {
            match tlv {
                HintWire::Movement(m) => e.moving = Some(m),
                HintWire::Heading(h) => e.heading_deg = Some(h),
                HintWire::Speed(s) => e.speed_mps = Some(s),
            }
        }
    }

    /// The entry for `neighbor`, if we have heard from it.
    pub fn get(&self, neighbor: K) -> Option<&NeighborEntry> {
        self.entries.get(&neighbor)
    }

    /// Is `neighbor` known to be moving? (`false` for unknown/legacy —
    /// the safe default is the static strategy, as with `H_0 = 0`.)
    pub fn is_moving(&self, neighbor: K) -> bool {
        self.get(neighbor).and_then(|e| e.moving).unwrap_or(false)
    }

    /// Drop neighbours not heard from within `max_age` of `now`.
    pub fn expire(&mut self, now: SimTime, max_age: SimDuration) {
        self.entries
            .retain(|_, e| now.saturating_since(e.updated_at) <= max_age);
    }

    /// Number of known neighbours.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no neighbour is known.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_update_entries() {
        let mut t: NeighborHints<u32> = NeighborHints::new();
        assert!(!t.is_moving(1));
        t.on_frame(1, SimTime::from_secs(1), &HintField::movement(true));
        assert!(t.is_moving(1));
        assert_eq!(t.get(1).unwrap().updated_at, SimTime::from_secs(1));
        t.on_frame(
            1,
            SimTime::from_secs(2),
            &HintField::with_tlv(HintWire::Heading(90.0)),
        );
        let e = t.get(1).unwrap();
        assert_eq!(e.heading_deg, Some(90.0));
        // Movement survives a heading-only update.
        assert_eq!(e.moving, Some(true));
    }

    #[test]
    fn legacy_frames_refresh_without_hints() {
        let mut t: NeighborHints<u32> = NeighborHints::new();
        t.on_frame(7, SimTime::from_secs(5), &HintField::legacy());
        let e = t.get(7).unwrap();
        assert_eq!(e.moving, None);
        assert_eq!(e.updated_at, SimTime::from_secs(5));
        assert!(!t.is_moving(7), "legacy defaults to static");
    }

    #[test]
    fn expiry_drops_silent_neighbors() {
        let mut t: NeighborHints<u32> = NeighborHints::new();
        t.on_frame(1, SimTime::from_secs(1), &HintField::movement(true));
        t.on_frame(2, SimTime::from_secs(9), &HintField::movement(false));
        t.expire(SimTime::from_secs(10), SimDuration::from_secs(5));
        assert!(t.get(1).is_none());
        assert!(t.get(2).is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn speed_tlv_recorded() {
        let mut t: NeighborHints<u32> = NeighborHints::new();
        t.on_frame(
            3,
            SimTime::ZERO,
            &HintField::with_tlv(HintWire::Speed(12.0)),
        );
        assert_eq!(t.get(3).unwrap().speed_mps, Some(12.0));
    }
}
