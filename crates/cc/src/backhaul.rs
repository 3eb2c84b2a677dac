//! The AP's wired uplink: a serialization rate, a propagation delay, and
//! a finite FIFO drop-tail queue.
//!
//! In the paper's experiments the wireless hop is always the bottleneck.
//! Attaching a [`BackhaulSpec`] to an AP moves the bottleneck upstream:
//! packets serialize onto the wire at `rate_bps`, wait behind earlier
//! packets in a queue of at most `queue_pkts`, and cross the wire in
//! `delay`. A packet arriving at a full queue is dropped — the only loss
//! the wired segment ever produces, and the signal closed-loop senders
//! (`Workload::Flow`) react to.
//!
//! The queue is modeled in virtual time with no event scheduler: because
//! the flow sender offers packets in nondecreasing time order, the queue
//! only needs the departure times of the packets still inside it. That
//! keeps the whole wired segment allocation-light and trivially
//! deterministic.

use hint_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A wired backhaul link behind an AP.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BackhaulSpec {
    /// Serialization rate of the wire, bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay (applied to data and, symmetrically, to
    /// acks on the return path).
    pub delay: SimDuration,
    /// Queue capacity in packets, counting the packet in service. An
    /// arrival that finds `queue_pkts` packets queued is dropped.
    pub queue_pkts: u32,
}

impl Default for BackhaulSpec {
    /// 100 Mbit/s, 2 ms one-way delay, 50-packet queue: a backhaul fast
    /// enough that the air stays the bottleneck.
    fn default() -> Self {
        BackhaulSpec {
            rate_bps: 100_000_000,
            delay: SimDuration::from_millis(2),
            queue_pkts: 50,
        }
    }
}

impl BackhaulSpec {
    /// Reject parameter sets the queue model cannot run: a zero rate
    /// never drains (time stops), and a zero-capacity queue drops every
    /// packet.
    pub fn validate(&self) -> Result<(), String> {
        if self.rate_bps == 0 {
            return Err(
                "backhaul rate_bps must be >= 1: a zero-rate wire never drains its queue"
                    .to_string(),
            );
        }
        if self.queue_pkts == 0 {
            return Err(
                "backhaul queue_pkts must be >= 1: a zero-capacity queue drops every packet"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Time to serialize `bytes` onto the wire, rounded up to the next
    /// microsecond so a packet always occupies the link for nonzero time.
    pub fn tx_time(&self, bytes: u32) -> SimDuration {
        let bits = u64::from(bytes) * 8;
        let us = (bits * 1_000_000).div_ceil(self.rate_bps);
        SimDuration::from_micros(us.max(1))
    }
}

/// A FIFO drop-tail queue in virtual time.
///
/// [`DropTailQueue::offer`] must be called with nondecreasing `now`
/// values (the flow sender emits packets in time order); each call
/// either returns the packet's departure time from the queue or `None`
/// for a tail drop.
#[derive(Clone, Debug)]
pub struct DropTailQueue {
    capacity: usize,
    /// Departure times of packets still in the queue, oldest first.
    departures: VecDeque<SimTime>,
}

impl DropTailQueue {
    /// An empty queue holding at most `capacity` packets.
    pub fn new(capacity: u32) -> DropTailQueue {
        DropTailQueue {
            capacity: capacity as usize,
            departures: VecDeque::new(),
        }
    }

    /// Offer a packet arriving at `now` that needs `tx` of wire time.
    /// Returns its departure time, or `None` if the queue is full
    /// (drop-tail).
    pub fn offer(&mut self, now: SimTime, tx: SimDuration) -> Option<SimTime> {
        while let Some(&front) = self.departures.front() {
            if front <= now {
                self.departures.pop_front();
            } else {
                break;
            }
        }
        if self.departures.len() >= self.capacity {
            return None;
        }
        let start = match self.departures.back() {
            Some(&last) => last.max(now),
            None => now,
        };
        let dep = start + tx;
        self.departures.push_back(dep);
        Some(dep)
    }

    /// Number of packets still queued at `now` (drains first; test aid).
    pub fn occupancy(&mut self, now: SimTime) -> usize {
        while let Some(&front) = self.departures.front() {
            if front <= now {
                self.departures.pop_front();
            } else {
                break;
            }
        }
        self.departures.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn tx_time_rounds_up_and_never_hits_zero() {
        let b = BackhaulSpec {
            rate_bps: 8_000_000, // 1 byte per µs
            delay: SimDuration::ZERO,
            queue_pkts: 10,
        };
        assert_eq!(b.tx_time(1500), d(1500));
        assert_eq!(b.tx_time(1), d(1));
        let fast = BackhaulSpec {
            rate_bps: u64::MAX / 16,
            ..b
        };
        assert!(!fast.tx_time(1).is_zero());
    }

    #[test]
    fn validate_rejects_degenerate_wires() {
        assert!(BackhaulSpec::default().validate().is_ok());
        let stalled = BackhaulSpec {
            rate_bps: 0,
            ..BackhaulSpec::default()
        };
        assert!(stalled.validate().unwrap_err().contains("rate_bps"));
        let black_hole = BackhaulSpec {
            queue_pkts: 0,
            ..BackhaulSpec::default()
        };
        assert!(black_hole.validate().unwrap_err().contains("queue_pkts"));
    }

    #[test]
    fn empty_queue_serializes_immediately() {
        let mut q = DropTailQueue::new(4);
        assert_eq!(q.offer(t(100), d(10)), Some(t(110)));
        // Next packet waits behind the first.
        assert_eq!(q.offer(t(100), d(10)), Some(t(120)));
    }

    #[test]
    fn full_queue_drops_the_tail() {
        let mut q = DropTailQueue::new(2);
        assert!(q.offer(t(0), d(100)).is_some());
        assert!(q.offer(t(0), d(100)).is_some());
        assert_eq!(q.offer(t(0), d(100)), None, "third packet must drop");
        // After the head departs there is room again.
        assert_eq!(q.occupancy(t(100)), 1);
        assert!(q.offer(t(100), d(100)).is_some());
    }

    #[test]
    fn idle_gap_resets_the_busy_period() {
        let mut q = DropTailQueue::new(4);
        assert_eq!(q.offer(t(0), d(10)), Some(t(10)));
        // Arriving long after the queue drained: service starts at
        // arrival, not at the old departure time.
        assert_eq!(q.offer(t(1000), d(10)), Some(t(1010)));
    }

    #[test]
    fn departures_are_fifo_and_deterministic() {
        let run = || {
            let mut q = DropTailQueue::new(8);
            let mut deps = Vec::new();
            for i in 0..50u64 {
                deps.push(q.offer(t(i * 3), d(7)));
            }
            deps
        };
        let a = run();
        assert_eq!(a, run());
        let times: Vec<SimTime> = a.into_iter().flatten().collect();
        for w in times.windows(2) {
            assert!(w[0] < w[1], "departures must be strictly ordered");
        }
    }
}
