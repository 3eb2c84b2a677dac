//! Workspace-wide accounting invariant: for **every** workload variant
//! — open-loop UDP, the retrying TCP model, trace replay, and the
//! closed-loop Flow — the per-second delivery series must sum exactly
//! to `packets_delivered`, whatever the duration (fractional seconds
//! included), seed, motion, or backhaul. This is the property the
//! past-end bucketing bug class violated: deliveries whose completion
//! landed past the trace end vanished from the series while still
//! counting in the total.

use hint_cc::BackhaulSpec;
use hint_channel::{Environment, Trace};
use hint_rateadapt::protocols::RapidSample;
use hint_rateadapt::sim::{LinkSimulator, SimResult};
use hint_rateadapt::workload::Workload;
use hint_sensors::MotionProfile;
use hint_sim::SimDuration;
use proptest::prelude::*;

fn channel_trace(duration_ms: u64, seed: u64, moving: bool) -> Trace {
    let d = SimDuration::from_millis(duration_ms);
    let p = if moving {
        MotionProfile::walking(d, 1.4, 0.0)
    } else {
        MotionProfile::stationary(d)
    };
    Trace::generate(&Environment::office(), &p, d, seed)
}

fn series_sum(res: &SimResult) -> u64 {
    res.delivered_per_second.iter().sum()
}

proptest! {
    /// sum(delivered_per_second) == packets_delivered for every
    /// workload variant, and the series always spans ceil(duration)
    /// seconds.
    #[test]
    fn per_second_series_sums_to_delivered_for_every_workload(
        duration_ms in 300u64..2600,
        seed in 0u64..10_000,
        moving in any::<bool>(),
        slow_wire in any::<bool>(),
    ) {
        let t = channel_trace(duration_ms, seed, moving);
        let expected_len = duration_ms.div_ceil(1000) as usize;

        // UDP (also records the delivered schedule for the replay leg).
        let air = LinkSimulator::from_trace(t.clone());
        let mut rs = RapidSample::new();
        let (udp, recorded) = air.run_recording(&mut rs, &Workload::Udp);
        prop_assert_eq!(series_sum(&udp), udp.packets_delivered, "udp");
        prop_assert_eq!(udp.delivered_per_second.len(), expected_len, "udp len");

        // TCP.
        let mut rs = RapidSample::new();
        let tcp = air.run(&mut rs, &Workload::tcp());
        prop_assert_eq!(series_sum(&tcp), tcp.packets_delivered, "tcp");
        prop_assert_eq!(tcp.delivered_per_second.len(), expected_len, "tcp len");

        // Trace replay of the recorded UDP schedule.
        let mut rs = RapidSample::new();
        let replay = air.run(&mut rs, &Workload::trace(recorded));
        prop_assert_eq!(series_sum(&replay), replay.packets_delivered, "trace");
        prop_assert_eq!(replay.delivered_per_second.len(), expected_len, "trace len");

        // Closed-loop flow, with and without a wired backhaul (the
        // slow wire forces queueing and drops; the invariant must hold
        // on both sides of the bottleneck).
        let mut rs = RapidSample::new();
        let mut sim = LinkSimulator::from_trace(t);
        if slow_wire {
            sim = sim.with_backhaul(BackhaulSpec {
                rate_bps: 2_000_000,
                queue_pkts: 4,
                ..BackhaulSpec::default()
            });
        }
        let flow = sim.run(&mut rs, &Workload::flow());
        prop_assert_eq!(series_sum(&flow), flow.packets_delivered, "flow");
        prop_assert_eq!(flow.delivered_per_second.len(), expected_len, "flow len");
        if !slow_wire {
            prop_assert_eq!(flow.backhaul_dropped, 0, "no wire, no drops");
        }
    }
}
