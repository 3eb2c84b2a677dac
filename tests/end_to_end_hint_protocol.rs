//! End-to-end integration: the full hint path of Fig. 2-1.
//!
//! receiver accelerometer → jerk detector → frame hint field → wire
//! bytes → sender's neighbour table → hint-aware rate adaptation. Every
//! hop uses the real implementation; nothing is mocked. The receiver's
//! hint is the engine's one hint stream ([`HintStream::from_sensors`]).

use sensor_hints::channel::{Environment, Trace};
use sensor_hints::mac::hint_proto::{HintField, HintWire};
use sensor_hints::mac::{BitRate, MacTiming};
use sensor_hints::neighbors::NeighborHints;
use sensor_hints::rateadapt::protocols::{HintAware, RapidSample, RateAdapter, SampleRate};
use sensor_hints::rateadapt::HintStream;
use sensor_hints::sensors::MotionProfile;
use sensor_hints::sim::{RngStream, SimDuration, SimTime};

/// The hint field the receiver's frames carry: the movement bit plus the
/// movement TLV.
fn outgoing_hint_field(receiver: &HintStream, now: SimTime) -> HintField {
    HintField::with_tlv(HintWire::Movement(receiver.query(now)))
}

/// Drive a rate adapter over a trace where the movement hint travels the
/// real wire path from a receiver's hint stream. Returns goodput in bps.
fn run_with_wire_hints(trace: &Trace, receiver: &HintStream, use_hints: bool) -> f64 {
    let timing = MacTiming::ieee80211a();
    let mut sample = SampleRate::new();
    let mut hint_aware = HintAware::with_strategies(RapidSample::new(), SampleRate::new());
    let adapter: &mut dyn RateAdapter = if use_hints {
        &mut hint_aware
    } else {
        &mut sample
    };

    let mut neighbor_table: NeighborHints<u8> = NeighborHints::new();
    let mut rng = RngStream::new(trace.seed).derive("e2e-noise");
    let mut now = SimTime::ZERO;
    let end = SimTime::ZERO + trace.duration();
    let mut delivered = 0u64;

    while now < end {
        let rate = adapter.pick_rate(now);
        let ok = trace.fate(now, rate) && !rng.chance(trace.noise_loss);
        now += timing.exchange_airtime(rate, 1000);
        adapter.report(now, rate, ok);

        if ok {
            delivered += 1;
            // The ACK carries the receiver's hint field: encode to the
            // two-byte wire form and decode on the sender side — the full
            // Sec. 2.3 path.
            let field = outgoing_hint_field(receiver, now);
            let wire_bytes = field
                .tlv
                .expect("the receiver always attaches a movement TLV")
                .encode();
            let decoded = HintWire::decode(wire_bytes).expect("valid wire bytes");
            let rx_field = HintField::with_tlv(decoded);
            neighbor_table.on_frame(1, now, &rx_field);
            adapter.report_movement_hint(now, neighbor_table.is_moving(1));
        }
    }
    delivered as f64 * 8000.0 / trace.duration().as_secs_f64()
}

#[test]
fn wire_delivered_hints_beat_hint_free_samplerate_on_mixed_trace() {
    let env = Environment::office();
    let mut hint_total = 0.0;
    let mut plain_total = 0.0;
    for seed in 0..4u64 {
        let profile = MotionProfile::half_and_half(SimDuration::from_secs(10), seed % 2 == 0);
        let trace = Trace::generate(&env, &profile, SimDuration::from_secs(20), 9000 + seed);
        let receiver = HintStream::from_sensors(&profile, trace.duration(), 100 + seed);
        hint_total += run_with_wire_hints(&trace, &receiver, true);
        plain_total += run_with_wire_hints(&trace, &receiver, false);
    }
    // This test validates the *plumbing* — hints crossing the real wire
    // path must reach the adapter and help, not hurt. (Magnitude claims
    // are owned by the Fig. 3-5 harness, which runs the paper's TCP
    // workload with MAC retry chains.)
    assert!(
        hint_total > 1.01 * plain_total,
        "wire-hint HintAware {:.1} Mbps should beat SampleRate {:.1} Mbps",
        hint_total / 4e6,
        plain_total / 4e6
    );
}

#[test]
fn hint_field_wire_roundtrip_preserves_movement_through_table() {
    // Focused wire-path check, both ways: receiver's hint → bytes → table.
    let profile = MotionProfile::static_move_static(
        SimDuration::from_secs(3),
        SimDuration::from_secs(3),
        SimDuration::from_secs(3),
    );
    let receiver = HintStream::from_sensors(&profile, profile.duration(), 7);
    let mut table: NeighborHints<u32> = NeighborHints::new();
    for (secs, moving) in [(1, false), (4, true), (8, false)] {
        let now = SimTime::from_secs(secs);
        assert_eq!(receiver.query(now), moving, "hint at {now}");

        let bytes = outgoing_hint_field(&receiver, now)
            .tlv
            .expect("tlv")
            .encode();
        table.on_frame(
            42,
            now,
            &HintField::with_tlv(HintWire::decode(bytes).expect("valid")),
        );
        assert_eq!(table.is_moving(42), moving, "table at {now}");
    }
}

#[test]
fn legacy_receiver_leaves_sender_in_static_mode() {
    // A hint-oblivious receiver sends plain frames; the hint-aware sender
    // must behave exactly like SampleRate (coexistence, Sec. 2.3).
    let mut ha = HintAware::new();
    let mut table: NeighborHints<u8> = NeighborHints::new();
    for i in 0..100u64 {
        let now = SimTime::from_micros(i * 220);
        table.on_frame(1, now, &HintField::legacy());
        ha.report_movement_hint(now, table.is_moving(1));
        let r = ha.pick_rate(now);
        ha.report(now, r, true);
    }
    assert_eq!(ha.active_name(), "SampleRate");
}

#[test]
fn rate_selection_uses_80211a_rates_only() {
    // Sanity across the whole stack: every rate an adapter can pick maps
    // to a legal 802.11a OFDM rate with consistent airtime.
    let timing = MacTiming::ieee80211a();
    for &r in &BitRate::ALL {
        let air = timing.exchange_airtime(r, 1000);
        assert!(air.as_micros() > 0);
        assert!(air.as_micros() < 2_500, "{r} airtime {air}");
    }
}
