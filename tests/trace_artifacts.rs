//! Integration: traces are replayable artifacts, as in the paper's
//! methodology — save, load, and replay must give identical results.

use sensor_hints::channel::{Environment, Trace};
use sensor_hints::rateadapt::protocols::RapidSample;
use sensor_hints::rateadapt::{HintStream, LinkSimulator, Workload};
use sensor_hints::sensors::MotionProfile;
use sensor_hints::sim::SimDuration;

fn mixed_trace(seed: u64) -> (Trace, MotionProfile) {
    let profile = MotionProfile::half_and_half(SimDuration::from_secs(5), true);
    let trace = Trace::generate(
        &Environment::hallway(),
        &profile,
        SimDuration::from_secs(10),
        seed,
    );
    (trace, profile)
}

#[test]
fn saved_trace_replays_identically() {
    let (trace, profile) = mixed_trace(12345);
    let dir = std::env::temp_dir().join("sensor-hints-it");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("mixed.json");
    trace.save(&path).expect("save");
    let loaded = Trace::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded.len(), trace.len());
    assert_eq!(loaded.seed, trace.seed);
    assert_eq!(loaded.noise_loss, trace.noise_loss);

    let hints = HintStream::oracle(&profile, SimDuration::from_secs(10), SimDuration::ZERO);
    let run = |t: Trace| {
        let mut rs = RapidSample::new();
        LinkSimulator::from_trace(t)
            .with_owned_hints(hints.clone())
            .run(&mut rs, &Workload::Udp)
    };
    let a = run(trace);
    let b = run(loaded);
    assert_eq!(a.packets_delivered, b.packets_delivered);
    assert_eq!(a.goodput_bps, b.goodput_bps);
    assert_eq!(a.rate_usage, b.rate_usage);
}

#[test]
fn full_pipeline_is_deterministic() {
    // Same seeds ⇒ bit-identical goodput, twice, through trace
    // generation + sensor hints + TCP simulation.
    let run = || {
        let (trace, profile) = mixed_trace(777);
        let hints = HintStream::from_sensors(&profile, SimDuration::from_secs(10), 778);
        let mut rs = RapidSample::new();
        LinkSimulator::from_trace(trace)
            .with_owned_hints(hints)
            .run(&mut rs, &Workload::tcp())
            .goodput_bps
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let (a, _) = mixed_trace(1);
    let (b, _) = mixed_trace(2);
    let differs = a
        .slots
        .iter()
        .zip(&b.slots)
        .any(|(x, y)| x.fates != y.fates);
    assert!(differs);
}

#[test]
fn trace_ground_truth_matches_profile() {
    let (trace, profile) = mixed_trace(42);
    for (i, slot) in trace.slots.iter().enumerate() {
        let t = sensor_hints::sim::SimTime::from_micros(i as u64 * 5000);
        assert_eq!(slot.moving, profile.is_moving_at(t), "slot {i}");
        assert_eq!(slot.speed_mps, profile.speed_at(t), "slot {i}");
    }
}
