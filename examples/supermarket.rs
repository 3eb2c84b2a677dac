//! The supermarket shopper (the paper's motivating example, Ch. 1):
//! "the smartphone user at the supermarket who alternates between standing
//! still in front of product displays and moving between aisles, all the
//! while streaming through the in-store network."
//!
//! We describe exactly that experiment as one `ScenarioBuilder` chain —
//! motion pattern, environment, workload, sensor-pipeline hints — then
//! race all six rate-adaptation protocols over the compiled scenario.
//! Run with:
//!
//! ```text
//! cargo run --release --example supermarket
//! ```

use sensor_hints::rateadapt::protocols::{ProtocolKind, ProtocolParams};
use sensor_hints::rateadapt::scenario::{MotionSpec, ScenarioBuilder};
use sensor_hints::rateadapt::Workload;
use sensor_hints::sim::SimDuration;

fn main() {
    // Six aisles: 8 s browsing + 8 s walking, repeated. `motion_sized`
    // derives the scenario duration from the motion pattern.
    let seed = 1u64;
    let scenario = ScenarioBuilder::new()
        .motion_sized(MotionSpec::Alternating {
            each: SimDuration::from_secs(8),
            n_pairs: 6,
        })
        .seed(seed)
        .workload(Workload::tcp())
        // Hints from the full synthetic-accelerometer + jerk-detector
        // pipeline: real detection latency included.
        .sensor_hints_seeded(seed ^ 0xA15)
        .build()
        .expect("valid supermarket scenario");
    let duration = scenario.spec().duration;

    println!(
        "Supermarket run: {} of alternating browse/walk in '{}'",
        duration,
        scenario.environment().name
    );
    println!();
    println!(
        "{:<12} {:>14} {:>12} {:>10}",
        "protocol", "goodput (Mbps)", "delivered", "attempts"
    );

    let mut results: Vec<(&str, f64)> = Vec::new();
    for kind in ProtocolKind::ALL {
        let mut adapter = kind.build(&ProtocolParams::default());
        let r = scenario.run_with(adapter.as_mut());
        println!(
            "{:<12} {:>14.2} {:>12} {:>10}",
            kind.name(),
            r.goodput_mbps(),
            r.packets_delivered,
            r.attempts
        );
        results.push((kind.name(), r.goodput_bps));
    }

    let hint = results
        .iter()
        .find(|r| r.0 == "HintAware")
        .expect("scored")
        .1;
    let sample = results
        .iter()
        .find(|r| r.0 == "SampleRate")
        .expect("scored")
        .1;
    println!();
    println!(
        "Hint-aware switching beats SampleRate by {:+.0}% on this shopper's \
         mixed-mobility session (paper's Fig. 3-5 band: +23%..+52%).",
        100.0 * (hint / sample - 1.0)
    );
}
