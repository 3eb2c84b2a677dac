//! Quickstart: the sensor-hints pipeline in one minute.
//!
//! A phone alternates between standing still and walking. Its synthetic
//! accelerometer feeds the paper's jerk detector, which produces the
//! phone's movement hint stream; the hint field it would stuff into
//! outgoing frames mirrors it. Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sensor_hints::mac::hint_proto::{HintField, HintWire};
use sensor_hints::rateadapt::HintStream;
use sensor_hints::sensors::MotionProfile;
use sensor_hints::sim::{SimDuration, SimTime};

fn main() {
    // Ground truth: still 5 s, walk 5 s, still 5 s.
    let profile = MotionProfile::static_move_static(
        SimDuration::from_secs(5),
        SimDuration::from_secs(5),
        SimDuration::from_secs(5),
    );
    let hints = HintStream::from_sensors(&profile, profile.duration(), 2026);

    println!("time   truth    movement-hint  frame-hint-bytes");
    for half_secs in 0..30u64 {
        let t = SimTime::from_micros(half_secs * 500_000);
        let moving = hints.query(t);
        let field = HintField::with_tlv(HintWire::Movement(moving));
        println!(
            "{:>5}  {:>7}  {:>13}  {:>16}",
            format!("{t}"),
            if profile.is_moving_at(t) {
                "moving"
            } else {
                "static"
            },
            if moving { "moving" } else { "static" },
            field.wire_overhead_bytes(),
        );
    }

    println!();
    println!(
        "The detector answers within ~100-300 ms of each transition, from raw \
         2 ms accelerometer reports, with no per-device calibration — the \
         architecture of Ch. 2 of the paper."
    );
}
