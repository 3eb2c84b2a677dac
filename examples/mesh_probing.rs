//! Hint-aware topology maintenance on a mesh link (Ch. 4).
//!
//! A mesh node estimates the delivery probability of a marginal link while
//! its neighbour alternates between static and mobile. We compare three
//! probing strategies — always-slow, always-fast, and the paper's
//! hint-adaptive prober — on estimate accuracy *and* probe bandwidth.
//! The trace and the sensor-pipeline hint stream both come from one
//! compiled `Scenario`.
//!
//! ```text
//! cargo run --release --example mesh_probing
//! ```

use sensor_hints::mac::BitRate;
use sensor_hints::rateadapt::scenario::{EnvironmentSpec, HintSpec, MotionSpec, ScenarioSpec};
use sensor_hints::sim::SimDuration;
use sensor_hints::topology::adaptive::{fixed_rate_run, AdaptiveProber};
use sensor_hints::topology::delivery::{actual_series, held_tracking_error};
use sensor_hints::topology::ProbeStream;

fn main() {
    let motion = MotionSpec::Alternating {
        each: SimDuration::from_secs(15),
        n_pairs: 3,
    };
    let duration = motion.implied_duration().expect("self-sizing motion");
    let scenario = ScenarioSpec {
        environment: EnvironmentSpec::MeshEdge,
        motion,
        duration,
        seed: 99,
        hints: HintSpec::Sensors { seed: Some(0x99) },
        ..ScenarioSpec::default()
    }
    .compile()
    .expect("valid mesh-probing scenario");
    println!(
        "Mesh link '{}', {} alternating static/mobile neighbour",
        scenario.environment().name,
        duration
    );

    let stream = ProbeStream::from_trace(scenario.trace(), BitRate::R6, 99);
    let hints = scenario.hints().expect("sensor hints configured");
    let actual = actual_series(&stream);
    let step = SimDuration::from_millis(100);

    println!();
    println!(
        "{:<22} {:>8} {:>16}",
        "strategy", "probes", "tracking error"
    );

    let slow = fixed_rate_run(&stream, 1.0);
    let slow_err = held_tracking_error(&slow, &actual, step).mean();
    let slow_probes = (duration.as_secs_f64() * 1.0) as u64;
    println!(
        "{:<22} {:>8} {:>16.3}",
        "fixed 1 probe/s", slow_probes, slow_err
    );

    let fast = fixed_rate_run(&stream, 10.0);
    let fast_err = held_tracking_error(&fast, &actual, step).mean();
    let fast_probes = (duration.as_secs_f64() * 10.0) as u64;
    println!(
        "{:<22} {:>8} {:>16.3}",
        "fixed 10 probes/s", fast_probes, fast_err
    );

    let run = AdaptiveProber::new().run(&stream, |t| hints.query(t));
    let adaptive_err = held_tracking_error(&run.estimates, &actual, step).mean();
    println!(
        "{:<22} {:>8} {:>16.3}",
        "hint-adaptive (1<->10)", run.probes_sent, adaptive_err
    );

    println!();
    println!(
        "The adaptive prober gets within {:.0}% of always-fast accuracy for \
         {:.1}x less probe traffic — probing fast only while the movement \
         hint is up (Sec. 4.2).",
        100.0 * (adaptive_err - fast_err).abs() / fast_err.max(1e-9),
        fast_probes as f64 / run.probes_sent as f64
    );
}
