//! # hint-sensors — sensor models and mobility-hint extraction
//!
//! Implements Chapter 2 of *Improving Wireless Network Performance Using
//! Sensor Hints*: the sensors found on commodity mobile devices and the
//! algorithms that turn their raw output into **mobility hints**.
//!
//! The paper's measurements used a Sparkfun serial accelerometer strapped to
//! a laptop; this crate substitutes a synthetic 3-axis force process
//! ([`accelerometer`]) driven by a ground-truth [`motion::MotionProfile`].
//! The *hint extraction* algorithms, however, are implemented exactly as the
//! paper specifies:
//!
//! * [`jerk::MovementDetector`] — Sec. 2.2.1's jerk detector: 2 ms force
//!   reports, two adjacent 5-report averages, squared-difference "jerk"
//!   value, threshold 3, 50-report hysteresis window. Detects transitions
//!   in under 100 ms of simulated time (Fig. 2-2).
//! * [`hints`] — the hint value types (movement, speed) that protocols
//!   consume, and [`gps::Position`], the local plane every client and AP
//!   position lives on.
//! * [`microphone`] — Sec. 5.6's microphone (environment-dynamism) hint.
//!
//! The movement hint is the one hint every simulation path synthesizes.
//! Heading, speed and position hints are set directly by the experiments
//! that use them (ground truth or a scripted value); the paper's heading
//! fusion (Sec. 2.2.2) and its GPS, indoor-speed and Wi-Fi localisation
//! pipelines (Sec. 2.2.3) are not modelled.
//!
//! Downstream crates consume hints either directly (local protocols) or via
//! the over-the-air hint protocol in `hint-mac`.

pub mod accelerometer;
pub mod gps;
pub mod hints;
pub mod jerk;
pub mod microphone;
pub mod motion;

pub use accelerometer::{Accelerometer, ForceReport, ACCEL_REPORT_PERIOD};
pub use hints::{MobilityHints, MovementHint, SpeedHint};
pub use jerk::{MovementDetector, JERK_THRESHOLD};
pub use motion::{MotionProfile, MotionSegment, MotionState, SegmentCursor};
