//! # sensor-hints — the hint-aware wireless architecture
//!
//! A Rust reproduction of *Improving Wireless Network Performance Using
//! Sensor Hints* (NSDI 2011 / MIT MS thesis, Ravindranath et al.).
//!
//! The paper's architecture (Ch. 2, Fig. 2-1): sensors on commodity
//! devices — accelerometer, GPS, compass, gyroscope — feed **hints** about
//! the device's mobility directly into the wireless networking stack,
//! where protocols at every layer adapt to them; the **Hint Protocol**
//! (Sec. 2.3) carries hints over the air so a sender can adapt to its
//! *receiver's* mobility.
//!
//! This crate is the architectural glue plus a curated re-export of every
//! subsystem built for the reproduction:
//!
//! | Module | Implements |
//! |---|---|
//! | [`neighbors`] | Per-neighbour hint tables fed by received frames |
//! | [`power`]   | Movement-based radio power saving (Sec. 5.4) |
//! | [`fleet`]   | The multi-client fleet engine |
//! | [`sim`], [`sensors`], [`channel`], [`mac`], [`rateadapt`], [`topology`], [`vehicular`], [`ap`] | The substrate crates, re-exported |
//!
//! ## Quickstart
//!
//! A phone's movement hint is one stream: its accelerometer feeds the
//! jerk detector ([`rateadapt::HintStream::from_sensors`]), and each
//! frame's hint field carries the stream's current value.
//!
//! ```
//! use sensor_hints::mac::hint_proto::{HintField, HintWire};
//! use sensor_hints::rateadapt::HintStream;
//! use sensor_hints::sensors::MotionProfile;
//! use sensor_hints::sim::{SimDuration, SimTime};
//!
//! // A phone that is still for 5 s, walks for 5 s, then stops again.
//! let profile = MotionProfile::static_move_static(
//!     SimDuration::from_secs(5),
//!     SimDuration::from_secs(5),
//!     SimDuration::from_secs(5),
//! );
//! let hints = HintStream::from_sensors(&profile, profile.duration(), 42);
//! let moving = hints.query(SimTime::from_secs(7)); // mid-walk
//! assert!(moving);
//! // The hint ships in the frame's hint field: ACK bit plus TLV.
//! let field = HintField::with_tlv(HintWire::Movement(moving));
//! assert_eq!(field.movement_hint(), Some(true));
//! ```

pub mod fleet;
pub mod neighbors;
pub mod power;

/// Deterministic simulation substrate (clock, RNG, statistics, events).
pub use hint_sim as sim;

/// Sensor models and mobility-hint extraction (Ch. 2).
pub use hint_sensors as sensors;

/// Channel models and replayable packet-fate traces (Sec. 3.3).
pub use hint_channel as channel;

/// 802.11a link layer and the hint wire protocol (Sec. 2.3).
pub use hint_mac as mac;

/// Bit-rate adaptation protocols and evaluation (Ch. 3).
pub use hint_rateadapt as rateadapt;

/// Hint-aware topology maintenance (Ch. 4).
pub use hint_topology as topology;

/// Vehicular mesh and CTE route selection (Sec. 5.1).
pub use hint_vehicular as vehicular;

/// Hint-aware access point policies (Sec. 5.2).
pub use hint_ap as ap;

pub use fleet::FleetScenario;
pub use neighbors::NeighborHints;
