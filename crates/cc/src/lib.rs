//! # hint-cc — closed-loop flow layer
//!
//! The link simulator's other traffic models are open-loop:
//! `Workload::Tcp` is a window heuristic that never sees a queue, and the
//! wireless hop is the only place a packet can be delayed or lost. That
//! model stays for the paper's TCP figures (Figs. 3-5…3-7), which rest on
//! its timeout punishment of bursty loss. This crate supplies the
//! pieces of a *closed-loop* flow — the style of ns-2 and FlowForge's
//! `LossyWindowSender` — so the bottleneck can sit on the wired backhaul
//! behind the AP instead of on the air:
//!
//! * [`controller`] — the object-safe [`CongestionController`] trait plus
//!   the two baseline controllers: [`Reno`] (slow start + AIMD) and
//!   [`FixedWindow`] (a congestion-blind constant window).
//! * [`cca`] — [`CcaSpec`] names a controller in serialized specs, and
//!   [`CcaSpec::build`] makes it (case-insensitive lookup, an
//!   unknown-name error that lists the known names).
//! * [`rtt`] — Jacobson/Karels RTT estimation ([`RttEstimator`]) in
//!   integer microseconds, feeding retransmission timeouts.
//! * [`backhaul`] — [`BackhaulSpec`] (rate / propagation delay / queue
//!   depth) and the deterministic FIFO [`DropTailQueue`] that models the
//!   AP's wired uplink.
//!
//! Everything here is pure integer-or-f64 arithmetic on
//! [`hint_sim::SimTime`]: no RNG, no wall clock, no I/O — the sender loop
//! in `hint_rateadapt::LinkSimulator::run` stays byte-identical at any
//! `--jobs` because this layer adds no draws of its own.

pub mod backhaul;
pub mod cca;
pub mod controller;
pub mod rtt;

pub use backhaul::{BackhaulSpec, DropTailQueue};
pub use cca::CcaSpec;
pub use controller::{CongestionController, FixedWindow, Reno};
pub use rtt::RttEstimator;
