//! # hint-topology — hint-aware topology maintenance (Ch. 4)
//!
//! Mesh and infrastructure networks estimate per-neighbour link delivery
//! probabilities from periodic probes. The probing rate trades accuracy
//! against bandwidth: Ch. 4 measures that a **mobile** link needs roughly
//! **20× the probing rate** of a static one to hold the estimate within
//! 5–10% of truth, then builds a protocol that probes fast *only while the
//! movement hint is raised*.
//!
//! * [`probes`] — the 200 probe/s reference stream and its sub-sampling
//!   (the paper's measurement method).
//! * [`delivery`] — sliding-window delivery-probability estimation, the
//!   "actual" series, and estimate-vs-actual error (Figs. 4-1..4-5).
//! * [`adaptive`] — the hint-aware prober: 1 probe/s static ↔ 10 probes/s
//!   moving, with a one-second hold-down after movement stops (Fig. 4-6).
//! * [`etx`] — the ETX route metric and the Sec. 4.2 wrong-link overhead
//!   analysis (a δ = 0.25 estimate error can cost ~42% extra transmissions
//!   on a hop).
//! * [`spatial`] — a uniform-grid index over coverage disks, so a
//!   metro-scale fleet scan consults only the APs near the client
//!   instead of every AP in the deployment (exact-equivalent to the
//!   brute-force scan, property-tested).

pub mod adaptive;
pub mod delivery;
pub mod etx;
pub mod probes;
pub mod spatial;

pub use adaptive::{AdaptiveProber, ProbingMode};
pub use delivery::{DeliveryEstimator, WINDOW_PROBES};
pub use probes::{ProbeStream, FULL_PROBE_RATE_HZ};
pub use spatial::{Disk, DiskIndex};
