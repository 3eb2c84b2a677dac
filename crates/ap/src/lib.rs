//! # hint-ap — hint-aware access point policies (Sec. 5.2)
//!
//! Three AP functions the paper improves with mobility hints:
//!
//! * [`association`] — clients pick an AP by *predicted association
//!   lifetime* (heading/speed/position hints + signal) instead of raw
//!   signal strength. A client walking toward a slightly-weaker AP keeps
//!   its association several times longer.
//! * [`scheduler`] — when a mobile client briefly visits, dedicating it a
//!   larger airtime share increases *aggregate* delivered bytes: the
//!   static client's finite batch is merely delayed, while the mobile
//!   client's deliverable window is perishable (Sec. 5.2.1).
//! * [`disassociation`] — the Fig. 5-1 pathology: a departed client's
//!   retries at collapsing rates, under frame-level fairness, starve the
//!   remaining static client for ~10 s until the AP finally prunes. A
//!   movement hint lets the AP quarantine the client immediately and probe
//!   it gently instead.

pub mod association;
pub mod disassociation;
pub mod scheduler;

pub use association::{best_ap, ApCandidate, ClientMotion};
pub use disassociation::{ApSimulator, ClientConfig, DisassociationPolicy, FairnessModel};
pub use scheduler::{simulate_two_client_schedule, ScheduleOutcome, SchedulePolicy};
