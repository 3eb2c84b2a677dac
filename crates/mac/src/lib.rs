//! # hint-mac — 802.11a link layer and the hint wire protocol
//!
//! The paper's experiments run over 802.11a: a sender cycling 1000-byte
//! packets through the eight OFDM bit rates, link-layer ACKs deciding
//! success, and the **Hint Protocol** (Sec. 2.3) carrying sensor hints in
//! otherwise-unused frame bits or a two-byte `(hintType, hintVal)` field.
//!
//! This crate provides that substrate:
//!
//! * [`rates`] — the eight 802.11a OFDM bit rates with their modulation
//!   parameters and packet-reception SNR thresholds.
//! * [`timing`] — exact PHY/MAC airtime arithmetic (preamble, OFDM symbol
//!   packing, SIFS/DIFS, contention backoff, ACK exchanges) used by the
//!   throughput simulators.
//! * [`hint_proto`] — the over-the-air hint encoding: a movement bit
//!   stuffed into ACK flags and the general two-byte TLV hint field, with
//!   graceful coexistence with hint-oblivious legacy nodes.
//! * [`retry`] — the retry-chain policy used by the AP model.
//! * [`contention`] — the CSMA/CA airtime arbiter: DIFS + slotted
//!   backoff + collision/retry accounting over a scheduling epoch, used
//!   by the fleet engine to make co-associated clients share their AP's
//!   medium instead of running isolated links.
//! * [`phy_adapt`] — hint-driven PHY parameter adaptation (Sec. 5.3):
//!   cyclic-prefix selection from the GPS-lock hint and frame-size capping
//!   from the speed hint.

pub mod contention;
pub mod hint_proto;
pub mod phy_adapt;
pub mod rates;
pub mod retry;
pub mod timing;

pub use contention::{
    AirtimeArbiter, ContentionParams, ContentionParamsError, Grant, GrantSchedule, Station,
};
pub use hint_proto::{HintField, HintType, HintWire};
pub use rates::BitRate;
pub use timing::{MacTiming, MAX_MSDU_BYTES};
