//! # hint-rateadapt — bit-rate adaptation protocols and their evaluation
//!
//! Chapter 3 of the paper: six 802.11a rate-adaptation protocols behind a
//! single [`RateAdapter`] trait, a trace-driven link simulator replicating
//! the paper's modified-ns-3 methodology, and workload models (saturated
//! UDP, and the lightweight TCP model whose timeouts reproduce the paper's
//! "TCP times out when faced with the high loss rate of the mobile case").
//!
//! Protocols:
//!
//! | Protocol | Kind | Source |
//! |---|---|---|
//! | [`protocols::RapidSample`] | frame-based, mobile-optimised | the paper's contribution (Fig. 3-2) |
//! | [`protocols::SampleRate`]  | frame-based, long (10 s) history | Bicket 2005 |
//! | [`protocols::Rraa`]        | frame-based, short windows | Wong et al. 2006 |
//! | [`protocols::Rbar`]        | SNR-based, instantaneous | Holland et al. 2001 |
//! | [`protocols::Charm`]       | SNR-based, averaged | Judd et al. 2008 |
//! | [`protocols::HintAware`]   | hint-switched RapidSample/SampleRate | the paper's contribution (Sec. 3.2) |
//!
//! The [`scenario`] module is the workspace's **single experiment front
//! door**: a serializable [`scenario::ScenarioSpec`] (environment ×
//! motion × workload × protocol-by-name × hints) compiles into a run —
//! see the `scenario_run` binary for executing JSON spec files. The
//! multi-trace evaluation harness in [`evaluate`] and the Fig. 3-5..3-8
//! experiments in the `hint-bench` crate are built on it.
//!
//! The third workload is recorded rather than synthetic: the [`trace`]
//! module defines a packet-trace format (text and binary), and
//! [`Workload::Trace`] replays one through the simulator —
//! `scenario_run --record PATH` turns any run into such a trace.

pub mod evaluate;
pub mod fleet;
pub mod hintstream;
pub mod protocols;
pub mod scenario;
pub mod sim;
pub mod trace;
pub mod workload;

pub use fleet::{FleetBuilder, FleetOutcome, FleetSpec, HandoffPolicy};
pub use hintstream::HintStream;
pub use protocols::{
    Charm, HintAware, ProtocolKind, ProtocolParams, RapidSample, RateAdapter, Rbar, Rraa,
    SampleRate,
};
pub use scenario::{
    EnvironmentSpec, HintSpec, MotionSpec, ProtocolSpec, Scenario, ScenarioBuilder, ScenarioError,
    ScenarioOutcome, ScenarioSpec,
};
pub use sim::{LinkSimulator, SimResult};
pub use trace::{Direction, PacketRecord, PacketTrace, TraceError};
pub use workload::{TcpConfig, TraceSource, Workload};
