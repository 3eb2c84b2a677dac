//! # hint-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation, each exposing a
//! `report()` that regenerates the result and returns it as a buffered
//! [`report::Report`] plus the same rows/series the paper reports (see
//! EXPERIMENTS.md for the experiment index and paper-vs-measured values).
//! The one entry point is `run_all`, which executes the battery through
//! the [`runner`] job engine (`--jobs N`, `--filter <job>` for one
//! experiment); its parallel output is byte-identical to a serial run.
//! A new experiment is a `report()` plus a [`runner::Job`] in
//! [`runner::full_battery`].
//!
//! Shape, not absolute numbers: the substrate is a synthetic channel, not
//! the authors' testbed, so each experiment checks *who wins, by roughly
//! what factor, and where crossovers fall*.

pub mod ablations;
pub mod backhaul;
pub mod contention;
pub mod etx_overhead;
pub mod extensions;
pub mod fig_2_2;
pub mod fig_3_1;
pub mod fig_3_x;
pub mod fig_4_1;
pub mod fig_4_2_4_3;
pub mod fig_4_4_4_5;
pub mod fig_4_6;
pub mod fig_5_1;
pub mod fleet;
pub mod metro;
pub mod report;
pub mod resilience;
pub mod route_stability;
pub mod runner;
pub mod table_5_1;
pub mod trace_replay;
pub mod util;
