//! # hint-sim — deterministic simulation substrate
//!
//! Shared foundation for every subsystem in the sensor-hints reproduction:
//!
//! * [`time`] — an integer-microsecond simulation clock ([`SimTime`],
//!   [`SimDuration`]) so that protocol timing (RapidSample's millisecond
//!   windows, probe intervals, prune timeouts) is exact and reproducible.
//! * [`rng`] — seeded, splittable random-number streams
//!   ([`rng::RngStream`]) built on xoshiro256++ so that adding a stochastic
//!   component never perturbs the draws of another.
//! * [`stats`] — descriptive statistics used throughout the evaluation:
//!   online mean/variance (Welford), 95% confidence intervals and
//!   percentiles.
//! * [`events`] — a discrete-event queue with stable FIFO ordering among
//!   simultaneous events.
//! * [`series`] — time-series bucketing used to regenerate the paper's
//!   time-axis figures (Figs. 4-1, 4-4..4-6, 5-1).
//! * [`pool`] — the one worker pool ([`pool::map_ordered`]): independent
//!   items run on scoped threads and their results come back in item
//!   order, so the experiment battery and the fleet engine's span arena
//!   produce the same bytes at any worker count.
//!
//! Every simulation itself is **synchronous and single-threaded by
//! design**: the paper's methodology is trace-driven simulation, where
//! determinism and replayability matter far more than wall-clock
//! parallelism. Parallelism lives only in [`pool`], across independent
//! simulations.

pub mod events;
pub mod pool;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use events::{EventQueue, ScheduledEvent};
pub use rng::RngStream;
pub use stats::{ci95, mean, median, percentile, stddev, OnlineStats};
pub use time::{SimDuration, SimTime};
