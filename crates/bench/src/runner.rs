//! The parallel experiment engine.
//!
//! Every table/figure module exposes a `report()` that runs the experiment
//! and returns its output as a [`Report`]; this module packages those into
//! named [`Job`]s, executes them on a scoped thread pool (`--jobs N`), and
//! returns the results **in battery order**. Each job seeds its own RNG
//! streams internally, so experiments are independent of scheduling and
//! the concatenated parallel output is byte-identical to a serial run —
//! asserted by `tests/parallel_determinism.rs`.
//!
//! The pool is [`hint_sim::pool::map_ordered`], the same one the fleet
//! engine shards its span arena on.

use crate::report::Report;
use crate::table_5_1;
use crate::{
    ablations, backhaul, contention, etx_overhead, extensions, fig_2_2, fig_3_1, fig_3_x, fig_4_1,
};
use crate::{
    fig_4_2_4_3, fig_4_4_4_5, fig_4_6, fig_5_1, fleet, metro, resilience, route_stability,
    trace_replay,
};
use hint_sim::pool;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// One experiment's finished output plus its wall-clock cost.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Battery job name (`--filter` matches on this).
    pub name: String,
    /// The experiment's complete stdout text.
    pub text: String,
    /// Wall-clock time the job took on its worker.
    pub wall: Duration,
}

/// A named, runnable experiment.
pub struct Job {
    name: &'static str,
    desc: &'static str,
    run: Box<dyn Fn() -> Report + Send + Sync>,
}

impl Job {
    /// Package a report-producing closure as a battery job with a
    /// one-line description (shown by `run_all --list`).
    pub fn new(
        name: &'static str,
        desc: &'static str,
        run: impl Fn() -> Report + Send + Sync + 'static,
    ) -> Job {
        Job {
            name,
            desc,
            run: Box::new(run),
        }
    }

    /// The job's battery name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The job's one-line description.
    pub fn desc(&self) -> &'static str {
        self.desc
    }
}

/// The full experiment battery: every table and figure of the paper's
/// evaluation, plus the ablations and extensions. One job per experiment,
/// in the presentation order of `EXPERIMENTS.md`.
pub fn full_battery() -> Vec<Job> {
    vec![
        Job::new(
            "fig_2_2",
            "Jerk detector over a static/moving/static trace (Fig. 2-2)",
            || fig_2_2::report().0,
        ),
        Job::new(
            "fig_3_1",
            "Conditional loss probability vs lag at 54 Mbit/s (Fig. 3-1)",
            || fig_3_1::report().0,
        ),
        Job::new(
            "fig_3_5",
            "Mixed-mobility TCP throughput, all six protocols (Fig. 3-5)",
            || fig_3_x::report(fig_3_x::Fig3::MixedMobility, 10).0,
        ),
        Job::new(
            "fig_3_6",
            "Mobile TCP throughput, all six protocols (Fig. 3-6)",
            || fig_3_x::report(fig_3_x::Fig3::Mobile, 10).0,
        ),
        Job::new(
            "fig_3_7",
            "Static TCP throughput, all six protocols (Fig. 3-7)",
            || fig_3_x::report(fig_3_x::Fig3::Static, 10).0,
        ),
        Job::new(
            "fig_3_8",
            "Vehicular UDP throughput, all six protocols (Fig. 3-8)",
            || fig_3_x::report(fig_3_x::Fig3::Vehicular, 10).0,
        ),
        Job::new(
            "fig_4_1",
            "Per-second 6 Mbit/s delivery under movement (Fig. 4-1)",
            || fig_4_1::report().0,
        ),
        Job::new(
            "fig_4_2_4_3",
            "Estimate error vs probing rate, static/mobile (Figs. 4-2/4-3)",
            || fig_4_2_4_3::report(20).0,
        ),
        Job::new(
            "fig_4_4_4_5",
            "Delivery tracking by probing rate over time (Figs. 4-4/4-5)",
            || fig_4_4_4_5::report().0,
        ),
        Job::new(
            "fig_4_6",
            "Hint-adaptive prober vs fixed probing (Fig. 4-6)",
            || fig_4_6::report().0,
        ),
        Job::new(
            "etx_overhead",
            "ETX wrong-link worked example and delta sweep (Sec. 4.2)",
            || etx_overhead::report().0,
        ),
        Job::new(
            "table_5_1",
            "Vehicular link duration by heading difference (Table 5.1)",
            || table_5_1::report(15, 100).0,
        ),
        Job::new(
            "route_stability",
            "CTE heading-hint routes vs min-hop lifetimes (Sec. 5.1)",
            || route_stability::report(5).0,
        ),
        Job::new(
            "fig_5_1",
            "Two-client AP collapse when one departs (Fig. 5-1)",
            || fig_5_1::report().0,
        ),
        Job::new(
            "fig_fleet",
            "Multi-client fleet: hint-aware association/handoff (Sec. 5.2)",
            || fleet::report().0,
        ),
        Job::new(
            "fig_contention",
            "Shared-medium contention: aggregate saturation, 1-8 clients/AP",
            || contention::report().0,
        ),
        Job::new(
            "fig_metro",
            "Metro fleet: 224 clients x 32 APs through the scaled engine",
            || metro::report().0,
        ),
        Job::new(
            "fig_resilience",
            "Fault injection: AP outages + hint dropout, legacy vs hint policies",
            || resilience::report().0,
        ),
        Job::new(
            "fig_trace",
            "Record -> replay: a recorded packet schedule across all protocols",
            || trace_replay::report().0,
        ),
        Job::new(
            "fig_backhaul",
            "Closed-loop flows: hint advantage, air-bound vs wire-bound",
            || backhaul::report().0,
        ),
        Job::new(
            "ablation_delta_success",
            "RapidSample delta_success sweep (Sec. 3.1 design choice)",
            || ablations::rapidsample_delta_success_report().0,
        ),
        Job::new(
            "ablation_hint_latency",
            "Hint staleness vs hint-aware goodput (Sec. 3.2)",
            || ablations::hint_latency_report().0,
        ),
        Job::new(
            "ablation_prober_hold_down",
            "Adaptive prober hold-down vs tracking error (Sec. 4.2)",
            || ablations::prober_hold_down_report().0,
        ),
        Job::new(
            "ext_phy_cyclic_prefix",
            "PHY cyclic-prefix selection by GPS lock (Sec. 5.3 sketch)",
            || extensions::phy_cyclic_prefix_report().0,
        ),
        Job::new(
            "ext_phy_frame_cap",
            "PHY frame-length caps under mobility (Sec. 5.3 sketch)",
            || extensions::phy_frame_cap_report().0,
        ),
        Job::new(
            "ext_power_saving",
            "Movement-based radio power saving (Sec. 5.4 sketch)",
            || extensions::power_saving_report().0,
        ),
        Job::new(
            "ext_microphone_dynamism",
            "Microphone-derived environment dynamism hint (Sec. 5.6 sketch)",
            || extensions::microphone_dynamism_report().0,
        ),
    ]
}

/// The CI-sized smoke battery: one cheap experiment per subsystem —
/// sensors (Fig. 2-2), rate adaptation (one trace of one Fig. 3 scenario),
/// topology (one probing trace), the ETX analysis, vehicular (one small
/// network), route stability, the AP scenario (Fig. 5-1 is already a
/// single run), and the multi-client fleet engine.
pub fn smoke_battery() -> Vec<Job> {
    vec![
        Job::new(
            "fig_2_2",
            "Jerk detector over a static/moving/static trace (Fig. 2-2)",
            || fig_2_2::report().0,
        ),
        Job::new(
            "fig_3_5",
            "Mixed-mobility TCP throughput, one trace per environment",
            || fig_3_x::report(fig_3_x::Fig3::MixedMobility, 1).0,
        ),
        Job::new(
            "fig_4_2_4_3",
            "Estimate error vs probing rate, one trace per regime",
            || fig_4_2_4_3::report(1).0,
        ),
        Job::new(
            "etx_overhead",
            "ETX wrong-link worked example and delta sweep (Sec. 4.2)",
            || etx_overhead::report().0,
        ),
        Job::new(
            "table_5_1",
            "Vehicular link duration by heading difference, small fleet",
            || table_5_1::report(1, 30).0,
        ),
        Job::new(
            "route_stability",
            "CTE heading-hint routes vs min-hop lifetimes, one network",
            || route_stability::report(1).0,
        ),
        Job::new(
            "fig_5_1",
            "Two-client AP collapse when one departs (Fig. 5-1)",
            || fig_5_1::report().0,
        ),
        Job::new(
            "fig_fleet",
            "Multi-client fleet: hint-aware association/handoff (Sec. 5.2)",
            || fleet::report().0,
        ),
        Job::new(
            "fig_metro",
            "Metro fleet: 224 clients x 32 APs through the scaled engine",
            || metro::report().0,
        ),
    ]
}

/// Keep only the jobs whose name contains `filter`.
pub fn filter_jobs(jobs: Vec<Job>, filter: &str) -> Vec<Job> {
    jobs.into_iter()
        .filter(|j| j.name.contains(filter))
        .collect()
}

/// Apply an optional `--filter` to a battery, erring (with the list of
/// valid names) when nothing matches — the `run_all` selection step.
pub fn select_jobs(jobs: Vec<Job>, filter: Option<&str>) -> Result<Vec<Job>, String> {
    let names: Vec<&str> = jobs.iter().map(|j| j.name()).collect();
    let selected = match filter {
        Some(f) => filter_jobs(jobs, f),
        None => jobs,
    };
    if selected.is_empty() {
        return Err(format!(
            "no experiment matches filter `{}` (valid names: {})",
            filter.unwrap_or(""),
            names.join(", ")
        ));
    }
    Ok(selected)
}

/// Render the battery index — names and one-line descriptions — as shown
/// by `run_all --list`.
pub fn battery_index(jobs: &[Job]) -> String {
    let width = jobs.iter().map(|j| j.name().len()).max().unwrap_or(0);
    jobs.iter()
        .map(|j| format!("{:<width$}  {}\n", j.name(), j.desc()))
        .collect()
}

/// Run `jobs` on up to `n_jobs` worker threads, invoking `on_report` for
/// each finished report **in battery order** as soon as its whole prefix
/// has completed (so a serial run streams each experiment the moment it
/// lands, and a parallel run streams the longest finished prefix), then
/// return all reports in battery order.
///
/// # Panics
/// Panics if a job panics.
pub fn run_jobs_with(
    jobs: Vec<Job>,
    n_jobs: NonZeroUsize,
    mut on_report: impl FnMut(&ExperimentReport),
) -> Vec<ExperimentReport> {
    let mut reports = Vec::with_capacity(jobs.len());
    pool::map_ordered(
        &jobs,
        n_jobs,
        |job| {
            let start = Instant::now();
            let text = (job.run)().into_text();
            ExperimentReport {
                name: job.name.to_string(),
                text,
                wall: start.elapsed(),
            }
        },
        |_, report| {
            on_report(&report);
            reports.push(report);
        },
    );
    reports
}

/// [`run_jobs_with`] without a streaming sink.
pub fn run_jobs(jobs: Vec<Job>, n_jobs: NonZeroUsize) -> Vec<ExperimentReport> {
    run_jobs_with(jobs, n_jobs, |_| {})
}

/// Convenience for tests: run a battery and concatenate the ordered output.
pub fn battery_output(jobs: Vec<Job>, n_jobs: NonZeroUsize) -> String {
    run_jobs(jobs, n_jobs).into_iter().map(|r| r.text).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    fn tiny_job(name: &'static str, payload: u64) -> Job {
        Job::new(name, "a tiny test job", move || {
            let mut r = Report::new(name);
            // Deterministic per-job RNG stream, as real experiments use.
            let mut rng = hint_sim::RngStream::new(payload);
            crate::rline!(r, "{name}: {}", rng.uniform());
            r
        })
    }

    #[test]
    fn parallel_order_matches_serial() {
        let make = || vec![tiny_job("a", 1), tiny_job("b", 2), tiny_job("c", 3)];
        let serial = battery_output(make(), NonZeroUsize::MIN);
        for n in [2, 3, 8] {
            assert_eq!(battery_output(make(), nz(n)), serial, "jobs={n}");
        }
        assert!(serial.starts_with("a: "));
    }

    #[test]
    fn streaming_sink_sees_battery_order() {
        for n_jobs in [1, 4] {
            let mut seen = Vec::new();
            let reports = run_jobs_with(
                vec![tiny_job("a", 1), tiny_job("b", 2), tiny_job("c", 3)],
                nz(n_jobs),
                |r| seen.push(r.name.clone()),
            );
            assert_eq!(seen, ["a", "b", "c"], "n_jobs={n_jobs}");
            assert_eq!(reports.len(), 3);
        }
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = run_jobs(vec![tiny_job("only", 7)], nz(16));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].name, "only");
    }

    #[test]
    fn empty_battery_returns_empty() {
        assert!(run_jobs(Vec::new(), nz(4)).is_empty());
    }

    #[test]
    fn filter_selects_by_substring() {
        let jobs = filter_jobs(full_battery(), "fig_3");
        let names: Vec<&str> = jobs.iter().map(|j| j.name()).collect();
        assert_eq!(
            names,
            ["fig_3_1", "fig_3_5", "fig_3_6", "fig_3_7", "fig_3_8"]
        );
        assert!(filter_jobs(full_battery(), "nope").is_empty());
    }

    #[test]
    fn batteries_have_expected_sizes() {
        assert_eq!(full_battery().len(), 27);
        assert_eq!(smoke_battery().len(), 9);
    }

    #[test]
    fn every_job_has_a_one_line_description() {
        for job in full_battery().iter().chain(smoke_battery().iter()) {
            assert!(!job.desc().is_empty(), "{} lacks a description", job.name());
            assert!(
                !job.desc().contains('\n'),
                "{} desc not one line",
                job.name()
            );
        }
    }

    #[test]
    fn select_jobs_passes_matches_through() {
        let names: Vec<&str> = select_jobs(full_battery(), Some("fig_3"))
            .expect("matches exist")
            .iter()
            .map(|j| j.name())
            .collect();
        assert_eq!(
            names,
            ["fig_3_1", "fig_3_5", "fig_3_6", "fig_3_7", "fig_3_8"]
        );
        assert_eq!(select_jobs(full_battery(), None).unwrap().len(), 27);
    }

    #[test]
    fn select_jobs_rejects_unknown_filter_with_valid_names() {
        let err = match select_jobs(full_battery(), Some("nope")) {
            Err(e) => e,
            Ok(_) => panic!("unknown filter must be rejected"),
        };
        assert!(err.contains("no experiment matches filter `nope`"));
        assert!(err.contains("fig_2_2"), "error lists valid names: {err}");
        assert!(err.contains("ext_microphone_dynamism"));
    }

    #[test]
    fn battery_index_lists_every_name_and_description() {
        let index = battery_index(&full_battery());
        assert_eq!(index.lines().count(), 27);
        // Aligned two-column format: name, padding, description.
        let width = full_battery().iter().map(|j| j.name().len()).max().unwrap();
        for (line, job) in index.lines().zip(full_battery()) {
            assert!(line.starts_with(job.name()));
            assert_eq!(&line[width..width + 2], "  ");
            assert_eq!(&line[width + 2..], job.desc());
        }
    }
}
