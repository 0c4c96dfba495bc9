//! Factorial benchmark campaigns: the paper's full experiment matrix as one
//! first-class object.
//!
//! Meterstick's evaluation is a *matrix* of experiments — workloads ×
//! server flavors × deployment environments × iterations (Figure 5 runs the
//! same procedure for every combination), and the sharded tick pipeline
//! adds a `tick_threads` axis (worker threads inside one server — results
//! are bit-identical across it, only wall-clock time changes). A
//! [`Campaign`] composes the whole sweep declaratively:
//!
//! ```
//! use meterstick::campaign::Campaign;
//! use meterstick_workloads::WorkloadKind;
//! use mlg_server::ServerFlavor;
//! use cloud_sim::environment::Environment;
//!
//! let results = Campaign::new()
//!     .workloads([WorkloadKind::Control, WorkloadKind::Players])
//!     .flavors([ServerFlavor::Vanilla, ServerFlavor::Paper])
//!     .environments([Environment::das5(2)])
//!     .iterations(2)
//!     .duration_secs(2)
//!     .run()
//!     .expect("valid campaign");
//! assert_eq!(results.iterations().len(), 2 * 2 * 1 * 2);
//! ```
//!
//! The campaign expands into a plan of independent, individually seeded
//! [`IterationJob`]s. Jobs share no mutable state and derive all their
//! randomness from their seed, so any [`Executor`] — sequential or
//! thread-based — produces bit-identical results for the same plan.
//! Attached [`ResultSink`]s observe each result as it completes, which lets
//! reports stream instead of materializing the full result set first.
//!
//! The grid has seven sweep axes, declared once in [`Axis`]: plan order,
//! the name an empty axis is reported under, and the weight its coordinate
//! carries in the one seed formula (documented there). A job's position is
//! a [`CellCoord`], read per axis:
//!
//! ```
//! use meterstick::campaign::{Axis, Campaign};
//! use meterstick_workloads::WorkloadKind;
//!
//! let plan = Campaign::new()
//!     .workloads([WorkloadKind::Control, WorkloadKind::Tnt])
//!     .tick_threads([1, 4])
//!     .plan()
//!     .expect("valid campaign");
//! // 2 workloads × 1 environment × 3 flavors × 2 thread counts.
//! let last = plan.jobs().last().expect("a non-empty plan");
//! assert_eq!(last.coord[Axis::Workload], 1);
//! assert_eq!(last.coord[Axis::Flavor], 2);
//! assert_eq!(last.coord[Axis::TickThreads], 1);
//! // Thread count carries no seed weight: same cell, same seed.
//! assert_eq!(last.seed, plan.jobs()[plan.jobs().len() - 2].seed);
//! ```
//!
//! [`Executor`]: crate::executor::Executor
//! [`ResultSink`]: crate::sink::ResultSink

use std::ops::{Index, IndexMut};

use cloud_sim::environment::Environment;
use cloud_sim::temporal::StartTime;
use meterstick_workloads::{WorkloadKind, WorkloadSpec};
use mlg_protocol::netsim::LinkConfig;
use mlg_server::ServerFlavor;

use crate::config::{BenchmarkConfig, MetricsWindow};
use crate::error::BenchmarkError;
use crate::executor::{Executor, SequentialExecutor};
use crate::experiment::{execute_iteration_observed, NoopTickObserver};
use crate::results::IterationResult;
use crate::sink::{NullSink, ResultSink};

pub use crate::results::{CampaignResults, CellSummary};

/// One sweep axis of the factorial grid. This enum is the single table of
/// axes: [`Axis::ALL`] is plan order (first axis slowest, last fastest),
/// [`Axis::name`] is what an empty axis is reported as, and each axis has
/// a seed weight that says whether — and how strongly — its coordinate
/// perturbs job seeds: `15_485_863` for `Workload`, `32_452_843` for
/// `Environment`, `1_000_003` for `Flavor`, 0 for the rest.
///
/// Every job seed is
/// `base · 0x9E37_79B9_7F4A_7C15 + Σ weight(axis) · coord[axis] + 7_919 · iteration`
/// (wrapping). Seeds therefore depend only on grid position, never on
/// execution order, which is what makes parallel execution bit-identical
/// to sequential execution. The four weight-0 axes are *seed-paired*:
/// `TickThreads` because thread count is execution infrastructure and must
/// never change results; `ShardRebalance`, `EagerLighting` and `StartTime`
/// because architectures (and points of the week) are compared on
/// identical worlds, bots and interference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// The workload worlds ([`Campaign::workloads`]).
    Workload,
    /// The deployment environments ([`Campaign::environments`]).
    Environment,
    /// The server flavors under test ([`Campaign::flavors`]).
    Flavor,
    /// Tick-pipeline worker threads ([`Campaign::tick_threads`]).
    TickThreads,
    /// Adaptive shard rebalancing on/off ([`Campaign::shard_rebalance`]).
    ShardRebalance,
    /// Eager vs pipelined lighting ([`Campaign::eager_lighting`]).
    EagerLighting,
    /// Start of the iteration within the simulated week
    /// ([`Campaign::start_times`]).
    StartTime,
}

impl Axis {
    /// Every axis, in plan order.
    pub const ALL: [Axis; 7] = [
        Axis::Workload,
        Axis::Environment,
        Axis::Flavor,
        Axis::TickThreads,
        Axis::ShardRebalance,
        Axis::EagerLighting,
        Axis::StartTime,
    ];

    /// The table proper: name and seed weight of each axis.
    const fn row(self) -> (&'static str, u64) {
        match self {
            Axis::Workload => ("workloads", 15_485_863),
            Axis::Environment => ("environments", 32_452_843),
            Axis::Flavor => ("flavors", 1_000_003),
            Axis::TickThreads => ("tick_threads", 0),
            Axis::ShardRebalance => ("shard_rebalance", 0),
            Axis::EagerLighting => ("eager_lighting", 0),
            Axis::StartTime => ("start_times", 0),
        }
    }

    /// The axis name, as reported by [`BenchmarkError::EmptyDimension`].
    #[must_use]
    pub const fn name(self) -> &'static str {
        self.row().0
    }

    /// The weight of this axis' coordinate in a job seed; 0 for the
    /// seed-paired axes.
    const fn seed_weight(self) -> u64 {
        self.row().1
    }
}

/// Position of a cell in the campaign's factorial grid: one index per
/// [`Axis`] into that axis' value list, read as `coord[Axis::Environment]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CellCoord([usize; Axis::ALL.len()]);

impl CellCoord {
    /// The `cell`-th coordinate of a grid with `lens[axis]` values per
    /// axis, counting like an odometer: the last axis turns fastest.
    fn nth(lens: &CellCoord, mut cell: usize) -> CellCoord {
        let mut coord = CellCoord::default();
        for &axis in Axis::ALL.iter().rev() {
            coord[axis] = cell % lens[axis];
            cell /= lens[axis];
        }
        coord
    }
}

impl Index<Axis> for CellCoord {
    type Output = usize;

    fn index(&self, axis: Axis) -> &usize {
        &self.0[axis as usize]
    }
}

impl IndexMut<Axis> for CellCoord {
    fn index_mut(&mut self, axis: Axis) -> &mut usize {
        &mut self.0[axis as usize]
    }
}

/// One independently executable unit of a campaign: a single iteration of a
/// single (workload, environment, flavor) cell, with its own derived seed.
///
/// Jobs are self-contained — [`IterationJob::run`] needs no shared state —
/// which is what makes thread-based executors safe and deterministic.
#[derive(Debug, Clone)]
pub struct IterationJob {
    /// Position of this job in the plan (stable result ordering).
    pub index: usize,
    /// Which grid cell the job belongs to.
    pub coord: CellCoord,
    /// The cell's configuration: the campaign's scalar knobs plus the
    /// value each non-flavor axis holds at `coord`.
    pub config: BenchmarkConfig,
    /// The server flavor under test.
    pub flavor: ServerFlavor,
    /// Iteration number within the cell (0-based).
    pub iteration: u32,
    /// Seed for all environment and bot randomness of this iteration.
    pub seed: u64,
}

impl IterationJob {
    /// Executes the iteration and returns its result.
    #[must_use]
    pub fn run(&self) -> IterationResult {
        execute_iteration_observed(
            &self.config,
            self.flavor,
            self.iteration,
            self.seed,
            &mut NoopTickObserver,
        )
    }

    /// Human-readable job label, e.g. `"TNT × PaperMC @ AWS 2-core #1"`
    /// (plus a thread suffix for multi-threaded tick pipelines).
    #[must_use]
    pub fn label(&self) -> String {
        let config = &self.config;
        let mut label = format!(
            "{} × {} @ {}",
            config.workload.kind,
            self.flavor,
            config.environment.label()
        );
        if config.tick_threads > 1 {
            label += &format!(" [{}thr]", config.tick_threads);
        }
        label += override_label(config.shard_rebalance, " [rebal]", " [static]", "");
        label += override_label(config.eager_lighting, " [eager]", " [pipelined]", "");
        if config.start_time != StartTime::default() {
            label += &format!(" [{}]", config.start_time);
        }
        label + &format!(" #{}", self.iteration)
    }
}

/// How an architecture override (`None` = flavor default) is spelled in a
/// job label or a CSV cell.
pub(crate) fn override_label<'a>(
    setting: Option<bool>,
    on: &'a str,
    off: &'a str,
    default: &'a str,
) -> &'a str {
    match setting {
        Some(true) => on,
        Some(false) => off,
        None => default,
    }
}

/// A validated, fully expanded campaign: the job list.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    jobs: Vec<IterationJob>,
}

impl CampaignPlan {
    /// The jobs in plan order (workload-major, then environment, flavor,
    /// iteration).
    #[must_use]
    pub fn jobs(&self) -> &[IterationJob] {
        &self.jobs
    }
}

/// Builder for a factorial benchmark sweep.
///
/// Dimensions default to the paper's setup — all three flavors on the AWS
/// `t3.large` environment — but `workloads` has no default: an empty
/// workload list (like any empty dimension) makes [`Campaign::run`] return
/// [`BenchmarkError::EmptyDimension`] rather than silently running nothing.
///
/// # Quickstart
///
/// Declare the matrix, run it, inspect per-cell summaries:
///
/// ```
/// use cloud_sim::environment::Environment;
/// use meterstick::campaign::Campaign;
/// use meterstick_workloads::WorkloadKind;
/// use mlg_server::ServerFlavor;
///
/// let results = Campaign::new()
///     .workloads([WorkloadKind::Control])
///     .flavors([ServerFlavor::Vanilla, ServerFlavor::Paper])
///     .environments([Environment::das5(2)])
///     .duration_secs(2)
///     .iterations(1)
///     .run()
///     .expect("the campaign configuration is valid");
/// // One iteration per (workload × flavor × environment) cell.
/// assert_eq!(results.iterations().len(), 2);
/// assert_eq!(results.cell_summaries().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Scalar knobs every job shares; its axis-valued members are
    /// placeholders that `cell_config` overwrites.
    template: BenchmarkConfig,
    iterations: u32,
    workloads: Vec<WorkloadSpec>,
    environments: Vec<Environment>,
    flavors: Vec<ServerFlavor>,
    tick_threads: Vec<u32>,
    shard_rebalance: Vec<Option<bool>>,
    eager_lighting: Vec<Option<bool>>,
    start_times: Vec<StartTime>,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign::new()
    }
}

impl Campaign {
    /// Creates an empty campaign with the paper's defaults (Table 4): all
    /// three flavors, the AWS `t3.large` environment, one 60-second
    /// iteration per cell. Add at least one workload before running.
    #[must_use]
    pub fn new() -> Self {
        let template = BenchmarkConfig::new(WorkloadKind::Control);
        Campaign {
            iterations: 1,
            workloads: Vec::new(),
            environments: vec![template.environment.clone()],
            flavors: ServerFlavor::all().to_vec(),
            tick_threads: vec![template.tick_threads],
            shard_rebalance: vec![template.shard_rebalance],
            eager_lighting: vec![template.eager_lighting],
            start_times: vec![template.start_time],
            template,
        }
    }

    /// Replaces the workload dimension with plain workload kinds (default
    /// scale).
    #[must_use]
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = WorkloadKind>) -> Self {
        self.workloads = workloads.into_iter().map(WorkloadSpec::new).collect();
        self
    }

    /// Replaces the workload dimension with full specs (kind + scale knob).
    #[must_use]
    pub fn workload_specs(mut self, specs: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads = specs.into_iter().collect();
        self
    }

    /// Replaces the server-flavor dimension.
    #[must_use]
    pub fn flavors(mut self, flavors: impl IntoIterator<Item = ServerFlavor>) -> Self {
        self.flavors = flavors.into_iter().collect();
        self
    }

    /// Replaces the environment dimension.
    #[must_use]
    pub fn environments(mut self, environments: impl IntoIterator<Item = Environment>) -> Self {
        self.environments = environments.into_iter().collect();
        self
    }

    /// Replaces the tick-thread dimension: each value runs the whole grid
    /// with that many worker threads inside the server's sharded tick
    /// pipeline. Results are bit-identical across this axis (seeds do not
    /// depend on it); sweeping it exists to *demonstrate* that identity and
    /// to measure wall-clock scaling. A thread count of 0 is a plan error.
    #[must_use]
    pub fn tick_threads(mut self, threads: impl IntoIterator<Item = u32>) -> Self {
        self.tick_threads = threads.into_iter().collect();
        self
    }

    /// Replaces the shard-rebalance dimension: each value runs the whole
    /// grid with adaptive shard rebalancing forced on or off (overriding
    /// the flavor default; serial flavors with `tick_shards <= 1` have no
    /// partition to rebalance and ignore the setting, so sweep this axis
    /// over sharded flavors). Unlike `tick_threads`, this is a
    /// *modeled-architecture* axis — results legitimately differ across it
    /// — but it is seed-paired just the same (see [`Axis`]).
    #[must_use]
    pub fn shard_rebalance(mut self, settings: impl IntoIterator<Item = bool>) -> Self {
        self.shard_rebalance = settings.into_iter().map(Some).collect();
        self
    }

    /// Replaces the eager-lighting dimension: each value runs the whole
    /// grid with lighting forced eager (`true`, relit inside the terrain
    /// stage) or pipelined (`false`, deferred one tick and overlapped with
    /// the next tick's player stage), overriding the flavor default. A
    /// seed-paired *modeled-architecture* axis, like `shard_rebalance`.
    #[must_use]
    pub fn eager_lighting(mut self, settings: impl IntoIterator<Item = bool>) -> Self {
        self.eager_lighting = settings.into_iter().map(Some).collect();
        self
    }

    /// Replaces the start-time dimension: each value runs the whole grid
    /// starting at that point of the simulated week. Only environments with
    /// a non-flat temporal (tenancy) profile respond to it. Seed-paired: a
    /// comparison of *when*, not *where*.
    #[must_use]
    pub fn start_times(mut self, start_times: impl IntoIterator<Item = StartTime>) -> Self {
        self.start_times = start_times.into_iter().collect();
        self
    }

    /// Enables windowed (long-horizon) metric aggregation for every job:
    /// iterations fold ticks through a bounded streaming aggregator instead
    /// of retaining the full trace. Not a sweep axis — a scalar knob like
    /// `duration_secs`.
    #[must_use]
    pub fn metrics_window(mut self, window_ticks: u32, max_windows: u32) -> Self {
        self.template.metrics_window = Some(MetricsWindow {
            window_ticks: window_ticks.max(1),
            max_windows: max_windows.max(1),
        });
        self
    }

    /// Sets the number of iterations per cell.
    #[must_use]
    pub fn iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the iteration duration in virtual seconds.
    #[must_use]
    pub fn duration_secs(mut self, secs: u64) -> Self {
        self.template.duration_secs = secs;
        self
    }

    /// Overrides the number of emulated players for every cell.
    #[must_use]
    pub fn bots(mut self, bots: u32) -> Self {
        self.template.bots_override = Some(bots);
        self
    }

    /// Sets the base seed every job seed derives from.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.template.base_seed = seed;
        self
    }

    /// Sets the network link between player emulation and the server.
    #[must_use]
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.template.link = link;
        self
    }

    /// Number of values on one sweep axis.
    fn axis_len(&self, axis: Axis) -> usize {
        match axis {
            Axis::Workload => self.workloads.len(),
            Axis::Environment => self.environments.len(),
            Axis::Flavor => self.flavors.len(),
            Axis::TickThreads => self.tick_threads.len(),
            Axis::ShardRebalance => self.shard_rebalance.len(),
            Axis::EagerLighting => self.eager_lighting.len(),
            Axis::StartTime => self.start_times.len(),
        }
    }

    /// The configuration of the cell at `coord`: the template with every
    /// axis-valued member replaced by the value the coordinate names. (The
    /// flavor is not a config member; it travels on the job.)
    fn cell_config(&self, coord: CellCoord) -> BenchmarkConfig {
        BenchmarkConfig {
            workload: self.workloads[coord[Axis::Workload]],
            environment: self.environments[coord[Axis::Environment]].clone(),
            tick_threads: self.tick_threads[coord[Axis::TickThreads]],
            shard_rebalance: self.shard_rebalance[coord[Axis::ShardRebalance]],
            eager_lighting: self.eager_lighting[coord[Axis::EagerLighting]],
            start_time: self.start_times[coord[Axis::StartTime]],
            ..self.template.clone()
        }
    }

    /// Number of grid cells: the product of the sweep axes' lengths.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        Axis::ALL.iter().map(|&axis| self.axis_len(axis)).product()
    }

    /// Number of jobs the plan will contain (cells × iterations).
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.cell_count() * self.iterations as usize
    }

    /// Rejects out-of-range scalars.
    fn check_scalars(&self) -> Result<(), BenchmarkError> {
        let (parameter, reason) = if self.template.duration_secs == 0 {
            ("duration_secs", "must be at least 1 virtual second")
        } else if self.tick_threads.contains(&0) {
            ("tick_threads", "must be at least 1 worker thread")
        } else {
            return Ok(());
        };
        let reason = reason.into();
        Err(BenchmarkError::InvalidParameter { parameter, reason })
    }

    /// Validates the campaign and expands it into independent, seeded jobs
    /// in [`Axis::ALL`] lexicographic order, iterations innermost.
    ///
    /// # Errors
    ///
    /// Returns [`BenchmarkError::EmptyDimension`] when any sweep dimension
    /// is empty and [`BenchmarkError::InvalidParameter`] for out-of-range
    /// scalars.
    pub fn plan(&self) -> Result<CampaignPlan, BenchmarkError> {
        let mut lens = CellCoord::default();
        for axis in Axis::ALL {
            lens[axis] = self.axis_len(axis);
            if lens[axis] == 0 {
                let dimension = axis.name();
                return Err(BenchmarkError::EmptyDimension { dimension });
            }
        }
        if self.iterations == 0 {
            let dimension = "iterations";
            return Err(BenchmarkError::EmptyDimension { dimension });
        }
        self.check_scalars()?;

        let mut jobs = Vec::with_capacity(self.job_count());
        for cell in 0..self.cell_count() {
            let coord = CellCoord::nth(&lens, cell);
            for iteration in 0..self.iterations {
                jobs.push(IterationJob {
                    index: jobs.len(),
                    coord,
                    config: self.cell_config(coord),
                    flavor: self.flavors[coord[Axis::Flavor]],
                    iteration,
                    seed: job_seed(self.template.base_seed, coord, iteration),
                });
            }
        }
        Ok(CampaignPlan { jobs })
    }

    /// Plans and runs the campaign sequentially, collecting every result.
    ///
    /// # Errors
    ///
    /// Returns the planning errors of [`Campaign::plan`]; never panics on
    /// invalid configuration.
    pub fn run(&self) -> Result<CampaignResults, BenchmarkError> {
        self.run_with(&SequentialExecutor, &mut NullSink)
    }

    /// Plans and runs the campaign on `executor`, streaming every result
    /// into `sink` as it completes.
    ///
    /// Results are returned in plan order regardless of the executor's
    /// completion order, so the same campaign yields identical
    /// [`CampaignResults`] on every executor.
    ///
    /// # Errors
    ///
    /// Returns planning errors of [`Campaign::plan`] and execution errors
    /// reported by the executor (e.g. a panicked worker thread).
    pub fn run_with<E: Executor + ?Sized, S: ResultSink + ?Sized>(
        &self,
        executor: &E,
        sink: &mut S,
    ) -> Result<CampaignResults, BenchmarkError> {
        let plan = self.plan()?;
        sink.on_campaign_start(&plan);
        let outcome = executor.execute(&plan, &mut |job, result| sink.on_result(job, result));
        // Finalize the sink even when execution failed, so streaming
        // targets flush whatever partial data the completed jobs produced.
        sink.on_campaign_end();
        Ok(CampaignResults::from_ordered(&plan, outcome?))
    }
}

/// The seed of one job: the one formula documented on [`Axis`].
#[must_use]
fn job_seed(base_seed: u64, coord: CellCoord, iteration: u32) -> u64 {
    let start = base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(iteration) * 7_919);
    Axis::ALL.iter().fold(start, |seed, &axis| {
        seed.wrapping_add((coord[axis] as u64).wrapping_mul(axis.seed_weight()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_campaign() -> Campaign {
        Campaign::new()
            .workloads([WorkloadKind::Control, WorkloadKind::Players])
            .flavors([ServerFlavor::Vanilla, ServerFlavor::Paper])
            .environments([Environment::das5(2)])
            .iterations(2)
            .duration_secs(2)
    }

    #[test]
    fn factorial_expansion_covers_every_cell() {
        let campaign = quick_campaign();
        assert_eq!(campaign.cell_count(), 4);
        assert_eq!(campaign.job_count(), 8);
        let plan = campaign.plan().unwrap();
        assert_eq!(plan.jobs().len(), 8);
        for (i, job) in plan.jobs().iter().enumerate() {
            assert_eq!(job.index, i);
        }
        // All seeds are distinct.
        let seeds: std::collections::HashSet<u64> = plan.jobs().iter().map(|j| j.seed).collect();
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn multi_cell_run_produces_one_result_per_job() {
        let results = quick_campaign().run().unwrap();
        assert_eq!(results.iterations().len(), 8);
        assert_eq!(results.for_flavor(ServerFlavor::Paper).len(), 4);
        assert_eq!(results.for_workload(WorkloadKind::Players).len(), 4);
        assert_eq!(
            results
                .for_cell(WorkloadKind::Control, ServerFlavor::Vanilla, "DAS-5 2-core")
                .len(),
            2
        );
        let cells = results.cell_summaries();
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.iterations == 2));
    }

    #[test]
    fn empty_dimensions_are_errors_not_panics() {
        let empty = |dimension| BenchmarkError::EmptyDimension { dimension };
        // Workloads have no default.
        assert_eq!(Campaign::new().run().unwrap_err(), empty("workloads"));
        for axis in Axis::ALL {
            let c = quick_campaign();
            let emptied = match axis {
                Axis::Workload => c.workloads([]),
                Axis::Environment => c.environments([]),
                Axis::Flavor => c.flavors([]),
                Axis::TickThreads => c.tick_threads([]),
                Axis::ShardRebalance => c.shard_rebalance([]),
                Axis::EagerLighting => c.eager_lighting([]),
                Axis::StartTime => c.start_times([]),
            };
            assert_eq!(emptied.cell_count(), 0);
            assert_eq!(emptied.run().unwrap_err(), empty(axis.name()));
        }
        let no_iters = quick_campaign().iterations(0).run();
        assert_eq!(no_iters.unwrap_err(), empty("iterations"));
    }

    #[test]
    fn invalid_scalars_are_errors_not_panics() {
        let zero_duration = quick_campaign().duration_secs(0).run();
        assert!(matches!(
            zero_duration.unwrap_err(),
            BenchmarkError::InvalidParameter {
                parameter: "duration_secs",
                ..
            }
        ));

        let zero_threads = quick_campaign().tick_threads([1, 0]).run();
        assert!(matches!(
            zero_threads.unwrap_err(),
            BenchmarkError::InvalidParameter {
                parameter: "tick_threads",
                ..
            }
        ));
    }

    #[test]
    fn every_campaign_scalar_changes_the_run() {
        // A scalar knob lives in the config because some observable of the
        // run depends on it: (knob, how to turn it, what it must move).
        type Knob = (
            &'static str,
            fn(Campaign) -> Campaign,
            fn(&CampaignResults) -> String,
        );
        let knobs: &[Knob] = &[
            (
                "duration_secs",
                |c| c.duration_secs(3),
                |r| r.iterations()[0].ticks_planned.to_string(),
            ),
            (
                "bots",
                |c| c.bots(3),
                |r| r.iterations()[0].traffic.total_bytes().to_string(),
            ),
            (
                "seed",
                |c| c.seed(7),
                |r| format!("{:?}", r.iterations()[0].trace.busy_durations()),
            ),
            (
                "link",
                |c| c.link(LinkConfig::residential()),
                |r| format!("{:?}", r.iterations()[0].response_samples),
            ),
            (
                "metrics_window",
                |c| c.metrics_window(10, 2),
                |r| {
                    let first = &r.iterations()[0];
                    // Windowed, and the retained trace bounded to one window.
                    (first.windowed.is_some() && first.trace.len() <= 10).to_string()
                },
            ),
            (
                "iterations",
                |c| c.iterations(2),
                |r| r.iterations().len().to_string(),
            ),
        ];
        let baseline = || {
            Campaign::new()
                .workloads([WorkloadKind::Control])
                .flavors([ServerFlavor::Vanilla])
                .environments([Environment::das5(2)])
                .duration_secs(2)
        };
        let base = baseline().run().unwrap();
        for &(knob, turn, observable) in knobs {
            let turned = turn(baseline()).run().unwrap();
            assert_ne!(
                observable(&base),
                observable(&turned),
                "{knob} changed nothing the run reports"
            );
        }
    }

    #[test]
    fn axis_table_is_in_plan_order() {
        for (position, axis) in Axis::ALL.into_iter().enumerate() {
            assert_eq!(axis as usize, position, "{axis:?}");
        }
        let names = Axis::ALL.map(Axis::name);
        assert_eq!(names[0], "workloads");
        assert_eq!(names[6], "start_times");
        let weights = Axis::ALL.map(Axis::seed_weight);
        assert_eq!(weights, [15_485_863, 32_452_843, 1_000_003, 0, 0, 0, 0]);
    }

    #[test]
    fn job_seeds_are_order_independent_and_well_spread() {
        let at =
            |workload, environment, flavor| CellCoord([workload, environment, flavor, 0, 0, 0, 0]);
        let all = [
            job_seed(1, at(0, 0, 0), 0),
            job_seed(1, at(0, 0, 0), 1),
            job_seed(1, at(0, 0, 1), 0),
            job_seed(1, at(0, 1, 0), 0),
            job_seed(1, at(1, 0, 0), 0),
            job_seed(2, at(0, 0, 0), 0),
        ];
        let distinct: std::collections::HashSet<u64> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len());
        // Same coordinates always give the same seed.
        assert_eq!(job_seed(1, at(3, 2, 1), 7), job_seed(1, at(3, 2, 1), 7));
        // Flavors × iterations of one cell never collide.
        let mut seeds = std::collections::HashSet::new();
        for flavor in 0..3 {
            for iteration in 0..50 {
                seeds.insert(job_seed(392_114_485, at(0, 0, flavor), iteration));
            }
        }
        assert_eq!(seeds.len(), 150);
    }

    #[test]
    fn job_seeds_are_pinned() {
        // Literal pins of the one seed formula; the first is the `seed`
        // column of the Control row in fig01's CSV.
        let at =
            |workload, environment, flavor| CellCoord([workload, environment, flavor, 0, 0, 0, 0]);
        let base = 392_114_485;
        for (coord, iteration, seed) in [
            (at(0, 0, 0), 0, 3_895_229_460_822_537_561),
            (at(0, 0, 0), 1, 3_895_229_460_822_545_480),
            (at(0, 0, 1), 0, 3_895_229_460_823_537_564),
            (at(1, 0, 0), 0, 3_895_229_460_838_023_424),
            (at(0, 1, 0), 0, 3_895_229_460_854_990_404),
            (at(3, 2, 1), 7, 3_895_229_460_934_956_272),
        ] {
            assert_eq!(
                job_seed(base, coord, iteration),
                seed,
                "{coord:?} #{iteration}"
            );
        }
        assert_eq!(job_seed(1, at(0, 0, 0), 0), 0x9E37_79B9_7F4A_7C15);
        // The seed-paired axes carry no weight.
        assert_eq!(
            job_seed(base, CellCoord([3, 2, 1, 5, 1, 1, 9]), 7),
            job_seed(base, at(3, 2, 1), 7)
        );
    }

    #[test]
    fn same_label_environments_stay_distinct_cells() {
        // Two environment variants can share a display label (e.g. ablation
        // studies toggling interference internals on the same node type);
        // coordinate-based identity must keep them apart.
        let results = Campaign::new()
            .workloads([WorkloadKind::Control])
            .flavors([ServerFlavor::Vanilla])
            .environments([Environment::das5(2), Environment::das5(2)])
            .iterations(2)
            .duration_secs(2)
            .run()
            .unwrap();
        assert_eq!(results.iterations().len(), 4);
        let cells = results.cell_summaries();
        assert_eq!(cells.len(), 2, "same-label environments must not merge");
        assert!(cells.iter().all(|c| c.iterations == 2));
        let mut second_environment = CellCoord::default();
        second_environment[Axis::Environment] = 1;
        let first = results.for_coord(CellCoord::default());
        let second = results.for_coord(second_environment);
        assert_eq!(first.len(), 2);
        assert_eq!(second.len(), 2);
        // Label-based lookup pools them, as documented.
        assert_eq!(
            results
                .for_cell(WorkloadKind::Control, ServerFlavor::Vanilla, "DAS-5 2-core")
                .len(),
            4
        );
    }

    #[test]
    fn tick_threads_axis_expands_cells_but_not_seeds() {
        let campaign = Campaign::new()
            .workloads([WorkloadKind::Control])
            .flavors([ServerFlavor::Vanilla])
            .environments([Environment::das5(2)])
            .tick_threads([1, 4])
            .iterations(2)
            .duration_secs(2);
        assert_eq!(campaign.cell_count(), 2);
        let plan = campaign.plan().unwrap();
        assert_eq!(plan.jobs().len(), 4);
        // Same grid cell at different thread counts ⇒ identical seeds:
        // thread count must never perturb results.
        let one_thread: Vec<u64> = plan
            .jobs()
            .iter()
            .filter(|j| j.coord[Axis::TickThreads] == 0)
            .map(|j| j.seed)
            .collect();
        let four_threads: Vec<u64> = plan
            .jobs()
            .iter()
            .filter(|j| j.coord[Axis::TickThreads] == 1)
            .map(|j| j.seed)
            .collect();
        assert_eq!(one_thread, four_threads);
        assert!(plan
            .jobs()
            .iter()
            .any(|j| j.config.tick_threads == 4 && j.label().contains("[4thr]")));
    }

    #[test]
    fn shard_rebalance_axis_expands_cells_with_paired_seeds() {
        let campaign = Campaign::new()
            .workloads([WorkloadKind::Control])
            .flavors([ServerFlavor::Vanilla])
            .environments([Environment::das5(2)])
            .shard_rebalance([false, true])
            .iterations(2)
            .duration_secs(2);
        assert_eq!(campaign.cell_count(), 2);
        let plan = campaign.plan().unwrap();
        assert_eq!(plan.jobs().len(), 4);
        // The axis is a paired architecture comparison: same grid cell with
        // rebalancing off vs on gets identical seeds.
        let off: Vec<u64> = plan
            .jobs()
            .iter()
            .filter(|j| j.coord[Axis::ShardRebalance] == 0)
            .map(|j| j.seed)
            .collect();
        let on: Vec<u64> = plan
            .jobs()
            .iter()
            .filter(|j| j.coord[Axis::ShardRebalance] == 1)
            .map(|j| j.seed)
            .collect();
        assert_eq!(off, on);
        assert!(plan
            .jobs()
            .iter()
            .any(|j| j.config.shard_rebalance == Some(true) && j.label().contains("[rebal]")));
        assert!(plan
            .jobs()
            .iter()
            .any(|j| j.config.shard_rebalance == Some(false) && j.label().contains("[static]")));
    }

    #[test]
    fn campaign_labels_are_informative() {
        let plan = quick_campaign().plan().unwrap();
        let label = plan.jobs()[0].label();
        assert!(label.contains("Control") && label.contains("#0"), "{label}");
    }
}
