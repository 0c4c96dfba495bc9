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
//! [`Executor`]: crate::executor::Executor
//! [`ResultSink`]: crate::sink::ResultSink

use cloud_sim::environment::Environment;
use cloud_sim::node::NodeType;
use cloud_sim::temporal::StartTime;
use meterstick_workloads::{WorkloadKind, WorkloadSpec};
use mlg_protocol::netsim::LinkConfig;
use mlg_server::ServerFlavor;

use crate::config::BenchmarkConfig;
use crate::deployment::DeploymentPlan;
use crate::error::BenchmarkError;
use crate::executor::{Executor, SequentialExecutor};
use crate::experiment::execute_iteration;
use crate::results::IterationResult;
use crate::sink::{NullSink, ResultSink};

pub use crate::results::{CampaignResults, CellSummary};

/// Position of a cell in the campaign's factorial grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellCoord {
    /// Index into the campaign's workload list.
    pub workload: usize,
    /// Index into the campaign's environment list.
    pub environment: usize,
    /// Index into the campaign's flavor list.
    pub flavor: usize,
    /// Index into the campaign's tick-thread list.
    pub tick_threads: usize,
    /// Index into the campaign's shard-rebalance list.
    pub shard_rebalance: usize,
    /// Index into the campaign's eager-lighting list.
    pub eager_lighting: usize,
    /// Index into the campaign's start-time list.
    pub start_time: usize,
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
    /// Fully specialized configuration (single workload, single flavor,
    /// single environment).
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
        execute_iteration(&self.config, self.flavor, self.iteration, self.seed)
    }

    /// Human-readable job label, e.g. `"TNT × PaperMC @ AWS 2-core #1"`
    /// (plus a thread suffix for multi-threaded tick pipelines).
    #[must_use]
    pub fn label(&self) -> String {
        let threads = if self.config.tick_threads > 1 {
            format!(" [{}thr]", self.config.tick_threads)
        } else {
            String::new()
        };
        let rebalance = match self.config.shard_rebalance {
            Some(true) => " [rebal]",
            Some(false) => " [static]",
            None => "",
        };
        let lighting = match self.config.eager_lighting {
            Some(true) => " [eager]",
            Some(false) => " [pipelined]",
            None => "",
        };
        let start = if self.config.start_time == StartTime::default() {
            String::new()
        } else {
            format!(" [{}]", self.config.start_time)
        };
        format!(
            "{} × {} @ {}{threads}{rebalance}{lighting}{start} #{}",
            self.config.workload.kind,
            self.flavor,
            self.config.environment.label(),
            self.iteration
        )
    }
}

/// A validated, fully expanded campaign: the job list plus the deployment
/// plan shared by every job.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    jobs: Vec<IterationJob>,
    deployment: DeploymentPlan,
}

impl CampaignPlan {
    /// The jobs in plan order (workload-major, then environment, flavor,
    /// iteration).
    #[must_use]
    pub fn jobs(&self) -> &[IterationJob] {
        &self.jobs
    }

    /// The node/role assignment every job shares.
    #[must_use]
    pub fn deployment(&self) -> &DeploymentPlan {
        &self.deployment
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
    template: BenchmarkConfig,
    workloads: Vec<WorkloadSpec>,
    flavors: Vec<ServerFlavor>,
    environments: Vec<Environment>,
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
    /// Creates an empty campaign with the paper's default flavor set and
    /// environment; add at least one workload before running.
    #[must_use]
    pub fn new() -> Self {
        let template = BenchmarkConfig::new(WorkloadKind::Control);
        Campaign {
            flavors: template.flavors.clone(),
            environments: vec![template.environment.clone()],
            workloads: Vec::new(),
            tick_threads: vec![template.tick_threads],
            shard_rebalance: vec![template.shard_rebalance],
            eager_lighting: vec![template.eager_lighting],
            start_times: vec![template.start_time],
            template,
        }
    }

    /// Builds a single-workload campaign from a legacy [`BenchmarkConfig`],
    /// preserving its flavor list, environment and tick-thread setting —
    /// the migration path for pre-campaign callers.
    #[must_use]
    pub fn from_config(config: BenchmarkConfig) -> Self {
        Campaign {
            workloads: vec![config.workload],
            flavors: config.flavors.clone(),
            environments: vec![config.environment.clone()],
            tick_threads: vec![config.tick_threads],
            shard_rebalance: vec![config.shard_rebalance],
            eager_lighting: vec![config.eager_lighting],
            start_times: vec![config.start_time],
            template: config,
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
    /// to measure wall-clock scaling.
    #[must_use]
    pub fn tick_threads(mut self, threads: impl IntoIterator<Item = u32>) -> Self {
        self.tick_threads = threads.into_iter().map(|t| t.max(1)).collect();
        self
    }

    /// Replaces the shard-rebalance dimension: each value runs the whole
    /// grid with adaptive shard rebalancing forced on or off (overriding
    /// the flavor default; serial flavors with `tick_shards <= 1` have no
    /// partition to rebalance and ignore the setting, so sweep this axis
    /// over sharded flavors). Unlike `tick_threads`, this is a
    /// *modeled-architecture* axis — results legitimately differ across it
    /// — but, like `tick_threads`, it is excluded from seed derivation so
    /// cells differing only in this coordinate run identical worlds, bots
    /// and interference (a paired comparison of the two partitions).
    #[must_use]
    pub fn shard_rebalance(mut self, settings: impl IntoIterator<Item = bool>) -> Self {
        self.shard_rebalance = settings.into_iter().map(Some).collect();
        self
    }

    /// Replaces the eager-lighting dimension: each value runs the whole
    /// grid with lighting forced eager (`true`, relit inside the terrain
    /// stage) or pipelined (`false`, deferred one tick and overlapped with
    /// the next tick's player stage), overriding the flavor default. Like
    /// `shard_rebalance` this is a *modeled-architecture* axis excluded
    /// from seed derivation, so cells differing only here run identical
    /// worlds, bots and interference — a paired comparison of the two
    /// lighting architectures.
    #[must_use]
    pub fn eager_lighting(mut self, settings: impl IntoIterator<Item = bool>) -> Self {
        self.eager_lighting = settings.into_iter().map(Some).collect();
        self
    }

    /// Replaces the start-time dimension: each value runs the whole grid
    /// starting at that point of the simulated week. Only environments with
    /// a non-flat temporal (tenancy) profile respond to it. Like
    /// `shard_rebalance`/`eager_lighting` this axis is excluded from seed
    /// derivation, so cells differing only in start time run identical
    /// worlds, bots and interference seeds — a paired comparison of *when*,
    /// not *where*.
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
        self.template = self
            .template
            .clone()
            .with_metrics_window(window_ticks, max_windows);
        self
    }

    /// Appends one AWS environment per node size — the node-size axis of the
    /// paper's Figure 12 as a sweep dimension.
    #[must_use]
    pub fn aws_node_sizes(mut self, nodes: impl IntoIterator<Item = NodeType>) -> Self {
        self.environments
            .extend(nodes.into_iter().map(Environment::aws));
        self
    }

    /// Sets the number of iterations per cell.
    #[must_use]
    pub fn iterations(mut self, iterations: u32) -> Self {
        self.template.iterations = iterations;
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

    /// Adopts the *infrastructure* fields of a configuration template —
    /// node addresses, SSH keys, JMX ports, RAM, affinity, resume flag —
    /// leaving every knob with its own builder method (dimensions,
    /// iterations, duration, seed, bots, link) untouched, so builder-call
    /// order never matters.
    #[must_use]
    pub fn template(mut self, template: BenchmarkConfig) -> Self {
        self.template.node_ips = template.node_ips;
        self.template.ssh_keys = template.ssh_keys;
        self.template.jmx_ports = template.jmx_ports;
        self.template.ram_gb = template.ram_gb;
        self.template.affinity_mask = template.affinity_mask;
        self.template.resume = template.resume;
        self
    }

    /// Number of grid cells: the product of the seven sweep axes
    /// (workloads × environments × flavors × tick-thread settings ×
    /// shard-rebalance settings × lighting modes × start times).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.workloads.len()
            * self.environments.len()
            * self.flavors.len()
            * self.tick_threads.len()
            * self.shard_rebalance.len()
            * self.eager_lighting.len()
            * self.start_times.len()
    }

    /// Number of jobs the plan will contain (cells × iterations).
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.cell_count() * self.template.iterations as usize
    }

    /// Validates the campaign and expands it into independent, seeded jobs.
    ///
    /// # Errors
    ///
    /// Returns [`BenchmarkError::EmptyDimension`] when any sweep dimension
    /// is empty, [`BenchmarkError::InvalidParameter`] for out-of-range
    /// scalars, and [`BenchmarkError::Deployment`] when the node/key
    /// configuration is invalid.
    pub fn plan(&self) -> Result<CampaignPlan, BenchmarkError> {
        if self.workloads.is_empty() {
            return Err(BenchmarkError::EmptyDimension {
                dimension: "workloads",
            });
        }
        if self.flavors.is_empty() {
            return Err(BenchmarkError::EmptyDimension {
                dimension: "flavors",
            });
        }
        if self.environments.is_empty() {
            return Err(BenchmarkError::EmptyDimension {
                dimension: "environments",
            });
        }
        if self.tick_threads.is_empty() {
            return Err(BenchmarkError::EmptyDimension {
                dimension: "tick_threads",
            });
        }
        if self.shard_rebalance.is_empty() {
            return Err(BenchmarkError::EmptyDimension {
                dimension: "shard_rebalance",
            });
        }
        if self.eager_lighting.is_empty() {
            return Err(BenchmarkError::EmptyDimension {
                dimension: "eager_lighting",
            });
        }
        if self.start_times.is_empty() {
            return Err(BenchmarkError::EmptyDimension {
                dimension: "start_times",
            });
        }
        if self.template.iterations == 0 {
            return Err(BenchmarkError::EmptyDimension {
                dimension: "iterations",
            });
        }
        if self.template.duration_secs == 0 {
            return Err(BenchmarkError::InvalidParameter {
                parameter: "duration_secs",
                reason: "must be at least 1 virtual second".into(),
            });
        }
        if self.template.ram_gb <= 0.0 {
            return Err(BenchmarkError::InvalidParameter {
                parameter: "ram_gb",
                reason: format!("must be positive, got {}", self.template.ram_gb),
            });
        }
        if self.template.jmx_ports.0 > self.template.jmx_ports.1 {
            return Err(BenchmarkError::InvalidParameter {
                parameter: "jmx_ports",
                reason: format!(
                    "range start {} exceeds end {}",
                    self.template.jmx_ports.0, self.template.jmx_ports.1
                ),
            });
        }
        let deployment = DeploymentPlan::plan(&self.template)?;

        let mut jobs = Vec::with_capacity(self.job_count());
        for (w_idx, workload) in self.workloads.iter().enumerate() {
            for (e_idx, environment) in self.environments.iter().enumerate() {
                for (f_idx, &flavor) in self.flavors.iter().enumerate() {
                    for (t_idx, &threads) in self.tick_threads.iter().enumerate() {
                        for (r_idx, &rebalance) in self.shard_rebalance.iter().enumerate() {
                            for (l_idx, &lighting) in self.eager_lighting.iter().enumerate() {
                                for (s_idx, &start_time) in self.start_times.iter().enumerate() {
                                    let mut config = self.template.clone();
                                    config.workload = *workload;
                                    config.environment = environment.clone();
                                    config.flavors = vec![flavor];
                                    config.tick_threads = threads;
                                    config.shard_rebalance = rebalance;
                                    config.eager_lighting = lighting;
                                    config.start_time = start_time;
                                    let coord = CellCoord {
                                        workload: w_idx,
                                        environment: e_idx,
                                        flavor: f_idx,
                                        tick_threads: t_idx,
                                        shard_rebalance: r_idx,
                                        eager_lighting: l_idx,
                                        start_time: s_idx,
                                    };
                                    for iteration in 0..self.template.iterations {
                                        jobs.push(IterationJob {
                                            index: jobs.len(),
                                            coord,
                                            config: config.clone(),
                                            flavor,
                                            iteration,
                                            seed: job_seed(&self.template, coord, iteration),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(CampaignPlan { jobs, deployment })
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

/// Derives the seed of one iteration job from the campaign template and
/// the job's grid position: [`BenchmarkConfig::iteration_seed`] (so a
/// single-workload single-environment campaign reproduces exactly the
/// legacy pre-campaign seed scheme — and therefore exactly its traces)
/// plus prime-weighted workload and environment terms. Seeds depend only
/// on grid coordinates, never on execution order — which is what makes
/// parallel execution bit-identical to sequential execution. The
/// `tick_threads` coordinate is deliberately **excluded**: thread count is
/// execution infrastructure and must never change results. The
/// `shard_rebalance` and `eager_lighting` coordinates are excluded too,
/// for a different reason: architectures should be compared on identical
/// worlds, bots and interference, so those axes vary only the
/// architecture. The `start_time` coordinate is excluded for the same
/// paired-comparison reason: a start-time sweep asks what changes when the
/// *same* deployment runs at a different point of the week.
#[must_use]
fn job_seed(template: &BenchmarkConfig, coord: CellCoord, iteration: u32) -> u64 {
    template
        .iteration_seed(coord.flavor, iteration)
        .wrapping_add(coord.workload as u64 * 15_485_863)
        .wrapping_add(coord.environment as u64 * 32_452_843)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::DeploymentError;

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
        // Every job's config is specialized to exactly one flavor.
        for (i, job) in plan.jobs().iter().enumerate() {
            assert_eq!(job.index, i);
            assert_eq!(job.config.flavors, vec![job.flavor]);
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
        let no_workloads = Campaign::new().run();
        assert_eq!(
            no_workloads.unwrap_err(),
            BenchmarkError::EmptyDimension {
                dimension: "workloads"
            }
        );
        let no_flavors = quick_campaign().flavors([]).run();
        assert_eq!(
            no_flavors.unwrap_err(),
            BenchmarkError::EmptyDimension {
                dimension: "flavors"
            }
        );
        let no_envs = quick_campaign().environments([]).run();
        assert_eq!(
            no_envs.unwrap_err(),
            BenchmarkError::EmptyDimension {
                dimension: "environments"
            }
        );
        let no_iters = quick_campaign().iterations(0).run();
        assert_eq!(
            no_iters.unwrap_err(),
            BenchmarkError::EmptyDimension {
                dimension: "iterations"
            }
        );
    }

    #[test]
    fn invalid_scalars_and_deployment_are_errors_not_panics() {
        let zero_duration = quick_campaign().duration_secs(0).run();
        assert!(matches!(
            zero_duration.unwrap_err(),
            BenchmarkError::InvalidParameter {
                parameter: "duration_secs",
                ..
            }
        ));

        let mut bad_nodes = BenchmarkConfig::new(WorkloadKind::Control);
        bad_nodes.node_ips = vec!["10.0.0.10".into()];
        let result = quick_campaign().template(bad_nodes).run();
        assert_eq!(
            result.unwrap_err(),
            BenchmarkError::Deployment(DeploymentError::NotEnoughNodes { provided: 1 })
        );

        let mut bad_ram = BenchmarkConfig::new(WorkloadKind::Control);
        bad_ram.ram_gb = 0.0;
        let result = quick_campaign().template(bad_ram).run();
        assert!(matches!(
            result.unwrap_err(),
            BenchmarkError::InvalidParameter {
                parameter: "ram_gb",
                ..
            }
        ));
    }

    #[test]
    fn job_seeds_are_order_independent_and_well_spread() {
        let coord = |workload, environment, flavor| CellCoord {
            workload,
            environment,
            flavor,
            tick_threads: 0,
            shard_rebalance: 0,
            eager_lighting: 0,
            start_time: 0,
        };
        let t1 = BenchmarkConfig::new(WorkloadKind::Control).with_seed(1);
        let t2 = BenchmarkConfig::new(WorkloadKind::Control).with_seed(2);
        let a = job_seed(&t1, coord(0, 0, 0), 0);
        let b = job_seed(&t1, coord(0, 0, 0), 1);
        let c = job_seed(&t1, coord(0, 0, 1), 0);
        let d = job_seed(&t1, coord(1, 0, 0), 0);
        let e = job_seed(&t2, coord(0, 0, 0), 0);
        let all = [a, b, c, d, e];
        let distinct: std::collections::HashSet<u64> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len());
        // Same coordinates always give the same seed.
        assert_eq!(
            job_seed(&t1, coord(3, 2, 1), 7),
            job_seed(&t1, coord(3, 2, 1), 7)
        );
    }

    #[test]
    fn template_is_builder_order_independent() {
        let mut infra = BenchmarkConfig::new(WorkloadKind::Control);
        infra.node_ips = vec!["10.1.0.1".into(), "10.1.0.2".into()];
        infra.ram_gb = 8.0;
        let before = quick_campaign().template(infra.clone());
        let after = Campaign::new()
            .template(infra)
            .workloads([WorkloadKind::Control, WorkloadKind::Players])
            .flavors([ServerFlavor::Vanilla, ServerFlavor::Paper])
            .environments([Environment::das5(2)])
            .iterations(2)
            .duration_secs(2);
        let plan_before = before.plan().unwrap();
        let plan_after = after.plan().unwrap();
        assert_eq!(plan_before.jobs().len(), plan_after.jobs().len());
        for (x, y) in plan_before.jobs().iter().zip(plan_after.jobs()) {
            assert_eq!(x.config, y.config);
            assert_eq!(x.seed, y.seed);
        }
        assert_eq!(plan_before.deployment().server_node(), "10.1.0.1");
        assert_eq!(plan_before.jobs()[0].config.ram_gb, 8.0);
        // Scalar knobs set on the campaign survive a later template() call.
        assert_eq!(plan_before.jobs()[0].config.iterations, 2);
        assert_eq!(plan_before.jobs()[0].config.duration_secs, 2);
    }

    #[test]
    fn from_config_preserves_the_legacy_shape() {
        let config = BenchmarkConfig::new(WorkloadKind::Farm)
            .with_flavors(vec![ServerFlavor::Forge])
            .with_environment(Environment::das5(2))
            .with_duration_secs(2)
            .with_iterations(3);
        let campaign = Campaign::from_config(config);
        assert_eq!(campaign.cell_count(), 1);
        assert_eq!(campaign.job_count(), 3);
        let results = campaign.run().unwrap();
        assert_eq!(results.iterations().len(), 3);
        assert!(results
            .iterations()
            .iter()
            .all(|r| r.workload == WorkloadKind::Farm));
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
        let first = results.for_coord(CellCoord {
            workload: 0,
            environment: 0,
            flavor: 0,
            tick_threads: 0,
            shard_rebalance: 0,
            eager_lighting: 0,
            start_time: 0,
        });
        let second = results.for_coord(CellCoord {
            workload: 0,
            environment: 1,
            flavor: 0,
            tick_threads: 0,
            shard_rebalance: 0,
            eager_lighting: 0,
            start_time: 0,
        });
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
    fn single_cell_seeds_match_the_legacy_scheme() {
        // The legacy pre-campaign runner derived seeds with
        // BenchmarkConfig::iteration_seed; a single-workload
        // single-environment campaign must reproduce them exactly so legacy
        // results stay bit-identical under the new API.
        let config = BenchmarkConfig::new(WorkloadKind::Control).with_iterations(3);
        let plan = Campaign::from_config(config.clone()).plan().unwrap();
        assert_eq!(plan.jobs().len(), 9, "3 flavors x 3 iterations");
        for job in plan.jobs() {
            let f_idx = config
                .flavors
                .iter()
                .position(|f| *f == job.flavor)
                .unwrap();
            assert_eq!(job.seed, config.iteration_seed(f_idx, job.iteration));
        }
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
            .filter(|j| j.coord.tick_threads == 0)
            .map(|j| j.seed)
            .collect();
        let four_threads: Vec<u64> = plan
            .jobs()
            .iter()
            .filter(|j| j.coord.tick_threads == 1)
            .map(|j| j.seed)
            .collect();
        assert_eq!(one_thread, four_threads);
        assert!(plan
            .jobs()
            .iter()
            .any(|j| j.config.tick_threads == 4 && j.label().contains("[4thr]")));

        let no_threads = campaign.tick_threads([]).run();
        assert_eq!(
            no_threads.unwrap_err(),
            BenchmarkError::EmptyDimension {
                dimension: "tick_threads"
            }
        );
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
            .filter(|j| j.coord.shard_rebalance == 0)
            .map(|j| j.seed)
            .collect();
        let on: Vec<u64> = plan
            .jobs()
            .iter()
            .filter(|j| j.coord.shard_rebalance == 1)
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

        let empty = campaign.shard_rebalance([]).run();
        assert_eq!(
            empty.unwrap_err(),
            BenchmarkError::EmptyDimension {
                dimension: "shard_rebalance"
            }
        );
    }

    #[test]
    fn campaign_labels_are_informative() {
        let plan = quick_campaign().plan().unwrap();
        let label = plan.jobs()[0].label();
        assert!(label.contains("Control") && label.contains("#0"), "{label}");
    }
}
