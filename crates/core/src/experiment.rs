//! Single-iteration execution.
//!
//! One *iteration* follows the Meterstick procedure (Figure 5): deploy,
//! start the server, start metric logging, connect the player emulation,
//! run for the configured duration, then collect metrics. The free function
//! [`execute_iteration_observed`] is the single implementation of that
//! procedure; [`IterationJob::run`](crate::campaign::IterationJob::run)
//! calls it for every job of a campaign plan.
//!
//! All sweep composition lives in [`Campaign`](crate::campaign::Campaign):
//! a campaign covers multiple workloads, environments and tick-thread
//! settings, returns `Result` instead of panicking on bad configuration,
//! and can execute on any
//! [`Executor`](crate::executor::Executor).

use std::collections::VecDeque;

use cloud_sim::metrics_collector::{SystemMetricsCollector, TickObservation};
use meterstick_metrics::response::ResponseTimeSummary;
use meterstick_metrics::trace::{TickRecord, TickTrace};
use meterstick_metrics::windowed::WindowedAggregator;
use meterstick_workloads::{BuiltWorkload, WorkloadKind};
use mlg_bots::PlayerEmulation;
use mlg_server::{GameServer, ServerFlavor, TickStageBreakdown, TickSummary};

use crate::config::{BenchmarkConfig, MetricsWindow};
use crate::results::IterationResult;
use crate::sink::TickSample;

/// Per-tick hook threaded through an iteration's tick loop by
/// [`execute_iteration_observed`].
///
/// The batch path ([`IterationJob::run`](crate::campaign::IterationJob::run))
/// uses [`NoopTickObserver`]. The benchmark daemon's observer is where
/// pause/resume blocking and live sink fan-out live — keeping that code in
/// the daemon crate means this crate stays inside the tick determinism
/// contract (no wall-clock reads here).
pub trait TickObserver {
    /// Called after every executed tick.
    fn on_tick(&mut self, sample: &TickSample) {
        let _ = sample;
    }

    /// Polled before each tick; returning `true` ends the iteration early
    /// (the result reports the ticks executed so far, uncrashed). A paused
    /// daemon *blocks* inside this poll instead of returning.
    fn should_abort(&mut self) -> bool {
        false
    }
}

/// The do-nothing observer of the batch path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTickObserver;

impl TickObserver for NoopTickObserver {}

/// Runs a single iteration of a single flavor under `config`, with the
/// environment and bot randomness derived from `seed` and a per-tick
/// [`TickObserver`] threaded through the loop.
///
/// The workload world is built once per iteration from `config.base_seed`
/// (identical across iterations by design — only the environment and bot
/// behaviour vary) and handed to the server directly. The observer cannot
/// change what is simulated — it sees each tick after the fact and may only
/// stop the run — so an observed iteration replays bit-identically to an
/// unobserved one up to the abort point.
#[must_use]
pub fn execute_iteration_observed(
    config: &BenchmarkConfig,
    flavor: ServerFlavor,
    iteration: u32,
    seed: u64,
    observer: &mut dyn TickObserver,
) -> IterationResult {
    // Deploy: world, server, player emulation, environment.
    let built = config.workload.build(config.base_seed);
    let workload = built.kind;
    let (mut server, mut emulation) = prepare(config, flavor, built, seed);
    let mut engine = config
        .environment
        .instantiate_at(seed, config.start_time)
        .engine;

    // Tick loop. The iteration runs for a fixed span of *virtual time*,
    // exactly like the paper's fixed wall-clock duration: when the server
    // is overloaded, fewer ticks fit into the iteration (Na ≤ Ne in the ISR
    // definition).
    let duration_ms = config.duration_secs as f64 * 1_000.0;
    let budget_ms = server.config().tick_budget_ms;
    let mut recording = Recording::new(config.metrics_window, budget_ms);
    while server.clock_ms() < duration_ms && recording.crashed.is_none() {
        if observer.should_abort() {
            break;
        }
        let summary = emulation.step(&mut server, &mut engine);
        observer.on_tick(&TickSample {
            tick: summary.record.index,
            end_ms: summary.end_ms,
            busy_ms: summary.record.busy_ms,
            period_ms: summary.record.period_ms,
            budget_ms,
            stages: summary.stages,
            entity_count: summary.entity_count,
            player_count: summary.player_count,
        });
        recording.push(summary, server.world().loaded_chunk_count());
    }

    recording.fold(config, flavor, workload, iteration, &server, &emulation)
}

/// Builds the server and player emulation for one iteration, consuming the
/// already-built workload (one build per iteration; worlds are not `Clone`
/// on purpose, and rebuilding from the same seed would only duplicate
/// work).
fn prepare(
    config: &BenchmarkConfig,
    flavor: ServerFlavor,
    built: BuiltWorkload,
    seed: u64,
) -> (GameServer, PlayerEmulation) {
    let bots = config.bots_override.unwrap_or(built.players.bots);
    let mut emulation = PlayerEmulation::new(
        bots,
        built.spawn_point,
        built.players.walk_area,
        built.players.moving,
        config.link,
        seed,
    );
    if built.players.building {
        emulation = emulation.with_builders();
    }
    if built.players.scatter > 0 {
        emulation = emulation.scattered(built.spawn_point, built.players.scatter, seed);
    }
    let mut server = GameServer::new(config.server_config(flavor), built.world, built.spawn_point);
    emulation.connect_all(&mut server);
    for (kind, pos) in &built.ambient_entities {
        server.spawn_entity(*kind, *pos);
    }
    if let Some(delay) = built.tnt_fuse_delay_ticks {
        server.schedule_tnt_ignition(delay);
    }
    (server, emulation)
}

/// Everything the tick loop records about one iteration.
struct Recording {
    trace: TickTrace,
    /// Long-horizon mode: ticks fold through the bounded streaming
    /// aggregator instead of growing the trace with the horizon, and a
    /// ring of `window_ticks` records keeps only the final window.
    window: Option<(WindowedAggregator, VecDeque<TickRecord>, usize)>,
    collector: SystemMetricsCollector,
    stage_busy: TickStageBreakdown,
    ticks_executed: u64,
    crashed: Option<String>,
}

impl Recording {
    fn new(metrics_window: Option<MetricsWindow>, budget_ms: f64) -> Self {
        let window = metrics_window.map(|w| {
            let ticks = w.window_ticks.max(1) as usize;
            let windows = w.max_windows.max(1) as usize;
            let aggregator = WindowedAggregator::new(ticks, windows, budget_ms);
            (aggregator, VecDeque::with_capacity(ticks), ticks)
        });
        Recording {
            trace: TickTrace::new(budget_ms),
            window,
            collector: SystemMetricsCollector::new(30),
            stage_busy: TickStageBreakdown::default(),
            ticks_executed: 0,
            crashed: None,
        }
    }

    /// Records one executed tick.
    fn push(&mut self, summary: TickSummary, loaded_chunks: usize) {
        self.ticks_executed += 1;
        self.stage_busy.accumulate(&summary.stages);
        self.collector.observe_tick(
            summary.end_ms,
            TickObservation {
                cpu_utilization: summary.cpu_utilization,
                entities: summary.entity_count as u64,
                loaded_chunks: loaded_chunks as u64,
                players: summary.player_count as u32,
                network_sent_bytes: summary.packets_emitted * 40,
                network_received_bytes: summary.bytes_received,
                blocks_written: summary.packets_emitted / 4,
            },
        );
        match &mut self.window {
            Some((aggregator, tail, cap)) => {
                aggregator.push(summary.record.busy_ms);
                if tail.len() == *cap {
                    tail.pop_front();
                }
                tail.push_back(summary.record);
            }
            None => self.trace.push(summary.record),
        }
        self.crashed = summary.crash.map(|crash| crash.reason);
    }

    /// Folds the recording into the iteration's result.
    fn fold(
        mut self,
        config: &BenchmarkConfig,
        flavor: ServerFlavor,
        workload: WorkloadKind,
        iteration: u32,
        server: &GameServer,
        emulation: &PlayerEmulation,
    ) -> IterationResult {
        let ticks_planned = config.ticks_per_iteration();
        let (instability_ratio, windowed) = match self.window {
            Some((aggregator, tail, _)) => {
                for record in tail {
                    self.trace.push(record);
                }
                let report = aggregator.finish(Some(ticks_planned));
                (report.instability_ratio, Some(report))
            }
            None => (self.trace.instability_ratio(Some(ticks_planned)), None),
        };
        let response_samples = emulation.response_samples().to_vec();
        IterationResult {
            flavor,
            workload,
            iteration,
            environment: config.environment.label(),
            instability_ratio,
            response: ResponseTimeSummary::of(&response_samples),
            response_samples,
            system_samples: self.collector.finish(),
            traffic: server.traffic_summary().clone(),
            ticks_executed: self.ticks_executed,
            ticks_planned,
            crashed: self.crashed,
            trace: self.trace,
            stage_busy: self.stage_busy,
            windowed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use cloud_sim::environment::Environment;

    fn quick_campaign(workload: WorkloadKind) -> Campaign {
        Campaign::new()
            .workloads([workload])
            .flavors([ServerFlavor::Vanilla])
            .environments([Environment::das5(2)])
            .duration_secs(3)
    }

    #[test]
    fn control_workload_runs_to_completion() {
        let results = quick_campaign(WorkloadKind::Control).run().unwrap();
        assert_eq!(results.iterations().len(), 1);
        let it = &results.iterations()[0];
        // The iteration spans 3 virtual seconds; at 20 Hz that is at most 60
        // ticks, slightly fewer when individual ticks run over budget.
        assert!(
            it.ticks_executed >= 40 && it.ticks_executed <= 60,
            "{}",
            it.ticks_executed
        );
        assert!(!it.crashed());
        assert!(it.instability_ratio >= 0.0 && it.instability_ratio <= 1.0);
        assert!(!it.response_samples.is_empty());
        assert!(!it.system_samples.is_empty());
    }

    #[test]
    fn multiple_flavors_and_iterations_multiply_results() {
        let results = quick_campaign(WorkloadKind::Control)
            .flavors([ServerFlavor::Vanilla, ServerFlavor::Paper])
            .iterations(2)
            .duration_secs(2)
            .run()
            .unwrap();
        assert_eq!(results.iterations().len(), 4);
        assert_eq!(results.for_flavor(ServerFlavor::Paper).len(), 2);
    }

    #[test]
    fn iterations_differ_on_clouds_but_worlds_are_identical() {
        let results = quick_campaign(WorkloadKind::Control)
            .environments([Environment::aws_default()])
            .iterations(2)
            .run()
            .unwrap();
        let isr: Vec<f64> = results.isr_values(ServerFlavor::Vanilla);
        assert_eq!(isr.len(), 2);
        // Different interference seeds make the two iterations differ.
        let t0: f64 = results.iterations()[0].trace.busy_durations().iter().sum();
        let t1: f64 = results.iterations()[1].trace.busy_durations().iter().sum();
        assert_ne!(t0, t1);
    }

    #[test]
    fn players_workload_connects_25_bots() {
        let results = quick_campaign(WorkloadKind::Players)
            .duration_secs(2)
            .run()
            .unwrap();
        let it = &results.iterations()[0];
        assert_eq!(it.workload, WorkloadKind::Players);
        // The busiest evidence that 25 bots are connected: entity/player
        // traffic exists and response samples were captured.
        assert!(it.traffic.total_messages() > 0);
    }

    #[test]
    fn same_seed_reproduces_identical_results_on_das5() {
        let campaign = quick_campaign(WorkloadKind::Control).duration_secs(2);
        let a = campaign.run().unwrap();
        let b = campaign.run().unwrap();
        let ta: Vec<f64> = a.iterations()[0].trace.busy_durations();
        let tb: Vec<f64> = b.iterations()[0].trace.busy_durations();
        assert_eq!(
            ta, tb,
            "identical configuration must reproduce identical traces"
        );
    }

    #[test]
    fn execute_iteration_is_callable_directly() {
        // The campaign layer derives seeds per job; direct calls remain
        // supported for custom harnesses, on a job's config.
        let plan = quick_campaign(WorkloadKind::Control)
            .duration_secs(2)
            .plan()
            .unwrap();
        let config = &plan.jobs()[0].config;
        let result =
            execute_iteration_observed(config, ServerFlavor::Vanilla, 0, 42, &mut NoopTickObserver);
        assert!(result.ticks_executed > 0);
        assert!(!result.crashed());
    }

    /// Asks to abort on the poll before tick `at` (0-based) and counts the
    /// ticks it is shown.
    struct AbortBefore {
        at: u64,
        polls: u64,
        ticks_seen: u64,
    }

    impl TickObserver for AbortBefore {
        fn on_tick(&mut self, _sample: &TickSample) {
            self.ticks_seen += 1;
        }

        fn should_abort(&mut self) -> bool {
            self.polls += 1;
            self.polls > self.at
        }
    }

    #[test]
    fn an_aborted_iteration_replays_the_unobserved_run_up_to_the_abort() {
        let plan = quick_campaign(WorkloadKind::Control).plan().unwrap();
        let job = &plan.jobs()[0];
        let run = |observer: &mut dyn TickObserver| {
            execute_iteration_observed(&job.config, job.flavor, job.iteration, job.seed, observer)
        };
        let full = run(&mut NoopTickObserver);
        let last = full.ticks_executed - 1;
        assert!(last > 37, "the run is long enough to abort at tick 37");
        for at in [0, 1, 37, last] {
            let mut observer = AbortBefore {
                at,
                polls: 0,
                ticks_seen: 0,
            };
            let aborted = run(&mut observer);
            assert_eq!(aborted.ticks_executed, at, "abort before tick {at}");
            assert_eq!(observer.ticks_seen, at);
            assert!(!aborted.crashed());
            assert_eq!(aborted.ticks_planned, full.ticks_planned);
            assert!(
                aborted.trace.iter().eq(full.trace.iter().take(at as usize)),
                "the trace aborted before tick {at} is a prefix of the full one"
            );
        }
    }

    #[test]
    fn windowed_iterations_bound_the_trace_and_cover_the_horizon() {
        let plain = quick_campaign(WorkloadKind::Control).run().unwrap();
        let windowed = quick_campaign(WorkloadKind::Control)
            .metrics_window(20, 2)
            .run()
            .unwrap();
        let (plain, windowed) = (&plain.iterations()[0], &windowed.iterations()[0]);
        let report = windowed.windowed.as_ref().expect("a windowed report");
        assert!(plain.windowed.is_none());
        // Same ticks either way; only what is retained differs.
        assert_eq!(windowed.ticks_executed, plain.ticks_executed);
        assert_eq!(report.total_ticks, plain.ticks_executed);
        assert_eq!(windowed.instability_ratio, plain.instability_ratio);
        assert_eq!(windowed.stage_busy, plain.stage_busy);
        // The retained trace is the final window of the full one.
        assert_eq!(windowed.trace.len(), 20);
        let full = plain.trace.busy_durations();
        assert_eq!(windowed.trace.busy_durations(), full[full.len() - 20..]);
    }
}
