//! The traced run: an in-memory span recorder, a replay of
//! `execute_iteration_observed`'s loop from the public pieces it is made of
//! with a span around each call into a layer, and the per-layer metrics
//! derived from those spans.
//!
//! Spans are recorded from this file only — tracing *inside* the simulator
//! is a later change. End-to-end metrics are never taken from a traced run:
//! the traced replay exists to attribute time, its rows must equal the
//! untraced rows, and the cost of tracing itself is reported as
//! `trace_overhead_pct` against untraced rounds of the same process.

use std::collections::VecDeque;
use std::time::Instant;

use cloud_sim::metrics_collector::{SystemMetricsCollector, TickObservation};
use meterstick::campaign::IterationJob;
use meterstick::{IterationResult, ParallelExecutor, SequentialExecutor};
use meterstick_metrics::response::ResponseTimeSummary;
use meterstick_metrics::trace::{TickRecord, TickTrace};
use meterstick_metrics::windowed::WindowedAggregator;
use mlg_bots::emulation::DELIVERY_SLACK_MS;
use mlg_bots::PlayerEmulation;
use mlg_server::{GameServer, ServerConfig, TickStageBreakdown};

use crate::contract;
use crate::host;
use crate::json::Json;
use crate::ledger::{self, CellSample, Metric, Tally};
use crate::probes;
use crate::stats::{highest_supported_tail, median, percentile};
use crate::workloads::{self, Drive, Workload};

/// Traced rounds a traced run must contain however short `--seconds` is.
const MIN_TRACED_ROUNDS: usize = 2;

/// One recorded interval. A span's id is its index in [`Tracer::spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Plan index of the job the span belongs to; spans of one job share it.
    pub job: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory; nothing is written until the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    job: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. The clock is read last, so
    /// the recorder's own bookkeeping lands in the parent's self time.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of it its direct
/// children cover. Children of one parent never overlap here (one thread
/// records), so that part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let covered = span.duration_ns();
            let slot = &mut self_ns[parent as usize];
            *slot = slot.saturating_sub(covered);
        }
    }
    self_ns
}

/// Simulated counts of one traced round (exact, repeat bit-for-bit).
#[derive(Default)]
struct RoundCounts {
    jobs: u64,
    ticks: u64,
    packets_emitted: u64,
    stage_busy: TickStageBreakdown,
}

/// `execute_iteration_observed`, replayed call by call with a span around
/// each call into a layer. Must stay a faithful copy: the row it produces is
/// held against the row of the real function.
fn replay_job(job: &IterationJob, t: &mut Tracer, counts: &mut RoundCounts) -> CellSample {
    let config = &job.config;
    let (flavor, seed) = (job.flavor, job.seed);
    let cpu0 = host::process_cpu_seconds();
    let start = Instant::now();
    t.job = job.index as u32;
    let job_span = t.enter("core.job");
    let setup_span = t.enter("core.job_setup");

    let s = t.enter("workloads.build");
    let built = config.workload.build(config.base_seed);
    t.exit(s);
    let workload_kind = built.kind;

    let server_config = ServerConfig::for_flavor(flavor)
        .with_seed(config.base_seed)
        .with_tick_threads(config.tick_threads)
        .with_shard_rebalance(config.shard_rebalance)
        .with_eager_lighting(config.eager_lighting)
        .with_start_time_minute(config.start_time.minute_of_week());
    let bots = config.bots_override.unwrap_or(built.players.bots);
    let s = t.enter("mlg_bots.new");
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
    t.exit(s);
    let s = t.enter("mlg_server.new");
    let mut server = GameServer::new(server_config, built.world, built.spawn_point);
    t.exit(s);
    let s = t.enter("mlg_bots.connect_all");
    emulation.connect_all(&mut server);
    t.exit(s);
    for (kind, pos) in &built.ambient_entities {
        server.spawn_entity(*kind, *pos);
    }
    if let Some(delay) = built.tnt_fuse_delay_ticks {
        server.schedule_tnt_ignition(delay);
    }
    let s = t.enter("cloud_sim.instantiate");
    let mut engine = config
        .environment
        .instantiate_at(seed, config.start_time)
        .engine;
    t.exit(s);

    let ticks_planned = config.ticks_per_iteration();
    let duration_ms = config.duration_secs as f64 * 1_000.0;
    let budget_ms = server.config().tick_budget_ms;
    let mut trace = TickTrace::new(budget_ms);
    let mut collector = SystemMetricsCollector::new(30);
    let mut crashed = None;
    let mut ticks_executed = 0;
    let mut stage_busy = TickStageBreakdown::default();
    let mut aggregator = config.metrics_window.map(|w| {
        WindowedAggregator::new(
            w.window_ticks.max(1) as usize,
            w.max_windows.max(1) as usize,
            budget_ms,
        )
    });
    let trace_cap = config
        .metrics_window
        .map_or(0, |w| w.window_ticks.max(1) as usize);
    let mut trace_tail: VecDeque<TickRecord> = VecDeque::with_capacity(trace_cap);
    t.exit(setup_span);
    let setup_s = start.elapsed().as_secs_f64();

    let loop_span = t.enter("core.tick_loop");
    while server.clock_ms() < duration_ms {
        let now = server.clock_ms();
        let s = t.enter("mlg_bots.generate_actions");
        emulation.generate_actions(now);
        t.exit(s);
        let s = t.enter("mlg_bots.deliver_to_server");
        emulation.deliver_to_server(now + DELIVERY_SLACK_MS, &mut server);
        t.exit(s);
        let s = t.enter("mlg_server.run_tick");
        let summary = server.run_tick(&mut engine);
        t.exit(s);
        let s = t.enter("mlg_bots.collect_from_server");
        emulation.collect_from_server(&mut server, &summary);
        t.exit(s);
        let s = t.enter("mlg_bots.receive");
        emulation.receive(summary.end_ms + DELIVERY_SLACK_MS);
        t.exit(s);

        ticks_executed += 1;
        stage_busy.accumulate(&summary.stages);
        counts.packets_emitted += summary.packets_emitted;
        let s = t.enter("core.record_tick");
        if let Some(agg) = aggregator.as_mut() {
            agg.push(summary.record.busy_ms);
            if trace_tail.len() == trace_cap {
                trace_tail.pop_front();
            }
            trace_tail.push_back(summary.record);
        } else {
            trace.push(summary.record);
        }
        collector.observe_tick(
            summary.end_ms,
            TickObservation {
                cpu_utilization: summary.cpu_utilization,
                entities: summary.entity_count as u64,
                loaded_chunks: server.world().loaded_chunk_count() as u64,
                players: summary.player_count as u32,
                network_sent_bytes: summary.packets_emitted * 40,
                network_received_bytes: summary.bytes_received,
                blocks_written: summary.packets_emitted / 4,
            },
        );
        t.exit(s);
        if let Some(crash) = summary.crash {
            crashed = Some(crash.reason);
            break;
        }
    }
    t.exit(loop_span);

    let s = t.enter("core.fold");
    let response_samples = emulation.response_samples().to_vec();
    let (instability_ratio, windowed) = match aggregator {
        Some(agg) => {
            for record in trace_tail {
                trace.push(record);
            }
            let report = agg.finish(Some(ticks_planned));
            (report.instability_ratio, Some(report))
        }
        None => (trace.instability_ratio(Some(ticks_planned)), None),
    };
    let result = IterationResult {
        flavor,
        workload: workload_kind,
        iteration: job.iteration,
        environment: config.environment.label(),
        instability_ratio,
        response: ResponseTimeSummary::of(&response_samples),
        response_samples,
        system_samples: collector.finish(),
        traffic: server.traffic_summary().clone(),
        ticks_executed,
        ticks_planned,
        crashed,
        trace,
        stage_busy,
        windowed,
    };
    t.exit(s);
    let s = t.enter("core.csv_row");
    let row = ledger::csv_row(job, &result);
    t.exit(s);
    drop((result, server, emulation));
    t.exit(job_span);

    counts.jobs += 1;
    counts.ticks += ticks_executed;
    counts.stage_busy.accumulate(&stage_busy);
    CellSample {
        setup_s,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: host::process_cpu_seconds() - cpu0,
        ticks: ticks_executed,
        rows: vec![row],
        kernel_s: [host::NOMINAL_KERNEL_SECONDS; 2],
    }
}

/// The span-derived metrics of one traced round.
fn round_layers(spans: &[Span], counts: &RoundCounts) -> Vec<Metric> {
    let self_ns = self_times_ns(spans);
    let total_ns = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum()
    };
    let ticks = counts.ticks.max(1) as f64;
    let jobs = counts.jobs.max(1) as f64;
    let run_tick_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "mlg_server.run_tick")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    let loop_self_ns: f64 = spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "core.tick_loop")
        .map(|(_, &ns)| ns as f64)
        .sum();
    let busy = &counts.stage_busy;
    let share = |ms: f64| ms / busy.total_ms().max(f64::MIN_POSITIVE);

    vec![
        // Set-up layers: summed over the round's jobs, so they add up to
        // (the traced run's) `setup_s`.
        (
            "workloads.build_ms",
            "ms",
            total_ns("workloads.build") / 1e6,
        ),
        ("mlg_server.new_ms", "ms", total_ns("mlg_server.new") / 1e6),
        (
            "mlg_bots.connect_all_ms",
            "ms",
            total_ns("mlg_bots.connect_all") / 1e6,
        ),
        (
            "cloud_sim.instantiate_us",
            "us",
            total_ns("cloud_sim.instantiate") / 1e3,
        ),
        ("core.job_setup_ms", "ms", total_ns("core.job_setup") / 1e6),
        // Tick loop: host time per simulated tick.
        ("mlg_server.run_tick_p50_us", "us", median(&run_tick_us)),
        (
            "mlg_server.run_tick_p99_us",
            "us",
            percentile(&run_tick_us, 99.0),
        ),
        (
            "mlg_server.run_tick_max_us",
            "us",
            percentile(&run_tick_us, 100.0),
        ),
        (
            "mlg_bots.generate_actions_us",
            "us",
            total_ns("mlg_bots.generate_actions") / 1e3 / ticks,
        ),
        (
            "mlg_bots.deliver_us",
            "us",
            total_ns("mlg_bots.deliver_to_server") / 1e3 / ticks,
        ),
        (
            "mlg_bots.collect_us",
            "us",
            total_ns("mlg_bots.collect_from_server") / 1e3 / ticks,
        ),
        (
            "mlg_bots.receive_us",
            "us",
            total_ns("mlg_bots.receive") / 1e3 / ticks,
        ),
        (
            "core.harness_self_us_per_tick",
            "us",
            loop_self_ns / 1e3 / ticks,
        ),
        // Result fold (ISR, response summary, system samples) per job.
        ("metrics.fold_us", "us", total_ns("core.fold") / 1e3 / jobs),
        // Simulated counts and modeled stage shares: exact, never timings.
        ("mlg_server.ticks", "count", counts.ticks as f64),
        (
            "mlg_server.packets_emitted",
            "count",
            counts.packets_emitted as f64,
        ),
        (
            "mlg_server.modeled_share.player",
            "ratio",
            share(busy.player_ms),
        ),
        (
            "mlg_server.modeled_share.terrain",
            "ratio",
            share(busy.terrain_ms),
        ),
        (
            "mlg_server.modeled_share.entity",
            "ratio",
            share(busy.entity_ms),
        ),
        (
            "mlg_server.modeled_share.lighting",
            "ratio",
            share(busy.lighting_ms),
        ),
        (
            "mlg_server.modeled_share.dissemination",
            "ratio",
            share(busy.dissemination_ms),
        ),
    ]
}

/// Everything a traced run produced.
pub struct TracedRun {
    pub workload: Workload,
    pub seed: u64,
    /// Every per-layer metric of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub mismatches: Vec<String>,
    traced_rounds: usize,
    run_tick_samples: usize,
    /// Spans of the last traced round (what the trace file holds).
    spans: Vec<Span>,
    job_labels: Vec<String>,
}

/// Replays `workload` traced and untraced in alternation, runs the
/// workload's identity checks, then the layer probes.
pub fn measure_traced(workload: Workload, seed: u64, seconds: f64) -> TracedRun {
    let campaigns = workloads::campaigns(workload.name, seed, workloads::MAX_THREADS);
    let jobs = ledger::plan_jobs(&campaigns);
    let mut tally = Tally::default();

    // Untraced reference: the real function, one job at a time.
    let warm_up = ledger::bracketed(&jobs, 1, ledger::run_job);
    let reference = ledger::reference_rows(workload.name, seed, &warm_up);
    let mut mismatches = tally.check("untraced warm-up round", &warm_up, &reference);

    let mut layers: Vec<Vec<Metric>> = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut untraced_rounds = Vec::new();
    let last_spans;
    // Traced and untraced rounds alternate (T U T U …) for the first 40 % of
    // `seconds`, ending on a traced round; the probes need the rest.
    let start = Instant::now();
    loop {
        let mut tracer = Tracer::new();
        let mut counts = RoundCounts::default();
        let traced = ledger::bracketed(&jobs, 1, |job| replay_job(job, &mut tracer, &mut counts));
        mismatches.extend(tally.check(
            &format!("traced round {}", layers.len() + 1),
            &traced,
            &reference,
        ));
        traced_rounds.push(traced);
        layers.push(round_layers(tracer.spans(), &counts));
        if layers.len() >= MIN_TRACED_ROUNDS && start.elapsed().as_secs_f64() > seconds * 0.4 {
            last_spans = tracer.spans;
            break;
        }
        let untraced = ledger::bracketed(&jobs, 1, ledger::run_job);
        mismatches.extend(tally.check("untraced round", &untraced, &reference));
        untraced_rounds.push(untraced);
    }

    // Identity checks that need a differently executed pass.
    if jobs.iter().any(|job| job.config.tick_threads > 1) {
        let serial = ledger::plan_jobs(&workloads::campaigns(workload.name, seed, 1));
        let cells: Vec<CellSample> = serial.iter().map(ledger::run_job).collect();
        mismatches.extend(tally.check("every cell at 1 tick thread", &cells, &reference));
    }
    if workload.drive == Drive::Sweep {
        let executors: [(&str, &dyn meterstick::Executor); 2] = [
            ("SequentialExecutor pass", &SequentialExecutor),
            (
                "ParallelExecutor pass",
                &ParallelExecutor::new(workloads::MAX_THREADS as usize),
            ),
        ];
        for (what, executor) in executors {
            let cells: Vec<CellSample> = campaigns
                .iter()
                .map(|c| ledger::run_sweep(c, executor))
                .collect();
            mismatches.extend(tally.check(what, &cells, &reference));
        }
    }

    // A span-derived metric is its median across the traced rounds.
    let mut metrics: Vec<Metric> = (0..layers[0].len())
        .map(|i| {
            let (name, unit, _) = layers[0][i];
            (
                name,
                unit,
                median(&layers.iter().map(|round| round[i].2).collect::<Vec<_>>()),
            )
        })
        .collect();
    // Tracing's own cost: both kinds of round through the ledger's estimator.
    let run_wall =
        |rounds: &[Vec<CellSample>]| ledger::sum_over_cells(rounds, |c| c.corrected(c.wall_s));
    let (traced_s, untraced_s) = (run_wall(&traced_rounds), run_wall(&untraced_rounds));
    metrics.push((
        "trace_overhead_pct",
        "%",
        (traced_s - untraced_s) / untraced_s * 100.0,
    ));
    metrics.extend(probes::run_all());

    // The driver reads exactly the declared per-layer metrics.
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|&(name, unit, _)| (name.to_string(), unit.to_string()))
        .collect();
    mismatches.extend(tally.check_that(
        emitted == contract::per_layer(),
        "the per-layer metrics emitted are not the ones BENCHMARK.json declares, in its order",
    ));

    TracedRun {
        workload,
        seed,
        metrics,
        tally,
        mismatches,
        traced_rounds: layers.len(),
        run_tick_samples: last_spans
            .iter()
            .filter(|s| s.name == "mlg_server.run_tick")
            .count(),
        spans: last_spans,
        job_labels: jobs.iter().map(IterationJob::label).collect(),
    }
}

impl TracedRun {
    /// The traced result file: per-layer metrics plus what they rest on.
    pub fn to_json(&self, commit: &str) -> Json {
        let tail = highest_supported_tail(self.run_tick_samples)
            .map_or(Json::Null, |p| Json::from(format!("p{p}").as_str()));
        Json::obj([
            ("kind", Json::from("perf_ledger.run")),
            ("workload", Json::from(self.workload.name)),
            ("why", Json::from(self.workload.why)),
            ("trace", Json::Num(1.0)),
            ("seed", Json::Num(self.seed as f64)),
            ("commit", Json::from(commit)),
            ("traced_rounds", Json::Num(self.traced_rounds as f64)),
            ("probe_samples", Json::Num(probes::SAMPLES as f64)),
            (
                "run_tick_samples_per_round",
                Json::Num(self.run_tick_samples as f64),
            ),
            ("run_tick_highest_supported_tail", tail),
            (
                "threads_available",
                Json::Num(ledger::available_threads() as f64),
            ),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", ledger::metrics_json(&self.metrics)),
        ])
    }

    /// The span file of the last traced round. Spans are rows of `columns`;
    /// `name` indexes `names`, `parent` is a span's row number or -1, `job`
    /// indexes `jobs`.
    pub fn trace_file(&self) -> Json {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let rows = self.spans.iter().map(|s| {
            let name = names.binary_search(&s.name).expect("name was collected") as f64;
            let parent = s.parent.map_or(-1.0, f64::from);
            Json::nums(&[
                name,
                s.start_ns as f64,
                s.end_ns as f64,
                parent,
                f64::from(s.job),
            ])
        });
        Json::obj([
            ("kind", Json::from("perf_ledger.trace")),
            ("workload", Json::from(self.workload.name)),
            ("seed", Json::Num(self.seed as f64)),
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "job"]
                        .map(Json::from)
                        .to_vec(),
                ),
            ),
            (
                "names",
                Json::Arr(names.iter().map(|n| Json::from(*n)).collect()),
            ),
            (
                "jobs",
                Json::Arr(
                    self.job_labels
                        .iter()
                        .map(|l| Json::from(l.as_str()))
                        .collect(),
                ),
            ),
            ("spans", Json::Arr(rows.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("job", 0, 100, None),      // children cover 30 + 50
            span("setup", 10, 40, Some(0)), // child covers 20
            span("build", 15, 35, Some(1)), // leaf
            span("loop", 40, 90, Some(0)),  // leaf
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 10, 20, 50]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_under_the_innermost_open_one() {
        let mut t = Tracer::new();
        t.job = 7;
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        let sibling = t.enter("sibling");
        t.exit(sibling);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.job == 7 && s.end_ns >= s.start_ns));
        assert!(
            spans[1].end_ns <= spans[2].start_ns,
            "siblings do not overlap"
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }
}
