//! The untraced measurement: timed rounds over a workload's cells, the
//! exact-row correctness check, and the end-to-end metrics.
//!
//! Every timing here is **host time** — what a researcher waits for when a
//! figure is regenerated. Everything the simulator *outputs* (the `CsvSink`
//! row of each job) is a correctness check that must repeat exactly, never a
//! metric.
//!
//! Estimator: a workload is a fixed list of cells run round-robin for as
//! many rounds as fit into `--seconds` after one discarded warm-up round.
//! The reference kernel of [`crate::host`] is timed before and after every
//! cell, and each of the cell's timings is **corrected** to the nominal host
//! speed: `seconds × nominal kernel time ÷ mean adjacent kernel time`. A
//! cell's value is the **lower quartile across rounds** of its corrected
//! timings and a workload's time metric is the **sum of its cells' values**.
//!
//! Both choices are measured, not guessed. The sandbox's speed drifts by up
//! to 2x with a correlation time of tens of seconds to minutes — longer than
//! a run may last — so rounds inside one run cannot average it out, and the
//! noise is one-sided: a neighbour only ever takes time away. Over four sets
//! of ten 25-second runs of the three closed-loop workloads, the spread
//! between the quartiles of a set's ten values was, mean / worst of the
//! twelve: uncorrected median of rounds 14 % / 32 %; corrected median 8 % /
//! 17 %; corrected lower quartile 6 % / 11 %; corrected minimum 11 % / 18 %
//! (a kernel sample that caught a spike the cell did not makes a falsely low
//! corrected value, and the minimum picks exactly those).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use meterstick::campaign::{Campaign, IterationJob};
use meterstick::executor::Executor;
use meterstick::sink::{CsvSink, JsonlSink, ResultSink, TeeSink, CSV_COLUMNS};
use meterstick::{execute_iteration_observed, IterationResult, TickObserver};

use crate::host;
use crate::json::Json;
use crate::stats::{percentile, quartiles};
use crate::workloads::{self, Drive, Workload};

/// Timed rounds a run must contain however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// One execution of one cell: a single job (closed loop) or one campaign of
/// a sweep.
#[derive(Debug, Clone)]
pub struct CellSample {
    /// Call → first tick: world build, `GameServer::new`, `connect_all`,
    /// environment instantiation. For a sweep campaign: `plan()` + sink open.
    pub setup_s: f64,
    /// The whole cell including set-up, result fold and sink rows.
    pub wall_s: f64,
    /// Process CPU (user + system, all threads) over the same interval.
    pub cpu_s: f64,
    /// Simulated ticks executed (exact; also a column of every row).
    pub ticks: u64,
    /// One `CsvSink` row per job, in plan order.
    pub rows: Vec<String>,
    /// The reference kernel's seconds right before and right after the cell
    /// ([`bracketed`] fills them in; nominal until then).
    pub kernel_s: [f64; 2],
}

impl CellSample {
    /// `seconds` of this cell at the nominal host speed.
    pub fn corrected(&self, seconds: f64) -> f64 {
        let kernel_s = (self.kernel_s[0] + self.kernel_s[1]) / 2.0;
        seconds * host::NOMINAL_KERNEL_SECONDS / kernel_s
    }
}

/// Runs `cell` on every item in order, timing the reference kernel — on as
/// many threads as a cell keeps busy — before the first, between neighbours
/// and after the last, so each sample knows the host's speed on both of its
/// sides.
pub fn bracketed<T>(
    items: &[T],
    threads: u32,
    mut cell: impl FnMut(&T) -> CellSample,
) -> Vec<CellSample> {
    let mut before = host::reference_kernel_seconds_on(threads);
    items
        .iter()
        .map(|item| {
            let mut sample = cell(item);
            let after = host::reference_kernel_seconds_on(threads);
            sample.kernel_s = [before, after];
            before = after;
            sample
        })
        .collect()
}

/// Reads the clock once: the first `should_abort` poll happens right before
/// the first tick, i.e. at the end of set-up.
#[derive(Default)]
struct SetupClock {
    first_poll: Option<Instant>,
}

impl TickObserver for SetupClock {
    fn should_abort(&mut self) -> bool {
        if self.first_poll.is_none() {
            self.first_poll = Some(Instant::now());
        }
        false
    }
}

/// The jobs of `campaigns` in plan order, campaigns concatenated, each with
/// its world pinned.
///
/// Every job builds the world of [`workloads::DEFAULT_SEED`] while its bots,
/// scatter and environment still draw from the job seed that `--seed`
/// produced. The simulator seeds terrain generation with the campaign seed,
/// and what 220 builders dig into decides what a tick costs: the same Crowd
/// cell took 0.5 s on one generated terrain and 2.1 s on another (water next
/// to the spawn point floods every edit). A seed must reshuffle a workload,
/// not turn it into a different one, or the run-to-run spread across seeds
/// would measure terrain instead of the simulator.
pub fn plan_jobs(campaigns: &[Campaign]) -> Vec<IterationJob> {
    let mut jobs: Vec<IterationJob> = campaigns
        .iter()
        .flat_map(|c| {
            c.plan()
                .expect("workload campaigns are valid")
                .jobs()
                .to_vec()
        })
        .collect();
    jobs.iter_mut()
        .for_each(|job| job.config.base_seed = workloads::DEFAULT_SEED);
    jobs
}

/// The header line `CsvSink` writes.
pub fn csv_header() -> String {
    CSV_COLUMNS.join(",")
}

/// The row `CsvSink` writes for one finished job.
pub fn csv_row(job: &IterationJob, result: &IterationResult) -> String {
    let mut sink = CsvSink::new(Vec::new());
    sink.on_result(job, result);
    let bytes = sink.into_inner();
    String::from_utf8_lossy(&bytes).trim_end().to_string()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Runs one job through `execute_iteration_observed` and its row through
/// `CsvSink`. A panic becomes a `FAILED` row, which no reference row equals.
pub fn run_job(job: &IterationJob) -> CellSample {
    let cpu0 = host::process_cpu_seconds();
    let start = Instant::now();
    let mut clock = SetupClock::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let result = execute_iteration_observed(
            &job.config,
            job.flavor,
            job.iteration,
            job.seed,
            &mut clock,
        );
        (result.ticks_executed, csv_row(job, &result))
    }));
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_seconds() - cpu0;
    let setup_s = clock
        .first_poll
        .map_or(wall_s, |t| (t - start).as_secs_f64());
    let (ticks, row) = outcome.unwrap_or_else(|payload| {
        (
            0,
            format!(
                "FAILED {}: {}",
                job.label(),
                panic_message(payload.as_ref())
            ),
        )
    });
    CellSample {
        setup_s,
        wall_s,
        cpu_s,
        ticks,
        rows: vec![row],
        kernel_s: [host::NOMINAL_KERNEL_SECONDS; 2],
    }
}

/// Records the plan index of each result in arrival order, so a parallel
/// executor's completion-ordered CSV lines can be put back into plan order.
#[derive(Default)]
struct ArrivalOrder(Vec<usize>);

impl ResultSink for ArrivalOrder {
    fn on_result(&mut self, job: &IterationJob, _result: &IterationResult) {
        self.0.push(job.index);
    }
}

/// Runs `campaign` through `Campaign::run_with` on `executor`, streaming
/// into an in-memory `CsvSink` + `JsonlSink` pair.
pub fn run_sweep(campaign: &Campaign, executor: &dyn Executor) -> CellSample {
    let cpu0 = host::process_cpu_seconds();
    let start = Instant::now();
    let jobs = campaign
        .plan()
        .expect("workload campaigns are valid")
        .jobs()
        .len();
    let mut csv = CsvSink::new(Vec::new());
    let mut jsonl = JsonlSink::new(Vec::new());
    let mut order = ArrivalOrder::default();
    let setup_s = start.elapsed().as_secs_f64();

    let mut files = TeeSink::new(&mut csv, &mut jsonl);
    let outcome = campaign.run_with(executor, &mut TeeSink::new(&mut files, &mut order));
    let csv_text = String::from_utf8_lossy(&csv.into_inner()).into_owned();
    let jsonl_lines = jsonl.into_inner().iter().filter(|&&b| b == b'\n').count();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_seconds() - cpu0;

    let mut rows = vec![String::new(); jobs];
    for (line, &index) in csv_text.lines().skip(1).zip(&order.0) {
        rows[index] = line.to_string();
    }
    let failure = match &outcome {
        Err(err) => Some(err.to_string()),
        Ok(_) if jsonl_lines != jobs => Some(format!("{jsonl_lines} JSONL lines for {jobs} jobs")),
        Ok(_) => None,
    };
    if let Some(failure) = failure {
        rows.iter_mut()
            .for_each(|row| *row = format!("FAILED sweep: {failure}"));
    }
    CellSample {
        setup_s,
        wall_s,
        cpu_s,
        ticks: outcome.map_or(0, |results| {
            results.iterations().iter().map(|r| r.ticks_executed).sum()
        }),
        rows,
        kernel_s: [host::NOMINAL_KERNEL_SECONDS; 2],
    }
}

/// Counts rows checked and rows that differ from the reference.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Holds `cells`' rows, flattened in plan order, against `reference`; a
    /// missing or extra row fails too. Returns a message per mismatch.
    pub fn check(&mut self, what: &str, cells: &[CellSample], reference: &[String]) -> Vec<String> {
        let rows: Vec<&String> = cells.iter().flat_map(|c| &c.rows).collect();
        let checked = rows.len().max(reference.len());
        let mut mismatches = Vec::new();
        for i in 0..checked {
            if rows.get(i).copied() != reference.get(i) {
                mismatches.push(format!(
                    "{what}: row {i} differs\n  expected: {}\n  got:      {}",
                    reference.get(i).map_or("<none>", String::as_str),
                    rows.get(i).map_or("<none>", |r| r.as_str()),
                ));
            }
        }
        self.attempted += checked as u64;
        self.failed += mismatches.len() as u64;
        mismatches
    }

    /// Counts one more check; `message` comes back when it did not hold.
    pub fn check_that(&mut self, holds: bool, message: &str) -> Option<String> {
        self.attempted += 1;
        self.failed += u64::from(!holds);
        (!holds).then(|| message.to_string())
    }
}

/// The committed `CsvSink` rows of `workload` for [`workloads::DEFAULT_SEED`].
fn golden_rows(workload: &str) -> Vec<String> {
    let text = match workload {
        "env_worlds" => include_str!("../golden/env_worlds.csv"),
        "player_crowd" => include_str!("../golden/player_crowd.csv"),
        "sharded_horde" => include_str!("../golden/sharded_horde.csv"),
        "campaign_sweep" => include_str!("../golden/campaign_sweep.csv"),
        other => panic!("no golden rows for workload {other:?}"),
    };
    text.lines().skip(1).map(str::to_string).collect()
}

/// The rows every round must reproduce: the golden rows on the default seed,
/// otherwise the rows of `first_round`.
pub fn reference_rows(workload: &str, seed: u64, first_round: &[CellSample]) -> Vec<String> {
    if seed == workloads::DEFAULT_SEED {
        golden_rows(workload)
    } else {
        first_round.iter().flat_map(|c| c.rows.clone()).collect()
    }
}

/// One round: every cell once, in plan order.
pub fn run_round(
    workload: Workload,
    campaigns: &[Campaign],
    jobs: &[IterationJob],
) -> Vec<CellSample> {
    match workload.drive {
        Drive::ClosedLoop => bracketed(jobs, 1, run_job),
        Drive::Sweep => {
            let executor = meterstick::ParallelExecutor::new(workloads::MAX_THREADS as usize);
            bracketed(campaigns, workloads::MAX_THREADS, |campaign| {
                run_sweep(campaign, &executor)
            })
        }
    }
}

/// Everything an untraced run measured.
pub struct Ledger {
    pub workload: Workload,
    pub seed: u64,
    /// Label of each cell, in plan order.
    pub cells: Vec<String>,
    /// Timed rounds; `rounds[r][c]` is cell `c` in round `r`.
    pub rounds: Vec<Vec<CellSample>>,
    /// Rows of the warm-up round (what `--write-golden` commits).
    pub first_rows: Vec<String>,
    pub tally: Tally,
    pub mismatches: Vec<String>,
    pub peak_rss_mb: f64,
}

/// Runs `workload` for about `seconds` of timed rounds after one warm-up.
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> Ledger {
    let campaigns = workloads::campaigns(workload.name, seed, workloads::MAX_THREADS);
    let jobs = plan_jobs(&campaigns);
    let cells = match workload.drive {
        Drive::ClosedLoop => jobs.iter().map(IterationJob::label).collect(),
        Drive::Sweep => campaigns
            .iter()
            .map(|c| {
                let plan = c.plan().expect("workload campaigns are valid");
                format!(
                    "{} and {} more jobs via run_with",
                    plan.jobs()[0].label(),
                    plan.jobs().len() - 1
                )
            })
            .collect(),
    };

    let warm_up = run_round(workload, &campaigns, &jobs);
    let reference = reference_rows(workload.name, seed, &warm_up);
    let mut tally = Tally::default();
    let mut mismatches = tally.check("warm-up round", &warm_up, &reference);

    let mut rounds: Vec<Vec<CellSample>> = Vec::new();
    let start = Instant::now();
    loop {
        let round = run_round(workload, &campaigns, &jobs);
        mismatches.extend(tally.check(&format!("round {}", rounds.len() + 1), &round, &reference));
        rounds.push(round);
        // Start another round only if it is expected to end inside the budget.
        let elapsed = start.elapsed().as_secs_f64();
        let next_end = elapsed + elapsed / rounds.len() as f64;
        if rounds.len() >= MIN_ROUNDS && next_end > seconds {
            break;
        }
    }
    Ledger {
        workload,
        seed,
        cells,
        rounds,
        first_rows: warm_up.into_iter().flat_map(|c| c.rows).collect(),
        tally,
        mismatches,
        peak_rss_mb: host::peak_rss_mib(),
    }
}

/// Sum over cells of each cell's lower quartile of `value` across `rounds`.
pub fn sum_over_cells(rounds: &[Vec<CellSample>], value: impl Fn(&CellSample) -> f64) -> f64 {
    let cells = rounds.first().map_or(0, Vec::len);
    (0..cells)
        .map(|c| {
            percentile(
                &rounds
                    .iter()
                    .map(|round| value(&round[c]))
                    .collect::<Vec<_>>(),
                25.0,
            )
        })
        .sum()
}

/// An end-to-end metric as printed: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

impl Ledger {
    /// Simulated ticks of one round (identical in every round by the row check).
    pub fn ticks(&self) -> u64 {
        self.rounds[0].iter().map(|c| c.ticks).sum()
    }

    /// The five end-to-end metrics, in `BENCHMARK.json` order; timings are
    /// corrected to the nominal host speed.
    pub fn metrics(&self) -> Vec<Metric> {
        let rounds = &self.rounds;
        let ticking_s = sum_over_cells(rounds, |c| c.corrected(c.wall_s - c.setup_s));
        vec![
            (
                "setup_s",
                "s",
                sum_over_cells(rounds, |c| c.corrected(c.setup_s)),
            ),
            (
                "run_wall_s",
                "s",
                sum_over_cells(rounds, |c| c.corrected(c.wall_s)),
            ),
            ("sim_ticks_per_s", "1/s", self.ticks() as f64 / ticking_s),
            (
                "cpu_s",
                "s",
                sum_over_cells(rounds, |c| c.corrected(c.cpu_s)),
            ),
            ("peak_rss_mb", "MiB", self.peak_rss_mb),
        ]
    }

    /// The result file: the metrics, what they would read uncorrected, every
    /// cell's per-round samples, and the host-state record.
    pub fn to_json(&self, commit: &str) -> Json {
        let rounds = &self.rounds;
        let per_round = |c: usize, value: fn(&CellSample) -> f64| {
            Json::nums(&rounds.iter().map(|r| value(&r[c])).collect::<Vec<_>>())
        };
        let cells = self.cells.iter().enumerate().map(|(c, label)| {
            Json::obj([
                ("cell", Json::from(label.as_str())),
                ("ticks", Json::Num(rounds[0][c].ticks as f64)),
                ("setup_s", per_round(c, |s| s.setup_s)),
                ("wall_s", per_round(c, |s| s.wall_s)),
                ("cpu_s", per_round(c, |s| s.cpu_s)),
                ("kernel_before_s", per_round(c, |s| s.kernel_s[0])),
                ("kernel_after_s", per_round(c, |s| s.kernel_s[1])),
            ])
        });
        let kernel: Vec<f64> = rounds.iter().flatten().map(|c| c.kernel_s[0]).collect();
        let [k1, k2, k3] = quartiles(&kernel);
        Json::obj([
            ("kind", Json::from("perf_ledger.run")),
            ("workload", Json::from(self.workload.name)),
            ("why", Json::from(self.workload.why)),
            ("trace", Json::Num(0.0)),
            ("seed", Json::Num(self.seed as f64)),
            ("commit", Json::from(commit)),
            ("rounds", Json::Num(rounds.len() as f64)),
            ("threads_available", Json::Num(available_threads() as f64)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", metrics_json(&self.metrics())),
            (
                "uncorrected",
                Json::obj([
                    ("setup_s", Json::Num(sum_over_cells(rounds, |c| c.setup_s))),
                    ("run_wall_s", Json::Num(sum_over_cells(rounds, |c| c.wall_s))),
                    ("cpu_s", Json::Num(sum_over_cells(rounds, |c| c.cpu_s))),
                ]),
            ),
            (
                "host_state",
                Json::obj([
                    ("what", Json::from("seconds of the reference kernel around each cell; a record, not a metric")),
                    ("nominal", Json::Num(host::NOMINAL_KERNEL_SECONDS)),
                    ("p25", Json::Num(k1)),
                    ("p50", Json::Num(k2)),
                    ("p75", Json::Num(k3)),
                    ("n", Json::Num(kernel.len() as f64)),
                ]),
            ),
            ("cells", Json::Arr(cells.collect())),
        ])
    }
}

pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `{"name": {"value": v, "unit": "u"}, …}` as the contract's result line
/// and the result files carry it.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|&(name, unit, value)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(setup_s: f64, wall_s: f64) -> CellSample {
        CellSample {
            setup_s,
            wall_s,
            cpu_s: wall_s,
            ticks: 10,
            rows: vec!["row".into()],
            kernel_s: [host::NOMINAL_KERNEL_SECONDS; 2],
        }
    }

    #[test]
    fn workload_metric_is_the_sum_of_per_cell_lower_quartiles() {
        // Five rounds: the lower quartile is the second-lowest sample, 2.0
        // for cell 0 and 9.0 for cell 1 — slow rounds (the 9.0 and 50.0) move
        // neither, and neither does a single falsely fast one (the 1.0, 8.0).
        let rounds = vec![
            vec![cell(0.0, 1.0), cell(0.0, 10.0)],
            vec![cell(0.0, 9.0), cell(0.0, 50.0)],
            vec![cell(0.0, 2.0), cell(0.0, 8.0)],
            vec![cell(0.0, 3.0), cell(0.0, 9.0)],
            vec![cell(0.0, 4.0), cell(0.0, 11.0)],
        ];
        assert_eq!(sum_over_cells(&rounds, |c| c.wall_s), 11.0);
    }

    /// The simulated output depends on `--seed` and on nothing else: one
    /// job of each kind of drive, run twice on one seed and once on another.
    #[test]
    fn same_seed_reproduces_rows_and_another_seed_changes_them() {
        let first_job =
            |seed| plan_jobs(&workloads::campaigns("player_crowd", seed, 1)).swap_remove(0);
        let without_seed_column = |row: &str| {
            let seed_column = CSV_COLUMNS
                .iter()
                .position(|c| *c == "seed")
                .expect("seed column");
            let cells: Vec<&str> = row.split(',').collect();
            [&cells[..seed_column], &cells[seed_column + 1..]]
                .concat()
                .join(",")
        };
        let (a, again, b) = (
            run_job(&first_job(1)),
            run_job(&first_job(1)),
            run_job(&first_job(2)),
        );
        assert!(
            a.ticks > 0 && !a.rows[0].starts_with("FAILED"),
            "{}",
            a.rows[0]
        );
        assert_eq!(a.rows, again.rows);
        assert_ne!(
            without_seed_column(&a.rows[0]),
            without_seed_column(&b.rows[0])
        );
        assert!(a.setup_s > 0.0 && a.setup_s < a.wall_s && a.cpu_s > 0.0);
    }

    #[test]
    fn sweep_rows_come_back_in_plan_order_on_any_executor() {
        let campaign = meterstick::campaign::Campaign::new()
            .workloads([meterstick_workloads::WorkloadKind::Control])
            .flavors([
                mlg_server::ServerFlavor::Vanilla,
                mlg_server::ServerFlavor::Paper,
            ])
            .environments([cloud_sim::environment::Environment::aws_default()])
            .iterations(2)
            .duration_secs(1);
        let sequential = run_sweep(&campaign, &meterstick::SequentialExecutor);
        let parallel = run_sweep(&campaign, &meterstick::ParallelExecutor::new(2));
        assert_eq!(sequential.rows.len(), 4);
        assert_eq!(sequential.rows, parallel.rows);
        let by_hand: Vec<String> = plan_jobs(&[campaign])
            .iter()
            .flat_map(|job| run_job(job).rows)
            .collect();
        assert_eq!(sequential.rows, by_hand);
        assert_eq!(sequential.ticks, parallel.ticks);
    }

    #[test]
    fn end_to_end_metrics_are_the_declared_ones() {
        let ledger = Ledger {
            workload: workloads::WORKLOADS[0],
            seed: 1,
            cells: vec!["cell".into()],
            rounds: vec![
                vec![cell(0.25, 1.0)],
                vec![cell(0.25, 3.0)],
                vec![cell(0.75, 2.0)],
                vec![cell(0.5, 2.5)],
                vec![cell(1.0, 4.0)],
            ],
            first_rows: vec!["row".into()],
            tally: Tally::default(),
            mismatches: Vec::new(),
            peak_rss_mb: 12.5,
        };
        let metrics = ledger.metrics();
        let declared: Vec<(String, String)> = crate::contract::end_to_end()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect();
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|&(name, unit, _)| (name.to_string(), unit.to_string()))
            .collect();
        assert_eq!(emitted, declared);
        // Lower quartiles (second-lowest of five): set-up 0.25, wall 2.0,
        // ticking time 1.25 of (0.75, 2.75, 1.25, 2.0, 3.0).
        assert_eq!(metrics[0].2, 0.25);
        assert_eq!(metrics[1].2, 2.0);
        assert_eq!(metrics[2].2, 10.0 / 1.25);
        // The result file parses back and carries the same values.
        let file = crate::json::parse(&ledger.to_json("abc").to_string()).expect("valid JSON");
        let value = |name: &str| file.get("metrics")?.get(name)?.get("value")?.as_f64();
        assert_eq!(value("run_wall_s"), Some(2.0));
        assert_eq!(file.get("rounds").and_then(Json::as_f64), Some(5.0));
    }

    #[test]
    fn timings_are_corrected_by_the_adjacent_kernel_time() {
        // A host running the kernel twice as slowly doubles a cell's raw
        // time; corrected, the cell reads the same.
        let slow = CellSample {
            kernel_s: [
                1.5 * host::NOMINAL_KERNEL_SECONDS,
                2.5 * host::NOMINAL_KERNEL_SECONDS,
            ],
            ..cell(0.5, 4.0)
        };
        assert_eq!(slow.corrected(slow.wall_s), 2.0);
        assert_eq!(cell(0.25, 2.0).corrected(2.0), 2.0);
        // `bracketed` times the kernel once between neighbours.
        let samples = bracketed(&[1.0, 2.0, 3.0], 2, |&wall_s| cell(0.0, wall_s));
        assert_eq!(
            samples.iter().map(|c| c.wall_s).collect::<Vec<_>>(),
            [1.0, 2.0, 3.0]
        );
        assert!(samples
            .iter()
            .all(|c| c.kernel_s[0] > 0.0 && c.kernel_s[1] > 0.0));
        assert_eq!(samples[0].kernel_s[1], samples[1].kernel_s[0]);
        assert_eq!(samples[1].kernel_s[1], samples[2].kernel_s[0]);
    }

    #[test]
    fn tally_counts_differing_missing_and_extra_rows() {
        let reference = vec!["a".to_string(), "b".to_string()];
        let same = [
            CellSample {
                rows: vec!["a".into()],
                ..cell(0.0, 1.0)
            },
            CellSample {
                rows: vec!["b".into()],
                ..cell(0.0, 1.0)
            },
        ];
        let mut tally = Tally::default();
        assert!(tally.check("same", &same, &reference).is_empty());
        assert_eq!((tally.attempted, tally.failed), (2, 0));

        let differs = [CellSample {
            rows: vec!["a".into(), "x".into(), "c".into()],
            ..cell(0.0, 1.0)
        }];
        assert_eq!(tally.check("differs", &differs, &reference).len(), 2);
        assert_eq!((tally.attempted, tally.failed), (5, 2));

        assert_eq!(tally.check("missing", &[], &reference).len(), 2);
        assert_eq!((tally.attempted, tally.failed), (7, 4));
    }
}
