//! Streaming result sinks: observers that consume [`IterationResult`]s as
//! they complete.
//!
//! A [`ResultSink`] is attached to a campaign run via
//! [`Campaign::run_with`]; executors call it once per finished iteration
//! *as soon as that iteration finishes*, so reports and figure binaries can
//! stream rows (CSV, progress lines) instead of materializing every result
//! before presenting anything. With a parallel executor the calls arrive in
//! completion order, not plan order; each call carries the originating
//! [`IterationJob`] so sinks can label rows without assuming order.
//!
//! [`Campaign::run_with`]: crate::campaign::Campaign::run_with

use std::io::Write;

use mlg_server::TickStageBreakdown;

use crate::campaign::{override_label, CampaignPlan, IterationJob};
use crate::report::csv_row;
use crate::results::IterationResult;

/// One executed tick's live metrics, forwarded to sinks *while* an
/// iteration runs (unlike [`IterationResult`], which arrives only when the
/// iteration finishes).
///
/// Batch executors do not emit these — fanning per-tick callbacks through
/// worker threads would serialize the hot loop — so CSV campaigns are
/// unaffected. The benchmark daemon's resident loop runs iterations
/// in-process via
/// [`execute_iteration_observed`](crate::experiment::execute_iteration_observed)
/// and bridges every tick into its sink stack, which is how the same
/// [`ResultSink`] implementations serve both batch files and live
/// dashboards.
#[derive(Debug, Clone, Copy)]
pub struct TickSample {
    /// Tick sequence number within the iteration (0-based).
    pub tick: u64,
    /// Virtual time at which the tick ended, ms since iteration start.
    pub end_ms: f64,
    /// Tick computation time, ms.
    pub busy_ms: f64,
    /// Full tick period (`max(busy, budget)` plus catch-up backlog), ms.
    pub period_ms: f64,
    /// The server's tick budget (50 ms at 20 Hz), for overload judgements.
    pub budget_ms: f64,
    /// Per-stage busy-time breakdown of this tick.
    pub stages: TickStageBreakdown,
    /// Live entities after the tick.
    pub entity_count: usize,
    /// Connected players after the tick.
    pub player_count: usize,
}

impl TickSample {
    /// `true` when the tick's computation ran past its budget (the
    /// numerator of the paper's ISR definition).
    #[must_use]
    pub fn is_overloaded(&self) -> bool {
        self.busy_ms > self.budget_ms
    }
}

/// Observer of a campaign run; all methods have no-op defaults so sinks
/// implement only what they need.
pub trait ResultSink {
    /// Called once before the first job starts.
    fn on_campaign_start(&mut self, plan: &CampaignPlan) {
        let _ = plan;
    }

    /// Called once per executed tick of a live-observed run (the daemon
    /// path; batch executors never call this — see [`TickSample`]).
    fn on_tick(&mut self, job: &IterationJob, sample: &TickSample) {
        let _ = (job, sample);
    }

    /// Called once per finished iteration, in completion order.
    fn on_result(&mut self, job: &IterationJob, result: &IterationResult) {
        let _ = (job, result);
    }

    /// Called once after the last job finished.
    fn on_campaign_end(&mut self) {}
}

/// A sink that ignores everything; the default for [`Campaign::run`].
///
/// [`Campaign::run`]: crate::campaign::Campaign::run
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ResultSink for NullSink {}

/// The line-at-a-time writer behind [`CsvSink`] and [`JsonlSink`]: write
/// errors are not propagated into the benchmark run; the first one is
/// retained and silences every later write.
#[derive(Debug)]
struct LineWriter<W: Write> {
    writer: W,
    error: Option<std::io::Error>,
}

impl<W: Write> LineWriter<W> {
    fn new(writer: W) -> Self {
        LineWriter {
            writer,
            error: None,
        }
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_none() {
            self.error = writeln!(self.writer, "{line}").err();
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            self.error = self.writer.flush().err();
        }
    }
}

/// Streams one CSV summary row per iteration into any [`Write`] target.
///
/// The header is written when the campaign starts. Write errors are not
/// propagated into the benchmark run; the first one is retained and can be
/// inspected with [`CsvSink::error`].
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    out: LineWriter<W>,
    header_written: bool,
}

/// Column headers of the per-iteration CSV stream. The `stage_*_ms`
/// columns carry the tick stage graph's per-stage busy-time totals
/// (milliseconds summed over the iteration's ticks), so a CSV diff across
/// architecture axes shows *which stage* an optimization moved.
/// `dissemination_bytes` is the iteration's total clientbound traffic as
/// delivered (per-recipient wire bytes, including join-time chunk
/// streaming) — under area-of-interest dissemination this shrinks with the
/// summed interest-set sizes while the assembled packet stream stays the
/// same. `start_time` (trailing, so older tooling that indexes columns
/// positionally keeps working) is the simulated point of the week the
/// iteration started at, e.g. `mon-00:00` — a seed-excluded sweep axis
/// like `tick_threads`.
pub const CSV_COLUMNS: [&str; 23] = [
    "workload",
    "flavor",
    "environment",
    "shard_rebalance",
    "eager_lighting",
    "iteration",
    "seed",
    "ticks_executed",
    "ticks_planned",
    "isr",
    "tick_p50_ms",
    "tick_max_ms",
    "response_p50_ms",
    "response_p95_ms",
    "stage_player_ms",
    "stage_terrain_ms",
    "stage_entity_ms",
    "stage_lighting_ms",
    "stage_dissemination_ms",
    "stage_other_ms",
    "crashed",
    "dissemination_bytes",
    "start_time",
];

impl<W: Write> CsvSink<W> {
    /// Creates a sink writing to `writer`.
    pub fn new(writer: W) -> Self {
        CsvSink {
            out: LineWriter::new(writer),
            header_written: false,
        }
    }

    /// The first write error encountered, if any.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.out.error.as_ref()
    }

    /// Consumes the sink and returns the writer.
    pub fn into_inner(self) -> W {
        self.out.writer
    }
}

impl<W: Write> ResultSink for CsvSink<W> {
    fn on_campaign_start(&mut self, _plan: &CampaignPlan) {
        // One header per sink, not per campaign: the same sink may observe
        // several campaigns back to back (e.g. the determinism probe's
        // stationary + temporal passes streaming into one file).
        if !self.header_written {
            self.header_written = true;
            self.out.write_line(&CSV_COLUMNS.join(","));
        }
    }

    fn on_result(&mut self, job: &IterationJob, result: &IterationResult) {
        let ticks = result.tick_percentiles();
        let mut cells = vec![
            result.workload.to_string(),
            result.flavor.to_string(),
            result.environment.clone(),
            override_label(job.config.shard_rebalance, "on", "off", "default").into(),
            override_label(job.config.eager_lighting, "eager", "pipelined", "default").into(),
            result.iteration.to_string(),
            job.seed.to_string(),
            result.ticks_executed.to_string(),
            result.ticks_planned.to_string(),
            format!("{:.6}", result.instability_ratio),
            format!("{:.3}", ticks.p50),
            format!("{:.3}", ticks.max),
            format!("{:.3}", result.response.percentiles.p50),
            format!("{:.3}", result.response.percentiles.p95),
        ];
        cells.extend(result.stage_busy.as_array().map(|ms| format!("{ms:.3}")));
        cells.extend([
            result.crashed.clone().unwrap_or_default(),
            result.traffic.total_bytes().to_string(),
            job.config.start_time.to_string(),
        ]);
        self.out.write_line(&csv_row(&cells));
    }

    fn on_campaign_end(&mut self) {
        self.out.flush();
    }
}

/// Prints one human-readable progress line per finished iteration.
#[derive(Debug)]
pub struct ProgressSink<W: Write> {
    writer: W,
    total: usize,
    done: usize,
}

impl<W: Write> ProgressSink<W> {
    /// Creates a sink printing to `writer` (e.g. `std::io::stderr()`).
    pub fn new(writer: W) -> Self {
        ProgressSink {
            writer,
            total: 0,
            done: 0,
        }
    }
}

impl<W: Write> ResultSink for ProgressSink<W> {
    fn on_campaign_start(&mut self, plan: &CampaignPlan) {
        self.total = plan.jobs().len();
        self.done = 0;
    }

    fn on_result(&mut self, job: &IterationJob, result: &IterationResult) {
        self.done += 1;
        let status = if result.crashed() { "CRASHED" } else { "ok" };
        let _ = writeln!(
            self.writer,
            "[{:>3}/{}] {}: ISR {:.4}, {} ticks, {status}",
            self.done,
            self.total,
            job.label(),
            result.instability_ratio,
            result.ticks_executed,
        );
    }
}

/// Streams newline-delimited JSON for dashboards: one `{"type":"tick",…}`
/// object per observed tick and one `{"type":"iteration",…}` object per
/// finished iteration.
///
/// JSON is assembled by hand (the vendored serde shim has no serializer to
/// arbitrary writers); every string field passes through [`json_escape`].
/// Write errors are retained rather than propagated, mirroring
/// [`CsvSink`]: the first one is inspectable via [`JsonlSink::error`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: LineWriter<W>,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a sink writing one JSON object per line to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            out: LineWriter::new(writer),
        }
    }

    /// The first write error encountered, if any.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.out.error.as_ref()
    }

    /// Consumes the sink and returns the writer.
    pub fn into_inner(self) -> W {
        self.out.writer
    }
}

/// Escapes a string for inclusion in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one observed tick as the `{"type":"tick",…}` JSON object shared
/// by [`JsonlSink`] lines and the daemon's SSE tick events.
#[must_use]
pub fn tick_json(job: &IterationJob, sample: &TickSample) -> String {
    let mut object = format!(
        concat!(
            "{{\"type\":\"tick\",\"job\":\"{}\",\"tick\":{},\"end_ms\":{:.3},",
            "\"busy_ms\":{:.3},\"period_ms\":{:.3},\"overloaded\":{}"
        ),
        json_escape(&job.label()),
        sample.tick,
        sample.end_ms,
        sample.busy_ms,
        sample.period_ms,
        sample.is_overloaded(),
    );
    for (stage, ms) in TickStageBreakdown::NAMES
        .iter()
        .zip(sample.stages.as_array())
    {
        object.push_str(&format!(",\"stage_{stage}_ms\":{ms:.3}"));
    }
    object.push_str(&format!(
        ",\"entities\":{},\"players\":{}}}",
        sample.entity_count, sample.player_count
    ));
    object
}

impl<W: Write> ResultSink for JsonlSink<W> {
    fn on_tick(&mut self, job: &IterationJob, sample: &TickSample) {
        self.out.write_line(&tick_json(job, sample));
    }

    fn on_result(&mut self, job: &IterationJob, result: &IterationResult) {
        let ticks = result.tick_percentiles();
        let line = format!(
            concat!(
                "{{\"type\":\"iteration\",\"job\":\"{}\",\"workload\":\"{}\",",
                "\"flavor\":\"{}\",\"environment\":\"{}\",\"iteration\":{},",
                "\"seed\":{},\"ticks_executed\":{},\"ticks_planned\":{},",
                "\"isr\":{:.6},\"tick_p50_ms\":{:.3},\"tick_max_ms\":{:.3},",
                "\"dissemination_bytes\":{},\"start_time\":\"{}\",\"crashed\":{}}}"
            ),
            json_escape(&job.label()),
            json_escape(&result.workload.to_string()),
            json_escape(&result.flavor.to_string()),
            json_escape(&result.environment),
            result.iteration,
            job.seed,
            result.ticks_executed,
            result.ticks_planned,
            result.instability_ratio,
            ticks.p50,
            ticks.max,
            result.traffic.total_bytes(),
            job.config.start_time,
            result.crashed(),
        );
        self.out.write_line(&line);
    }

    fn on_campaign_end(&mut self) {
        self.out.flush();
    }
}

/// Fans every callback out to two sinks, so e.g. a CSV stream and a progress
/// display can observe the same run.
#[derive(Debug)]
pub struct TeeSink<'a> {
    first: &'a mut dyn ResultSink,
    second: &'a mut dyn ResultSink,
}

impl<'a> TeeSink<'a> {
    /// Combines two sinks.
    pub fn new(first: &'a mut dyn ResultSink, second: &'a mut dyn ResultSink) -> Self {
        TeeSink { first, second }
    }
}

impl ResultSink for TeeSink<'_> {
    fn on_campaign_start(&mut self, plan: &CampaignPlan) {
        self.first.on_campaign_start(plan);
        self.second.on_campaign_start(plan);
    }

    fn on_tick(&mut self, job: &IterationJob, sample: &TickSample) {
        self.first.on_tick(job, sample);
        self.second.on_tick(job, sample);
    }

    fn on_result(&mut self, job: &IterationJob, result: &IterationResult) {
        self.first.on_result(job, result);
        self.second.on_result(job, result);
    }

    fn on_campaign_end(&mut self) {
        self.first.on_campaign_end();
        self.second.on_campaign_end();
    }
}

impl std::fmt::Debug for dyn ResultSink + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ResultSink")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use cloud_sim::environment::Environment;
    use meterstick_workloads::WorkloadKind;
    use mlg_server::ServerFlavor;

    fn one_second_of_control() -> Campaign {
        Campaign::new()
            .workloads([WorkloadKind::Control])
            .flavors([ServerFlavor::Vanilla])
            .environments([Environment::das5(2)])
            .duration_secs(1)
    }

    fn sample() -> TickSample {
        TickSample {
            tick: 7,
            end_ms: 411.5,
            busy_ms: 61.5,
            period_ms: 61.5,
            budget_ms: 50.0,
            stages: TickStageBreakdown::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 46.5]),
            entity_count: 12,
            player_count: 3,
        }
    }

    /// Takes `room` lines, then reports a full disk.
    #[derive(Debug, Default)]
    struct FullDisk {
        room: usize,
        lines: usize,
        refused: usize,
        flushes: usize,
    }

    impl Write for FullDisk {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.lines == self.room {
                self.refused += 1;
                return Err(std::io::Error::other("disk full"));
            }
            self.lines += buf.iter().filter(|&&byte| byte == b'\n').count();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn stage_columns_follow_the_stage_list() {
        let first = CSV_COLUMNS
            .iter()
            .position(|column| column.starts_with("stage_"))
            .expect("the CSV has stage columns");
        for (column, stage) in CSV_COLUMNS[first..].iter().zip(TickStageBreakdown::NAMES) {
            assert_eq!(*column, format!("stage_{stage}_ms"));
        }
    }

    #[test]
    fn tick_objects_are_pinned_and_shared_with_the_jsonl_sink() {
        let plan = one_second_of_control().plan().unwrap();
        let job = &plan.jobs()[0];
        let expected = concat!(
            r#"{"type":"tick","job":"Control × Minecraft @ DAS-5 2-core #0","tick":7,"#,
            r#""end_ms":411.500,"busy_ms":61.500,"period_ms":61.500,"overloaded":true,"#,
            r#""stage_player_ms":1.000,"stage_terrain_ms":2.000,"stage_entity_ms":3.000,"#,
            r#""stage_lighting_ms":4.000,"stage_dissemination_ms":5.000,"#,
            r#""stage_other_ms":46.500,"entities":12,"players":3}"#,
        );
        assert_eq!(tick_json(job, &sample()), expected);
        let mut jsonl = JsonlSink::new(Vec::new());
        jsonl.on_tick(job, &sample());
        assert_eq!(jsonl.into_inner(), format!("{expected}\n").into_bytes());
    }

    #[test]
    fn one_header_then_one_row_per_result_across_campaigns() {
        let campaign = one_second_of_control();
        let mut csv = CsvSink::new(Vec::new());
        for _ in 0..2 {
            campaign
                .run_with(&crate::executor::SequentialExecutor, &mut csv)
                .unwrap();
        }
        let text = String::from_utf8(csv.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(lines[0], CSV_COLUMNS.join(","));
        assert_eq!(lines[1], lines[2], "same campaign, same row");
        assert_eq!(lines[1].split(',').count(), CSV_COLUMNS.len());
    }

    #[test]
    fn the_first_write_error_is_kept_and_silences_the_sink() {
        let campaign = one_second_of_control();
        let plan = campaign.plan().unwrap();
        let result = campaign.run().unwrap().iterations()[0].clone();
        let job = &plan.jobs()[0];

        let mut csv = CsvSink::new(FullDisk::default());
        csv.on_campaign_start(&plan);
        let error = csv.error().map(ToString::to_string);
        assert_eq!(error.as_deref(), Some("disk full"));
        csv.on_result(job, &result);
        csv.on_campaign_end();
        let disk = csv.into_inner();
        assert_eq!(
            (disk.refused, disk.flushes),
            (1, 0),
            "silent after the error"
        );

        // A sink that worked for a while fails the same way.
        let mut jsonl = JsonlSink::new(FullDisk {
            room: 1,
            ..FullDisk::default()
        });
        jsonl.on_tick(job, &sample());
        assert!(jsonl.error().is_none());
        jsonl.on_result(job, &result);
        assert!(jsonl.error().is_some());
        jsonl.on_tick(job, &sample());
        jsonl.on_campaign_end();
        let disk = jsonl.into_inner();
        assert_eq!((disk.lines, disk.refused, disk.flushes), (1, 1, 0));
    }
}
