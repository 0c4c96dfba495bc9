//! Benchmark results: per-iteration records and aggregate views.

use cloud_sim::metrics_collector::SystemSample;
use meterstick_metrics::response::ResponseTimeSummary;
use meterstick_metrics::stats::Percentiles;
use meterstick_metrics::trace::TickTrace;
use meterstick_metrics::windowed::WindowedReport;
use meterstick_metrics::TickDistribution;
use meterstick_workloads::WorkloadKind;
use mlg_protocol::TrafficSummary;
use mlg_server::{ServerFlavor, TickStageBreakdown};

use crate::campaign::{CampaignPlan, CellCoord};

/// Everything recorded for one iteration of one flavor under one workload.
#[derive(Debug, Clone)]
pub struct IterationResult {
    /// The system under test.
    pub flavor: ServerFlavor,
    /// The workload that was run.
    pub workload: WorkloadKind,
    /// Which iteration this is (0-based).
    pub iteration: u32,
    /// Environment label, e.g. `"AWS 2-core"`.
    pub environment: String,
    /// The per-tick trace.
    pub trace: TickTrace,
    /// Instability Ratio of the trace (Equation 1).
    pub instability_ratio: f64,
    /// Raw response-time samples from the chat prober, in milliseconds.
    pub response_samples: Vec<f64>,
    /// Response-time summary.
    pub response: ResponseTimeSummary,
    /// System-level metric samples (CPU, memory, threads, I/O).
    pub system_samples: Vec<SystemSample>,
    /// Clientbound traffic summary (entity/terrain/chat shares).
    pub traffic: TrafficSummary,
    /// Ticks actually executed (fewer than planned when the server crashed).
    pub ticks_executed: u64,
    /// Ticks the iteration was supposed to run.
    pub ticks_planned: u64,
    /// Crash reason if the server aborted during the iteration.
    pub crashed: Option<String>,
    /// Per-stage busy-time totals over the iteration, in milliseconds —
    /// the tick stage graph's breakdown (player handler, terrain,
    /// entities, lighting, dissemination, other) summed across all
    /// executed ticks. Attributes variability to pipeline stages the way
    /// the per-tick distribution attributes it to work classes.
    pub stage_busy: TickStageBreakdown,
    /// Windowed streaming aggregates, present only for long-horizon
    /// iterations run with
    /// [`BenchmarkConfig::metrics_window`](crate::config::BenchmarkConfig)
    /// set. When present, `trace` is bounded to the final window while
    /// `instability_ratio` still covers the full horizon (folded
    /// incrementally).
    pub windowed: Option<WindowedReport>,
}

impl IterationResult {
    /// Percentile summary of the tick busy times.
    #[must_use]
    pub fn tick_percentiles(&self) -> Percentiles {
        self.trace.percentiles()
    }

    /// The aggregate tick-time distribution over the iteration (Figure 11).
    #[must_use]
    pub fn tick_distribution(&self) -> TickDistribution {
        self.trace.aggregate_distribution()
    }

    /// Returns `true` if the server crashed before completing the iteration.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed.is_some()
    }
}

/// Aggregate results of a campaign run, in plan order, with per-flavor,
/// per-cell and per-coordinate grouping views.
#[derive(Debug, Clone, Default)]
pub struct CampaignResults {
    iterations: Vec<IterationResult>,
    coords: Vec<CellCoord>,
}

/// Per-cell aggregate produced by [`CampaignResults::cell_summaries`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// The cell's workload.
    pub workload: WorkloadKind,
    /// The cell's server flavor.
    pub flavor: ServerFlavor,
    /// The cell's environment label.
    pub environment: String,
    /// Number of iterations recorded for the cell.
    pub iterations: usize,
    /// Number of crashed iterations.
    pub crashes: usize,
    /// Mean Instability Ratio over the cell's iterations.
    pub mean_isr: f64,
}

impl CampaignResults {
    pub(crate) fn from_ordered(plan: &CampaignPlan, iterations: Vec<IterationResult>) -> Self {
        let coords = plan.jobs().iter().map(|job| job.coord).collect();
        CampaignResults { iterations, coords }
    }

    /// Results of one exact grid cell, identified by coordinate.
    #[must_use]
    pub fn for_coord(&self, coord: CellCoord) -> Vec<&IterationResult> {
        self.iterations()
            .iter()
            .zip(&self.coords)
            .filter(|(_, c)| **c == coord)
            .map(|(r, _)| r)
            .collect()
    }

    /// All iteration results in plan order.
    #[must_use]
    pub fn iterations(&self) -> &[IterationResult] {
        &self.iterations
    }

    /// Results of one flavor across every cell.
    #[must_use]
    pub fn for_flavor(&self, flavor: ServerFlavor) -> Vec<&IterationResult> {
        self.iterations
            .iter()
            .filter(|r| r.flavor == flavor)
            .collect()
    }

    /// Results of one exact grid cell, identified by (workload, flavor,
    /// environment label).
    ///
    /// Environments with identical labels are pooled; use
    /// [`Self::for_coord`] when a campaign contains same-label variants.
    #[must_use]
    pub fn for_cell(
        &self,
        workload: WorkloadKind,
        flavor: ServerFlavor,
        environment: &str,
    ) -> Vec<&IterationResult> {
        self.iterations()
            .iter()
            .filter(|r| {
                r.workload == workload && r.flavor == flavor && r.environment == environment
            })
            .collect()
    }

    /// The ISR values of every iteration of one flavor.
    #[must_use]
    pub fn isr_values(&self, flavor: ServerFlavor) -> Vec<f64> {
        self.for_flavor(flavor)
            .iter()
            .map(|r| r.instability_ratio)
            .collect()
    }

    /// All tick busy times of one flavor, pooled across iterations.
    #[must_use]
    pub fn pooled_tick_times(&self, flavor: ServerFlavor) -> Vec<f64> {
        self.for_flavor(flavor)
            .iter()
            .flat_map(|r| r.trace.busy_durations())
            .collect()
    }

    /// One aggregate row per grid cell, in plan order.
    ///
    /// Cells are grouped by grid *coordinate*, so two environments sharing
    /// a label still produce separate rows.
    #[must_use]
    pub fn cell_summaries(&self) -> Vec<CellSummary> {
        let mut seen: Vec<CellCoord> = Vec::new();
        let mut summaries: Vec<CellSummary> = Vec::new();
        for (it, coord) in self.iterations().iter().zip(&self.coords) {
            match seen.iter().position(|c| c == coord) {
                Some(idx) => {
                    let cell = &mut summaries[idx];
                    cell.iterations += 1;
                    cell.crashes += usize::from(it.crashed());
                    cell.mean_isr += it.instability_ratio;
                }
                None => {
                    seen.push(*coord);
                    summaries.push(CellSummary {
                        workload: it.workload,
                        flavor: it.flavor,
                        environment: it.environment.clone(),
                        iterations: 1,
                        crashes: usize::from(it.crashed()),
                        mean_isr: it.instability_ratio,
                    });
                }
            }
        }
        for cell in &mut summaries {
            cell.mean_isr /= cell.iterations as f64;
        }
        summaries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meterstick_metrics::trace::TickRecord;

    fn iteration(
        flavor: ServerFlavor,
        workload: WorkloadKind,
        isr: f64,
        crashed: bool,
    ) -> IterationResult {
        let mut trace = TickTrace::new(50.0);
        for i in 0..10 {
            trace.push(TickRecord {
                index: i,
                start_ms: i as f64 * 50.0,
                busy_ms: 10.0 + i as f64,
                period_ms: 50.0,
                distribution: TickDistribution::default(),
            });
        }
        IterationResult {
            flavor,
            workload,
            iteration: 0,
            environment: "AWS 2-core".into(),
            trace,
            instability_ratio: isr,
            response_samples: vec![40.0, 50.0],
            response: ResponseTimeSummary::of(&[40.0, 50.0]),
            system_samples: Vec::new(),
            traffic: TrafficSummary::default(),
            ticks_executed: 10,
            ticks_planned: 10,
            crashed: crashed.then(|| "stalled".to_string()),
            stage_busy: TickStageBreakdown::default(),
            windowed: None,
        }
    }

    /// A result set over hand-built iterations. The flavor- and
    /// label-keyed views under test never read the coordinates.
    fn results(iterations: Vec<IterationResult>) -> CampaignResults {
        CampaignResults {
            iterations,
            coords: Vec::new(),
        }
    }

    #[test]
    fn grouping_by_flavor_and_workload() {
        let results = results(vec![
            iteration(ServerFlavor::Vanilla, WorkloadKind::Control, 0.01, false),
            iteration(ServerFlavor::Vanilla, WorkloadKind::Tnt, 0.2, false),
            iteration(ServerFlavor::Paper, WorkloadKind::Tnt, 0.05, false),
        ]);
        assert_eq!(results.iterations().len(), 3);
        assert_eq!(results.for_flavor(ServerFlavor::Vanilla).len(), 2);
        assert_eq!(
            results
                .for_cell(WorkloadKind::Tnt, ServerFlavor::Vanilla, "AWS 2-core")
                .len(),
            1
        );
        assert_eq!(results.isr_values(ServerFlavor::Paper), vec![0.05]);
    }

    #[test]
    fn pooled_views_concatenate_iterations() {
        let results = results(vec![
            iteration(ServerFlavor::Forge, WorkloadKind::Players, 0.01, false),
            iteration(ServerFlavor::Forge, WorkloadKind::Players, 0.02, false),
        ]);
        assert_eq!(results.pooled_tick_times(ServerFlavor::Forge).len(), 20);
    }

    #[test]
    fn crash_counting() {
        let results = results(vec![
            iteration(ServerFlavor::Vanilla, WorkloadKind::Lag, 0.9, true),
            iteration(ServerFlavor::Vanilla, WorkloadKind::Lag, 0.9, false),
        ]);
        let crashed: Vec<bool> = results.iterations().iter().map(|r| r.crashed()).collect();
        assert_eq!(crashed, [true, false]);
    }

    #[test]
    fn iteration_summaries_are_consistent() {
        let it = iteration(ServerFlavor::Paper, WorkloadKind::Control, 0.0, false);
        assert_eq!(it.tick_percentiles().min, 10.0);
        assert_eq!(it.tick_percentiles().max, 19.0);
    }
}
