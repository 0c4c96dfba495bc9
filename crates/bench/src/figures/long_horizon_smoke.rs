//! Long-horizon smoke: four simulated hours through the windowed streaming
//! aggregator, asserting that metric memory stays flat with horizon.
//!
//! Runs one four-hour Control iteration on the diurnal AWS environment
//! with `Campaign::metrics_window` enabled: ticks fold into one-minute
//! window summaries (1 200 ticks each) with at most the trailing hour (60
//! windows) retained, instead of materializing a ~288 000-record trace.
//! The entry asserts the memory bounds — retained windows and retained
//! trace records never exceed their caps while the closed-window counter
//! proves every executed tick was folded — and prints the retained tail so
//! the diurnal drift is visible: the run starts Thursday 16:00 and crosses
//! into the evening tenancy peak at 17:00.
//!
//! CI runs this as the long-horizon smoke job; the asserts make memory
//! growth a hard failure, not a graph someone has to look at.

use cloud_sim::environment::Environment;
use cloud_sim::node::NodeType;
use cloud_sim::temporal::StartTime;
use meterstick::campaign::Campaign;
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

use crate::{run_campaign, Cli};

/// Simulated horizon: four hours of wall-clock at 20 Hz.
const HORIZON_SECS: u64 = 4 * 3600;
/// Ticks per aggregation window: one simulated minute.
const WINDOW_TICKS: u32 = 1_200;
/// Retained window summaries: the trailing simulated hour.
const MAX_WINDOWS: u32 = 60;

pub fn run(cli: &Cli) {
    let campaign = Campaign::new()
        .workloads([WorkloadKind::Control])
        .flavors([ServerFlavor::Vanilla])
        .environments([Environment::aws_diurnal(NodeType::aws_t3_xlarge())])
        .start_times([StartTime::from_day_hour_minute(3, 16, 0)])
        .metrics_window(WINDOW_TICKS, MAX_WINDOWS)
        .duration_secs(HORIZON_SECS)
        .seed(20_260_807)
        .iterations(1);
    let results = run_campaign(cli, &campaign);
    let it = &results.iterations()[0];
    let windowed = it
        .windowed
        .as_ref()
        .expect("metrics_window campaigns produce a windowed report");

    // The loop runs by virtual time, so overloaded ticks (period > budget)
    // shrink the executed count below the 20 Hz plan — the folded-window
    // expectation comes from what actually executed.
    let expected_windows = it.ticks_executed.div_ceil(u64::from(WINDOW_TICKS));
    println!(
        "horizon: {HORIZON_SECS} simulated seconds ({} ticks)",
        it.ticks_executed
    );
    println!(
        "windows closed: {} (expected {expected_windows}), retained: {} (cap {MAX_WINDOWS})",
        windowed.windows_closed,
        windowed.windows.len(),
    );
    println!(
        "retained trace records: {} (cap {WINDOW_TICKS})",
        it.trace.len()
    );
    println!(
        "cumulative: mean {:.2} ms, CoV {:.3}, ISR {:.4}",
        windowed.mean_ms, windowed.cov, windowed.instability_ratio
    );
    println!("\nretained window tail (one row per 10 simulated minutes):");
    println!(
        "{:>8} {:>12} {:>10} {:>8} {:>10}",
        "window", "mean [ms]", "p95 [ms]", "CoV", "overloaded"
    );
    for w in windowed.windows.iter().step_by(10) {
        println!(
            "{:>8} {:>12.2} {:>10.2} {:>8.3} {:>10}",
            w.index, w.mean_ms, w.p95_ms, w.cov, w.overloaded
        );
    }

    // The actual smoke assertions: flat memory, full-horizon coverage.
    assert!(
        !it.crashed(),
        "the XL node should survive the Control workload: {:?}",
        it.crashed
    );
    assert_eq!(
        windowed.windows_closed, expected_windows,
        "every executed tick of the horizon must be folded into a window"
    );
    assert!(
        windowed.windows.len() <= MAX_WINDOWS as usize,
        "retained window history must stay bounded, got {}",
        windowed.windows.len()
    );
    assert!(
        it.trace.len() <= WINDOW_TICKS as usize,
        "retained trace must be bounded to the final window, got {}",
        it.trace.len()
    );
    assert_eq!(
        windowed.total_ticks, it.ticks_executed,
        "the aggregator must have seen every executed tick"
    );
    println!(
        "\nlong-horizon smoke: OK (memory flat, {} ticks folded)",
        windowed.total_ticks
    );
}
