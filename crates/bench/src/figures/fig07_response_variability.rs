//! Figure 7 (MF1): game response time under environment-based workloads.
//!
//! Boxplots (5th/95th percentile whiskers, mean, max) of player-action
//! response time for Minecraft and Forge on AWS under the Control, Farm and
//! TNT workloads. PaperMC is omitted exactly as in the paper: its
//! asynchronous chat thread answers the probe without waiting for the tick.

use meterstick::report::{ascii_boxplot, render_table};
use meterstick_metrics::response::UNPLAYABLE_MS;
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

use crate::{aws_cell, run_campaigns, Cli};

pub fn run(cli: &Cli) {
    let (mut cells, mut campaigns) = (Vec::new(), Vec::new());
    for workload in [WorkloadKind::Control, WorkloadKind::Farm, WorkloadKind::Tnt] {
        for flavor in [ServerFlavor::Vanilla, ServerFlavor::Forge] {
            cells.push((workload, flavor));
            campaigns.push(aws_cell(cli, workload, flavor));
        }
    }
    let mut rows = Vec::new();
    let mut gauges = Vec::new();
    for ((workload, flavor), results) in cells.into_iter().zip(run_campaigns(cli, &campaigns)) {
        let r = results.iterations()[0].response;
        rows.push(vec![
            workload.to_string(),
            flavor.to_string(),
            format!("{:.1}", r.percentiles.p5),
            format!("{:.1}", r.percentiles.p50),
            format!("{:.1}", r.percentiles.mean),
            format!("{:.1}", r.percentiles.p95),
            format!("{:.1}", r.percentiles.max),
            format!("{:.1}x", r.max_over_mean),
            format!("{:.1}x", r.max_over_unplayable),
        ]);
        gauges.push((format!("{workload}/{flavor}"), r.boxplot));
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "server",
                "p5",
                "median",
                "mean",
                "p95",
                "max",
                "max/mean",
                "max/unplayable"
            ],
            &rows
        )
    );
    println!("\nresponse-time gauges (0..600 ms; unplayable at {UNPLAYABLE_MS} ms):");
    for (label, boxplot) in gauges {
        println!("{label:>18} {}", ascii_boxplot(&boxplot, 600.0, 60));
    }
    println!("\nExpected shape (paper): means/medians look acceptable while maxima exceed");
    println!("the unplayable threshold by large factors; TNT and Farm are far worse than Control.");
}
