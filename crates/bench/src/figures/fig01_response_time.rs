//! Figure 1: Minecraft response time in the AWS cloud, Control vs Farm world.
//!
//! The paper's opening figure shows that even with a single connected player,
//! the vanilla server's response time on an AWS node ranges from good
//! (< 60 ms) to unplayable (> 118 ms) once a resource-farm world is loaded.

use meterstick::report::{ascii_boxplot, render_table};
use meterstick_metrics::response::{NOTICEABLE_DELAY_MS, UNPLAYABLE_MS};
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

use crate::{aws_cell, run_campaigns, Cli};

pub fn run(cli: &Cli) {
    let mut rows = Vec::new();
    let mut gauges = Vec::new();
    let workloads = [WorkloadKind::Control, WorkloadKind::Farm];
    let cells = workloads.map(|workload| aws_cell(cli, workload, ServerFlavor::Vanilla));
    for (workload, results) in workloads.into_iter().zip(run_campaigns(cli, &cells)) {
        let it = &results.iterations()[0];
        let r = it.response;
        rows.push(vec![
            workload.to_string(),
            format!("{}", it.response_samples.len()),
            format!("{:.1}", r.percentiles.p50),
            format!("{:.1}", r.percentiles.mean),
            format!("{:.1}", r.percentiles.p95),
            format!("{:.1}", r.percentiles.max),
            format!("{:.0}%", r.noticeable_fraction * 100.0),
            format!("{:.0}%", r.unplayable_fraction * 100.0),
        ]);
        gauges.push((workload.to_string(), it.response.boxplot));
    }
    println!(
        "{}",
        render_table(
            &["world", "samples", "median", "mean", "p95", "max", ">60ms", ">118ms"],
            &rows
        )
    );
    println!("response time distribution (0..300 ms, thresholds: noticeable {NOTICEABLE_DELAY_MS} ms, unplayable {UNPLAYABLE_MS} ms):");
    for (label, boxplot) in gauges {
        println!("{label:>8} {}", ascii_boxplot(&boxplot, 300.0, 60));
    }
    println!("\nExpected shape (paper): Farm shifts the distribution right and past the");
    println!("noticeable/unplayable thresholds while Control stays mostly below them.");
}
