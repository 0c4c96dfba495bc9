//! Figure 10 (MF3): tick time and ISR across many iterations of the Players
//! workload on DAS-5, Azure and AWS.
//!
//! The paper runs 50 iterations per environment; pass `--full` for 50, the
//! default is 10 so the figure regenerates quickly.

use cloud_sim::environment::Environment;
use meterstick::campaign::Campaign;
use meterstick::report::render_table;
use meterstick_metrics::stats::Percentiles;
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

use crate::{run_campaign, Cli};

pub fn run(cli: &Cli) {
    let iterations = if cli.full { 50 } else { 10 };
    let duration = if cli.full { 60 } else { 20 };
    let environments = vec![
        Environment::das5(2),
        Environment::azure_default(),
        Environment::aws_default(),
    ];
    // 3 environments × 3 flavors × N iterations as one campaign.
    let campaign = Campaign::new()
        .workloads([WorkloadKind::Players])
        .flavors(ServerFlavor::all())
        .environments(environments.iter().cloned())
        .duration_secs(duration)
        .iterations(iterations);
    let results = run_campaign(cli, &campaign);

    let mut isr_rows = Vec::new();
    let mut tick_rows = Vec::new();
    let mut das5_max_isr: f64 = 0.0;
    let mut cloud_min_isr = f64::INFINITY;
    for environment in &environments {
        for flavor in ServerFlavor::all() {
            let cell = results.for_cell(WorkloadKind::Players, flavor, &environment.label());
            let isr: Vec<f64> = cell.iter().map(|r| r.instability_ratio).collect();
            let isr_p = Percentiles::of(&isr);
            let ticks: Vec<f64> = cell.iter().flat_map(|r| r.trace.busy_durations()).collect();
            let tick_p = Percentiles::of(&ticks);
            if environment.label().starts_with("DAS-5") {
                das5_max_isr = das5_max_isr.max(isr_p.max);
            } else {
                cloud_min_isr = cloud_min_isr.min(isr_p.min);
            }
            isr_rows.push(vec![
                environment.label(),
                flavor.to_string(),
                format!("{:.4}", isr_p.min),
                format!("{:.4}", isr_p.p50),
                format!("{:.4}", isr_p.max),
                format!("{:.4}", isr_p.iqr()),
            ]);
            tick_rows.push(vec![
                environment.label(),
                flavor.to_string(),
                format!("{:.1}", tick_p.p50),
                format!("{:.1}", tick_p.mean),
                format!("{:.1}", tick_p.iqr()),
                format!("{:.1}", tick_p.max),
            ]);
        }
    }
    println!("\nISR distribution over {iterations} iterations:");
    println!(
        "{}",
        render_table(
            &["environment", "server", "min", "median", "max", "IQR"],
            &isr_rows
        )
    );
    println!("tick-time distribution (pooled over iterations) [ms]:");
    println!(
        "{}",
        render_table(
            &["environment", "server", "median", "mean", "IQR", "max"],
            &tick_rows
        )
    );
    println!("\nKey MF3 check: minimum cloud ISR ({cloud_min_isr:.4}) vs maximum DAS-5 ISR ({das5_max_isr:.4})");
    println!("Expected shape (paper): clouds show higher medians and far larger");
    println!("inter-iteration IQR than the self-hosted DAS-5 node.");
}
