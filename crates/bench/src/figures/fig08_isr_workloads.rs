//! Figure 8 (MF2): ISR for each MLG and workload on AWS and DAS-5.
//!
//! Instability Ratio of every flavor under the five workloads in three
//! environment configurations: AWS 2-core, DAS-5 2-core and DAS-5 16-core.
//! In the paper the Lag workload crashes every MLG on AWS; the reproduction
//! reports the same crash.
//!
//! The whole figure is one factorial campaign — 5 workloads × 3 flavors ×
//! 3 environments in a single `Campaign::run` call.

use cloud_sim::environment::Environment;
use meterstick::campaign::Campaign;
use meterstick::report::render_table;
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

use crate::{run_campaign, Cli};

pub fn run(cli: &Cli) {
    let environments = [
        Environment::aws_default(),
        Environment::das5(2),
        Environment::das5(16),
    ];
    let campaign = Campaign::new()
        .workloads(WorkloadKind::all())
        .flavors(ServerFlavor::all())
        .environments(environments.iter().cloned())
        .duration_secs(cli.duration_secs())
        .iterations(1);
    let results = run_campaign(cli, &campaign);

    for environment in &environments {
        println!("\n--- {} ---", environment.label());
        let mut rows = Vec::new();
        for workload in WorkloadKind::all() {
            let mut row = vec![workload.to_string()];
            for flavor in ServerFlavor::all() {
                let cell = results.for_cell(workload, flavor, &environment.label());
                let it = cell.first().expect("one iteration per cell");
                if it.crashed() {
                    row.push("crashed".into());
                } else {
                    row.push(format!("{:.3}", it.instability_ratio));
                }
            }
            rows.push(row);
        }
        println!(
            "{}",
            render_table(&["workload", "Minecraft", "Forge", "PaperMC"], &rows)
        );
    }
    println!("\nExpected shape (paper): environment-based workloads (Farm, TNT, Lag) have");
    println!("much higher ISR than Control/Players; Lag crashes on AWS but not on DAS-5;");
    println!("PaperMC is least affected; the 16-core DAS-5 node changes little because the");
    println!("game loop is single-threaded.");
}
