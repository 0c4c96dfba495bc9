//! Calibration utility: prints per-workload tick-time statistics for every
//! flavor on the key environments. Not a paper figure; used to sanity-check
//! that the workload magnitudes land in the intended regimes (Control well
//! under the 50 ms budget, Farm/TNT overloading a 2-vCPU cloud node, Lag
//! crashing on AWS but not on DAS-5).

use cloud_sim::environment::Environment;
use meterstick::campaign::Campaign;
use meterstick::report::render_table;
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

use crate::{run_campaign, Cli};

pub fn run(cli: &Cli) {
    let environments = vec![Environment::das5(2), Environment::aws_default()];
    let flavors = [ServerFlavor::Vanilla, ServerFlavor::Paper];
    // The whole grid — 2 environments × 5 workloads × 2 flavors — is one
    // factorial campaign.
    let campaign = Campaign::new()
        .workloads(WorkloadKind::all())
        .flavors(flavors)
        .environments(environments.iter().cloned())
        .duration_secs(20)
        .iterations(1);
    let results = run_campaign(cli, &campaign);

    let mut rows = Vec::new();
    for environment in &environments {
        for workload in WorkloadKind::all() {
            for flavor in flavors {
                let cell = results.for_cell(workload, flavor, &environment.label());
                let it = cell.first().expect("one iteration per cell");
                let p = it.tick_percentiles();
                rows.push(vec![
                    environment.label(),
                    workload.to_string(),
                    flavor.to_string(),
                    format!("{:.1}", p.mean),
                    format!("{:.1}", p.p50),
                    format!("{:.1}", p.p95),
                    format!("{:.1}", p.max),
                    format!("{:.3}", it.instability_ratio),
                    if it.crashed() {
                        "CRASH".into()
                    } else {
                        "-".into()
                    },
                ]);
            }
        }
    }
    println!(
        "{}",
        render_table(
            &["env", "workload", "server", "mean", "p50", "p95", "max", "ISR", "status"],
            &rows
        )
    );
}
