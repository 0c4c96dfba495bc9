//! Figure 9 (MF2): tick time over time for each MLG on AWS.
//!
//! Prints a downsampled time series of tick durations for every flavor under
//! the Control, Farm, TNT and Players workloads on the AWS environment (the
//! Lag workload is omitted because it crashes on AWS, as in the paper).

use cloud_sim::environment::Environment;
use meterstick::campaign::Campaign;
use meterstick::report::render_table;
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

use crate::{run_campaign, Cli};

pub fn run(cli: &Cli) {
    let environment = Environment::aws_default();
    let workloads = [
        WorkloadKind::Control,
        WorkloadKind::Farm,
        WorkloadKind::Tnt,
        WorkloadKind::Players,
    ];
    // One campaign covers the whole figure: 4 workloads × 3 flavors.
    let campaign = Campaign::new()
        .workloads(workloads)
        .flavors(ServerFlavor::all())
        .environments([environment.clone()])
        .duration_secs(cli.duration_secs())
        .iterations(1);
    let results = run_campaign(cli, &campaign);

    for workload in workloads {
        println!("\n--- {workload} workload (overloaded above 50 ms) ---");
        let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
        for flavor in ServerFlavor::all() {
            let cell = results.for_cell(workload, flavor, &environment.label());
            let it = cell.first().expect("one iteration per cell");
            series.push((flavor.to_string(), it.trace.time_series(12)));
        }
        // Render one row per sampled time point, one column per flavor.
        let points = series.iter().map(|(_, s)| s.len()).min().unwrap_or(0);
        let mut rows = Vec::new();
        for i in 0..points {
            let t = series[0].1[i].0 / 1_000.0;
            let mut row = vec![format!("{t:.1}s")];
            for (_, s) in &series {
                row.push(format!("{:.1}", s[i].1));
            }
            rows.push(row);
        }
        println!(
            "{}",
            render_table(
                &["time", "Minecraft [ms]", "Forge [ms]", "PaperMC [ms]"],
                &rows
            )
        );
    }
    println!("\nExpected shape (paper): Control is flat and low; Farm fluctuates at high");
    println!("frequency; TNT spikes to very large values after the detonation; PaperMC");
    println!("stays below the 50 ms threshold far more often than Minecraft and Forge.");
}
