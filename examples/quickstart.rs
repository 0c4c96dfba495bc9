//! Quickstart: declare a small benchmark campaign — workloads × servers ×
//! iterations — run it in one call, and print the headline Meterstick
//! metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use cloud_sim::environment::Environment;
use meterstick::campaign::Campaign;
use meterstick::executor::ParallelExecutor;
use meterstick::report::render_table;
use meterstick::sink::NullSink;
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

fn main() {
    // 1. Declare the sweep: every combination of these workloads, servers
    //    and iterations is one independent, seeded job.
    let campaign = Campaign::new()
        .workloads([WorkloadKind::Control, WorkloadKind::Farm])
        .flavors([ServerFlavor::Vanilla, ServerFlavor::Paper])
        .environments([Environment::aws_default()])
        .duration_secs(20)
        .iterations(2);

    // 2. Run it — here fanned out across threads; the results are
    //    bit-identical to a sequential run because each job derives all its
    //    randomness from its own seed. Everything executes in simulated
    //    (virtual) time, so this finishes in seconds of wall-clock time.
    //    Invalid configuration surfaces as an `Err`, never a panic.
    let results = campaign
        .run_with(&ParallelExecutor::default(), &mut NullSink)
        .expect("the campaign configuration is valid");

    // 3. Inspect the results: tick-time statistics, the Instability Ratio
    //    and the response-time summary per iteration.
    let mut rows = Vec::new();
    for it in results.iterations() {
        let ticks = it.tick_percentiles();
        rows.push(vec![
            it.workload.to_string(),
            it.flavor.to_string(),
            format!("#{}", it.iteration),
            format!("{}", it.ticks_executed),
            format!("{:.1}", ticks.mean),
            format!("{:.1}", ticks.max),
            format!("{:.4}", it.instability_ratio),
            format!("{:.1}", it.response.percentiles.p50),
            format!("{:.1}", it.response.percentiles.max),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "server",
                "iter",
                "ticks",
                "mean tick [ms]",
                "max tick [ms]",
                "ISR",
                "median RTT [ms]",
                "max RTT [ms]"
            ],
            &rows
        )
    );

    // 4. Or aggregate per grid cell.
    println!("per-cell summary:");
    let mut rows = Vec::new();
    for cell in results.cell_summaries() {
        rows.push(vec![
            cell.workload.to_string(),
            cell.flavor.to_string(),
            cell.environment.clone(),
            format!("{}", cell.iterations),
            format!("{:.4}", cell.mean_isr),
            format!("{}", cell.crashes),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "server",
                "environment",
                "iters",
                "mean ISR",
                "crashes"
            ],
            &rows
        )
    );
    println!("Next steps: `cargo run --release -p meterstick-bench` lists every figure and");
    println!("table of the paper; e.g. `cargo run --release -p meterstick-bench -- fig08_isr_workloads`.");
}
