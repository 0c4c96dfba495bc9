//! Node sizing advisor: how much cloud hardware does an MLG need before
//! performance variability becomes acceptable? Reproduces the reasoning
//! behind the paper's insight I4 (providers should raise their hardware
//! recommendations) using the TNT stress workload.
//!
//! Run with: `cargo run --release --example node_sizing`

use cloud_sim::environment::Environment;
use cloud_sim::node::NodeType;
use cloud_sim::recommendations::{summarize, table7_recommendations};
use meterstick::campaign::Campaign;
use meterstick::report::render_table;
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

fn main() {
    let survey = summarize(&table7_recommendations());
    println!(
        "Hosting providers most commonly recommend {} vCPU / {} GB RAM (Table 7).",
        survey.modal_vcpus, survey.modal_ram_gb
    );
    println!("Stress-testing that recommendation with the TNT workload:\n");

    let nodes = [
        NodeType::aws_t3_large(),
        NodeType::aws_t3_xlarge(),
        NodeType::aws_t3_2xlarge(),
    ];
    // The node-size axis is a campaign dimension: one TNT run per AWS size.
    let results = Campaign::new()
        .workloads([WorkloadKind::Tnt])
        .flavors([ServerFlavor::Vanilla])
        .environments(nodes.iter().cloned().map(Environment::aws))
        .duration_secs(30)
        .iterations(1)
        .run()
        .expect("valid campaign configuration");

    let mut rows = Vec::new();
    for node in nodes {
        let label = node.name.clone();
        let env_label = Environment::aws(node).label();
        let cell = results.for_cell(WorkloadKind::Tnt, ServerFlavor::Vanilla, &env_label);
        let it = cell.first().expect("one iteration per node size");
        let p = it.tick_percentiles();
        let verdict = if p.mean > 50.0 {
            "overloaded"
        } else if it.instability_ratio > 0.05 {
            "unstable"
        } else {
            "acceptable"
        };
        rows.push(vec![
            label,
            format!("{:.1}", p.mean),
            format!("{:.1}", p.p95),
            format!("{:.1}", p.max),
            format!("{:.3}", it.instability_ratio),
            verdict.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "node",
                "mean tick [ms]",
                "p95 [ms]",
                "max [ms]",
                "ISR",
                "verdict"
            ],
            &rows
        )
    );
    println!("\nAs in the paper's MF5/I4: the commonly recommended 2-vCPU size cannot absorb");
    println!("environment-based workloads; 8 vCPUs are needed for consistently smooth operation.");
}
