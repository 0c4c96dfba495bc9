//! Figure 12 (MF5): tick time and ISR on the TNT workload for AWS node sizes.
//!
//! Runs the TNT workload on t3.large (L), t3.xlarge (XL) and t3.2xlarge
//! (2XL) nodes for every flavor, showing that the hosting providers'
//! recommended 2-vCPU size is insufficient. The node sizes are the
//! campaign's environment axis, so the whole figure is one campaign.

use cloud_sim::environment::Environment;
use cloud_sim::node::NodeType;
use meterstick::campaign::Campaign;
use meterstick::report::render_table;
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

use crate::{run_campaign, Cli};

pub fn run(cli: &Cli) {
    // The node-size effect only shows once the post-detonation chain reaction
    // has run for a while, so this figure always uses the paper's 60 s.
    let duration = cli.duration_secs().max(60);
    let nodes = [
        ("L (t3.large)", NodeType::aws_t3_large()),
        ("XL (t3.xlarge)", NodeType::aws_t3_xlarge()),
        ("2XL (t3.2xlarge)", NodeType::aws_t3_2xlarge()),
    ];
    let campaign = Campaign::new()
        .workloads([WorkloadKind::Tnt])
        .flavors(ServerFlavor::all())
        .environments(nodes.iter().map(|(_, node)| Environment::aws(node.clone())))
        .duration_secs(duration)
        .iterations(1);
    let results = run_campaign(cli, &campaign);

    let mut rows = Vec::new();
    for (label, node) in nodes {
        let env_label = Environment::aws(node).label();
        for flavor in ServerFlavor::all() {
            let cell = results.for_cell(WorkloadKind::Tnt, flavor, &env_label);
            let it = cell.first().expect("one iteration per cell");
            let p = it.tick_percentiles();
            rows.push(vec![
                label.to_string(),
                flavor.to_string(),
                format!("{:.1}", p.mean),
                format!("{:.1}", p.p50),
                format!("{:.1}", p.p75),
                format!("{:.1}", p.max),
                format!("{:.3}", it.instability_ratio),
                if it.crashed() {
                    "crashed".into()
                } else {
                    "-".into()
                },
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "node",
                "server",
                "mean [ms]",
                "median",
                "p75",
                "max",
                "ISR",
                "status"
            ],
            &rows
        )
    );
    println!("\nExpected shape (paper): the recommended L node is overloaded (mean tick");
    println!("above or near 50 ms with high ISR); XL improves but remains insufficient;");
    println!("2XL keeps mean tick time acceptable, though variability remains for");
    println!("Minecraft and Forge. PaperMC keeps the lowest mean tick time on every size.");
}
