//! Table 8 (MF4): share of network messages and bytes related to entities.
//!
//! For every flavor and the Control/Farm/TNT workloads on AWS, prints the
//! percentage of clientbound messages that are entity-related and the
//! percentage of clientbound bytes they account for.

use cloud_sim::environment::Environment;
use meterstick::campaign::Campaign;
use meterstick::report::render_table;
use meterstick_workloads::WorkloadKind;
use mlg_protocol::TrafficCategory;
use mlg_server::ServerFlavor;

use crate::{run_campaign, Cli};

pub fn run(cli: &Cli) {
    let environment = Environment::aws_default();
    let workloads = [WorkloadKind::Control, WorkloadKind::Farm, WorkloadKind::Tnt];
    let campaign = Campaign::new()
        .workloads(workloads)
        .flavors(ServerFlavor::all())
        .environments([environment.clone()])
        .duration_secs(cli.duration_secs())
        .iterations(1);
    let results = run_campaign(cli, &campaign);

    let mut rows = Vec::new();
    for flavor in ServerFlavor::all() {
        for workload in workloads {
            let cell = results.for_cell(workload, flavor, &environment.label());
            let it = cell.first().expect("one iteration per cell");
            rows.push(vec![
                flavor.to_string(),
                workload.to_string(),
                format!(
                    "{:.1}",
                    it.traffic.message_share_percent(TrafficCategory::Entity)
                ),
                format!(
                    "{:.1}",
                    it.traffic.byte_share_percent(TrafficCategory::Entity)
                ),
                format!("{}", it.traffic.total_messages()),
                format!("{}", it.traffic.total_bytes()),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "server",
                "workload",
                "entity msgs [%]",
                "entity bytes [%]",
                "total msgs",
                "total bytes"
            ],
            &rows
        )
    );
    println!("\nExpected shape (paper): entity-related updates account for the large");
    println!("majority of messages but only a small share of bytes (bulk bytes come from");
    println!("chunk data); PaperMC sends a smaller entity share than Minecraft and Forge.");
}
