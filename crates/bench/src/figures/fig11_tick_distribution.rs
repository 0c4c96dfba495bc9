//! Figure 11 (MF4): distribution of tick time across MLG operations.
//!
//! For every flavor and the Control/Farm/TNT workloads on AWS, prints the
//! share of tick time attributed to block add/remove, block updates, entity
//! simulation, player handling, waiting, and other work.

use cloud_sim::environment::Environment;
use meterstick::campaign::Campaign;
use meterstick::report::render_table;
use meterstick_metrics::distribution::TickOperation;
use meterstick_workloads::WorkloadKind;
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
    for workload in workloads {
        for flavor in ServerFlavor::all() {
            let cell = results.for_cell(workload, flavor, &environment.label());
            let it = cell.first().expect("one iteration per cell");
            let d = it.tick_distribution();
            rows.push(vec![
                workload.to_string(),
                flavor.to_string(),
                format!("{:.1}%", d.share_percent(TickOperation::BlockAddRemove)),
                format!("{:.1}%", d.share_percent(TickOperation::BlockUpdate)),
                format!("{:.1}%", d.share_percent(TickOperation::Entities)),
                format!("{:.1}%", d.share_percent(TickOperation::Players)),
                format!(
                    "{:.1}%",
                    d.share_percent(TickOperation::WaitBefore)
                        + d.share_percent(TickOperation::WaitAfter)
                ),
                format!("{:.1}%", d.share_percent(TickOperation::Other)),
                format!("{:.1}%", d.busy_share_percent(TickOperation::Entities)),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "server",
                "blk add/rem",
                "blk update",
                "entities",
                "players",
                "wait",
                "other",
                "entities(non-idle)"
            ],
            &rows
        )
    );
    println!("\nExpected shape (paper): entity processing accounts for the majority of");
    println!("non-waiting tick time everywhere, with PaperMC showing a visibly smaller");
    println!("entity share than Minecraft and Forge, especially under TNT.");
}
