//! Table 7: hardware recommendations from commercial MLG hosting providers.

use cloud_sim::recommendations::{summarize, table7_recommendations};
use meterstick::report::render_table;

use crate::Cli;

pub fn run(_cli: &Cli) {
    let recs = table7_recommendations();
    let rows: Vec<Vec<String>> = recs
        .iter()
        .map(|r| {
            vec![
                r.provider.to_string(),
                format!("{:.1}", r.ram_gb),
                r.vcpus.map_or("NP".to_string(), |v| v.to_string()),
                r.cpu_ghz.map_or("NP".to_string(), |g| format!("{g:.1}")),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["service", "RAM [GB]", "vCPU [#]", "CPU speed [GHz]"],
            &rows
        )
    );
    let summary = summarize(&recs);
    println!(
        "Most common configuration: {} vCPU, {} GB RAM across {} providers (mean advertised clock {:.1} GHz)",
        summary.modal_vcpus, summary.modal_ram_gb, summary.providers, summary.mean_cpu_ghz
    );
    println!("MF5 shows this recommended size to be insufficient — see fig12_node_sizes.");
}
