//! Tables 2 and 3: the workload worlds and the Farm world's constructs.

use meterstick::report::render_table;
use meterstick_workloads::catalog::{table2_worlds, table3_constructs};
use meterstick_workloads::WorkloadSpec;

use crate::Cli;

pub fn run(_cli: &Cli) {
    println!("\nTable 2: Minecraft worlds used as workload starting points");
    let rows: Vec<Vec<String>> = table2_worlds()
        .iter()
        .map(|w| {
            let built = WorkloadSpec::new(w.kind).build(392_114_485);
            vec![
                w.kind.to_string(),
                w.properties.to_string(),
                format!("{:.1}", w.original_size_mb),
                format!("{}", built.world.loaded_chunk_count()),
                format!("{}", built.world.total_non_air_blocks()),
                built.description.clone(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "name",
                "properties",
                "orig. size [MB]",
                "chunks",
                "blocks",
                "reproduction"
            ],
            &rows
        )
    );

    println!("Table 3: simulated constructs in the Farm world");
    let rows: Vec<Vec<String>> = table3_constructs()
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                c.amount.to_string(),
                c.author.to_string(),
                format!("{:.1}", c.popularity_million_views),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["name", "amount", "author", "popularity [10^6 views]"],
            &rows
        )
    );
}
