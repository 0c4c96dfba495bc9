//! Ablation: which part of the cloud-interference model drives variability?
//!
//! Toggles the components of the AWS interference model (placement
//! heterogeneity, CPU-steal episodes, scheduler jitter, burst-credit
//! throttling) one at a time and reports the inter-iteration ISR spread of
//! the Players workload, identifying which component is responsible for the
//! paper's MF3 observation.

use cloud_sim::environment::Environment;
use cloud_sim::interference::InterferenceProfile;
use cloud_sim::node::NodeType;
use meterstick::campaign::Campaign;
use meterstick::report::render_table;
use meterstick_metrics::stats::Percentiles;
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

use crate::{run_campaigns, Cli};

fn variant(name: &str) -> Environment {
    let dedicated = InterferenceProfile::dedicated();
    let aws = InterferenceProfile::aws();
    let mut node = NodeType::aws_t3_large();
    let profile = match name {
        "none (dedicated)" => dedicated,
        "placement only" => InterferenceProfile {
            placement_factor_range: aws.placement_factor_range,
            ..dedicated
        },
        "steal episodes only" => InterferenceProfile {
            steal_episode_probability: aws.steal_episode_probability,
            steal_multiplier_range: aws.steal_multiplier_range,
            steal_duration_ticks: aws.steal_duration_ticks,
            ..dedicated
        },
        "scheduler jitter only" => InterferenceProfile {
            scheduler_jitter: aws.scheduler_jitter,
            ..dedicated
        },
        "burst credits only" => {
            // Keep interference quiet but leave the node burstable.
            dedicated
        }
        _ => aws,
    };
    if name != "burst credits only" && name != "full AWS" {
        node.burstable = false;
    }
    let mut env = Environment::aws(node);
    env.profile = profile;
    env
}

pub fn run(cli: &Cli) {
    let variants = [
        "none (dedicated)",
        "placement only",
        "steal episodes only",
        "scheduler jitter only",
        "burst credits only",
        "full AWS",
    ];
    // Every variant produces the same "AWS 2-core" label, so each gets its
    // own single-environment campaign instead of one shared environment
    // dimension; one `run_campaigns` call keeps them in one `--csv` file.
    let campaigns = variants.map(|name| {
        Campaign::new()
            .workloads([WorkloadKind::Players])
            .flavors([ServerFlavor::Vanilla])
            .environments([variant(name)])
            .duration_secs(15)
            .iterations(8)
    });
    let mut rows = Vec::new();
    for (name, results) in variants.into_iter().zip(run_campaigns(cli, &campaigns)) {
        let isr = results.isr_values(ServerFlavor::Vanilla);
        let ticks = results.pooled_tick_times(ServerFlavor::Vanilla);
        let isr_p = Percentiles::of(&isr);
        let tick_p = Percentiles::of(&ticks);
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", isr_p.p50),
            format!("{:.4}", isr_p.iqr()),
            format!("{:.4}", isr_p.max),
            format!("{:.1}", tick_p.mean),
            format!("{:.1}", tick_p.max),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "interference components",
                "ISR median",
                "ISR IQR",
                "ISR max",
                "mean tick [ms]",
                "max tick [ms]"
            ],
            &rows
        )
    );
    println!("\nExpected shape: steal episodes and placement heterogeneity produce most of");
    println!("the inter-iteration spread; scheduler jitter alone is nearly harmless; burst");
    println!("credits only matter for workloads that exceed the baseline CPU share.");
}
