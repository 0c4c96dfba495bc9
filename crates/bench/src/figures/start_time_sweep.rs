//! Start-time sweep (MF5 under diurnal tenancy): which AWS node size is
//! adequate depends on *when* in the simulated week the server runs.
//!
//! Reruns the Figure 12 node-sizing question on the diurnal AWS environment
//! (`Environment::aws_diurnal`), sweeping the campaign's seed-excluded
//! `start_time` axis across an off-peak and a peak point of the week. Same
//! seeds, same worlds, same interference placement — only the tenancy
//! point process sees a different part of the weekly intensity curve. The
//! printout names the cheapest node size whose mean tick time stays within
//! the 50 ms budget at each start; the evening-peak start needs a bigger
//! node than the early-morning one.
//!
//! The sweep runs the Farm workload rather than Figure 12's TNT cuboid:
//! the detonation chain saturates *every* AWS size under tenancy pressure
//! (no node is ever adequate, so there is nothing to flip), while the
//! steady redstone-farm load sits close enough to the 50 ms budget that
//! the diurnal pressure swing moves nodes across it.
//!
//! `--start-time LIST` replaces the default off-peak/peak pair.

use cloud_sim::environment::Environment;
use cloud_sim::node::NodeType;
use cloud_sim::temporal::StartTime;
use meterstick::campaign::{Axis, Campaign, CellCoord};
use meterstick::report::render_table;
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

use crate::{run_campaign, Cli};

/// Pinned base seed: the off-peak/peak adequacy flip below is asserted with
/// exactly this seed by `tests/end_to_end.rs`.
const SWEEP_SEED: u64 = 20_260_807;

pub fn run(cli: &Cli) {
    // The tenancy population only matters once the farm's steady load has
    // ramped up, so this sweep always uses the paper's 60 s iterations.
    let duration = cli.duration_secs().max(60);
    let starts = cli.start_times.clone().unwrap_or_else(|| {
        vec![
            // Monday 04:00: weekday trough of the tenancy intensity curve.
            StartTime::from_day_hour_minute(0, 4, 0),
            // Friday 20:30: inside the evening peak window.
            StartTime::from_day_hour_minute(4, 20, 30),
        ]
    });
    let nodes = [
        ("L (t3.large)", NodeType::aws_t3_large()),
        ("XL (t3.xlarge)", NodeType::aws_t3_xlarge()),
        ("2XL (t3.2xlarge)", NodeType::aws_t3_2xlarge()),
    ];
    let campaign = Campaign::new()
        .workloads([WorkloadKind::Farm])
        .flavors([ServerFlavor::Vanilla])
        .environments(
            nodes
                .iter()
                .map(|(_, node)| Environment::aws_diurnal(node.clone())),
        )
        .start_times(starts.iter().copied())
        .duration_secs(duration)
        .seed(SWEEP_SEED)
        .iterations(1);
    let results = run_campaign(cli, &campaign);

    let budget_ms = 50.0;
    let mut rows = Vec::new();
    for (s_idx, start) in starts.iter().enumerate() {
        let mut cheapest: Option<&str> = None;
        for (n_idx, (label, _)) in nodes.iter().enumerate() {
            let mut cell = CellCoord::default();
            cell[Axis::Environment] = n_idx;
            cell[Axis::StartTime] = s_idx;
            let it = results.for_coord(cell)[0];
            let p = it.tick_percentiles();
            let adequate = p.mean <= budget_ms && !it.crashed();
            if adequate && cheapest.is_none() {
                cheapest = Some(label);
            }
            rows.push(vec![
                start.to_string(),
                (*label).to_string(),
                format!("{:.1}", p.mean),
                format!("{:.1}", p.p50),
                format!("{:.1}", p.max),
                format!("{:.3}", it.instability_ratio),
                if it.crashed() {
                    "crashed".into()
                } else if adequate {
                    "adequate".into()
                } else {
                    "overloaded".into()
                },
            ]);
        }
        rows.push(vec![
            start.to_string(),
            "=> cheapest adequate".into(),
            cheapest.unwrap_or("none").into(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "start",
                "node",
                "mean [ms]",
                "median",
                "max",
                "ISR",
                "status"
            ],
            &rows
        )
    );
    println!("\nExpected shape: at the early-morning start the tenancy process is near");
    println!("its weekday trough and the recommended L node already keeps the mean tick");
    println!("within the 50 ms budget; at the Friday-evening peak resident neighbors");
    println!("inflate steal pressure, the L node overloads, and the cheapest adequate");
    println!("size moves up to XL. Same seeds both ways — only start_time differs.");
}
