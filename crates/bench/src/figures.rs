//! The table of figures: every table, figure, ablation and probe the
//! harness can regenerate, one module each.

use crate::Cli;

mod ablation_cloud_model;
mod ablation_paper_opts;
mod calibrate;
mod daemon_smoke;
mod fig01_response_time;
mod fig06_isr_analysis;
mod fig07_response_variability;
mod fig08_isr_workloads;
mod fig09_tick_timeseries;
mod fig10_cloud_variability;
mod fig11_tick_distribution;
mod fig12_node_sizes;
mod long_horizon_smoke;
mod sharded_determinism;
mod start_time_sweep;
mod tab02_worlds;
mod tab06_metric_comparison;
mod tab07_recommendations;
mod tab08_entity_messages;

/// One entry of [`FIGURES`]: the name given on the command line, the title
/// printed as the section header, and the function that regenerates it.
pub type Figure = (&'static str, &'static str, fn(&Cli));

/// Everything `meterstick-bench <name>` can run, in paper order, then the
/// ablations and probes.
pub const FIGURES: &[Figure] = &[
    (
        "fig01_response_time",
        "Figure 1: Minecraft response time in the AWS cloud (Control vs Farm)",
        fig01_response_time::run,
    ),
    (
        "tab02_worlds",
        "Tables 2 & 3: Workload worlds and Farm constructs",
        tab02_worlds::run,
    ),
    (
        "fig06_isr_analysis",
        "Figure 6: Numerical analysis of the Instability Ratio",
        fig06_isr_analysis::run,
    ),
    (
        "tab06_metric_comparison",
        "Table 6: ISR vs existing variability metrics",
        tab06_metric_comparison::run,
    ),
    (
        "fig07_response_variability",
        "Figure 7 (MF1): Response-time variability for Minecraft and Forge on AWS",
        fig07_response_variability::run,
    ),
    (
        "fig08_isr_workloads",
        "Figure 8 (MF2): ISR per MLG and workload on AWS and DAS-5",
        fig08_isr_workloads::run,
    ),
    (
        "fig09_tick_timeseries",
        "Figure 9 (MF2): Tick time over time on AWS",
        fig09_tick_timeseries::run,
    ),
    (
        "fig10_cloud_variability",
        "Figure 10 (MF3): Tick time and ISR distribution across iterations of the Players workload",
        fig10_cloud_variability::run,
    ),
    (
        "fig11_tick_distribution",
        "Figure 11 (MF4): Tick-time distribution per operation on AWS",
        fig11_tick_distribution::run,
    ),
    (
        "tab08_entity_messages",
        "Table 8 (MF4): Entity-related share of clientbound messages and bytes on AWS",
        tab08_entity_messages::run,
    ),
    (
        "fig12_node_sizes",
        "Figure 12 (MF5): TNT workload on AWS node sizes L / XL / 2XL",
        fig12_node_sizes::run,
    ),
    (
        "tab07_recommendations",
        "Table 7: Hosting-provider hardware recommendations",
        tab07_recommendations::run,
    ),
    (
        "ablation_cloud_model",
        "Ablation: Cloud interference model components (Players workload, 8 iterations each)",
        ablation_cloud_model::run,
    ),
    (
        "ablation_paper_opts",
        "Ablation: PaperMC optimizations enabled one at a time (AWS, TNT and Farm workloads)",
        ablation_paper_opts::run,
    ),
    (
        "calibrate",
        "Calibration: Tick-time regimes per workload, flavor and environment",
        calibrate::run,
    ),
    (
        "start_time_sweep",
        "start-time-sweep: Farm node sizing across the simulated week (diurnal tenancy)",
        start_time_sweep::run,
    ),
    (
        "sharded_determinism",
        "sharded-determinism: Sharded tick pipeline: thread-count invariance probe",
        sharded_determinism::run,
    ),
    (
        "long_horizon_smoke",
        "long-horizon-smoke: 4 simulated hours through the windowed aggregator (flat memory)",
        long_horizon_smoke::run,
    ),
    (
        "daemon_smoke",
        "daemon-smoke: Resident daemon: soak, live metrics, alert on overload",
        daemon_smoke::run,
    ),
];
