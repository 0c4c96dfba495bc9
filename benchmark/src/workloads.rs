//! The four benchmark workloads, each a list of real [`Campaign`]s: jobs and
//! their seeds come from `Campaign::plan()`, exactly as in the figure
//! binaries, and `--seed` only ever reaches the simulator through the
//! campaign builder (`Campaign::seed`; for `campaign_sweep`,
//! `Campaign::start_times`).
//!
//! Simulated seconds per cell are sized so one round of a workload takes
//! 1.5–4 s of host time on the 2-core sandbox: the driver's total time cap
//! leaves ~25 s of measurement per run, and the estimator needs as many
//! rounds as fit. Cells that only show their behaviour late keep a long
//! horizon (the TNT cuboid ignites 20 simulated seconds in).

use cloud_sim::environment::Environment;
use cloud_sim::node::NodeType;
use cloud_sim::temporal::StartTime;
use meterstick::campaign::Campaign;
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

/// `Campaign::seed` when `--seed` is not given: the simulator's own default
/// base seed, so the golden rows are the rows the figure binaries produce.
pub const DEFAULT_SEED: u64 = 392_114_485;

/// Upper bound on runnable threads: the sandbox has two cores, so a workload
/// uses two tick threads *or* two executor workers, never both.
pub const MAX_THREADS: u32 = 2;

/// How a workload's jobs are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// One job at a time through `execute_iteration_observed`.
    ClosedLoop,
    /// One campaign at a time through `Campaign::run_with` on a two-worker
    /// `ParallelExecutor` into CSV + JSONL sinks, as `fig08` does.
    Sweep,
}

/// A named workload and the reason it exists (`why` is what
/// `BENCHMARK.json` records).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub drive: Drive,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "env_worlds",
        why: "Farm/TNT/Lag worlds on Vanilla and Paper, one idle observer: terrain and entity simulation through the serial tick path while bots and queues idle",
        drive: Drive::ClosedLoop,
    },
    Workload {
        name: "player_crowd",
        why: "25 walkers and 220 builders on a flat world: bots, handler, queues and protocol dominate; Vanilla broadcasts, Paper pays AoI with everyone in range",
        drive: Drive::ClosedLoop,
    },
    Workload {
        name: "sharded_horde",
        why: "Folia at 2 tick threads on TNT, Lag and a 2000-bot Horde, plus Paper x Horde: the sharded tick path, AoI where it pays, and set-up-dominated cells",
        drive: Drive::ClosedLoop,
    },
    Workload {
        name: "campaign_sweep",
        why: "36 short cloud cells and one idle long-horizon cell via run_with on 2 workers into CSV+JSONL: per-job set-up, planning, executor, cloud model, folds and sinks",
        drive: Drive::Sweep,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

fn das5() -> [Environment; 1] {
    [Environment::das5(8)]
}

/// Where in the simulated week `campaign_sweep` starts for `seed`: the
/// default seed starts at the default start (Monday 00:00), every other seed
/// some other minute of the week.
///
/// `Campaign::run_with` plans for itself, so the harness cannot pin the
/// world of a sweep's jobs the way [`crate::ledger::plan_jobs`] does — and
/// the world decides the cost here too: the idle long-horizon cell took
/// 0.45–1.08 s of host time across twenty campaign seeds. The sweep therefore
/// keeps the default campaign seed and lets `--seed` move its start time, the
/// seed-excluded axis that changes what the diurnal environments do to the
/// same worlds and bots.
fn sweep_start(seed: u64) -> StartTime {
    const MINUTES_PER_WEEK: u64 = 7 * 24 * 60;
    StartTime::from_minutes((seed.wrapping_sub(DEFAULT_SEED) % MINUTES_PER_WEEK) as u32)
}

/// `kinds` x {Vanilla, Forge, Paper} x {AWS, Azure, diurnal AWS}, three
/// simulated seconds per job: too short for world and entity simulation to
/// matter, so per-job set-up, the cloud model, folds and sinks are the cost.
pub fn cloud_factorial(kinds: impl IntoIterator<Item = WorkloadKind>, seed: u64) -> Campaign {
    Campaign::new()
        .start_times([sweep_start(seed)])
        .workloads(kinds)
        .flavors([
            ServerFlavor::Vanilla,
            ServerFlavor::Forge,
            ServerFlavor::Paper,
        ])
        .environments([
            Environment::aws_default(),
            Environment::azure_default(),
            Environment::aws_diurnal(NodeType::aws_t3_large()),
        ])
        .duration_secs(3)
}

/// The campaigns of workload `name` seeded with `seed`. `folia_threads` is
/// the tick-thread count of `sharded_horde`'s Folia cells ([`MAX_THREADS`]
/// for measurement; 1 for the thread-count identity check) and is ignored by
/// the other workloads.
pub fn campaigns(name: &str, seed: u64, folia_threads: u32) -> Vec<Campaign> {
    use ServerFlavor::{Folia, Paper, Vanilla};
    use WorkloadKind::{Control, Crowd, Farm, Horde, Lag, Players, Tnt};
    let base = || Campaign::new().environments(das5()).seed(seed);
    match name {
        "env_worlds" => vec![
            base()
                .workloads([Farm])
                .flavors([Vanilla, Paper])
                .duration_secs(10),
            base()
                .workloads([Tnt])
                .flavors([Vanilla, Paper])
                .duration_secs(30),
            base()
                .workloads([Lag])
                .flavors([Vanilla, Paper])
                .duration_secs(10),
        ],
        "player_crowd" => vec![base()
            .workloads([Players, Crowd])
            .flavors([Vanilla, Paper])
            .duration_secs(10)],
        "sharded_horde" => {
            let folia = || base().flavors([Folia]).tick_threads([folia_threads]);
            vec![
                folia().workloads([Tnt]).duration_secs(30),
                folia().workloads([Lag]).duration_secs(10),
                // Horde x Vanilla is left out on purpose: full broadcast is
                // quadratic in the population (1.45 s of host time per tick
                // at 2,000 bots) and one such cell would drown the rest. It
                // is kept as the `broadcast_many` layer probes instead.
                folia().workloads([Horde]).bots(2_000).duration_secs(5),
                base()
                    .workloads([Horde])
                    .flavors([Paper])
                    .bots(2_000)
                    .duration_secs(5),
            ]
        }
        // One campaign per workload kind (9 jobs each) rather than one of 36:
        // every campaign is a cell with the reference kernel on both sides,
        // and a two-second cell on both cores is too long for one correction
        // factor (as one cell, this workload spread 23 % between the
        // quartiles of ten runs).
        "campaign_sweep" => [Control, Farm, Tnt, Players]
            .into_iter()
            .map(|kind| cloud_factorial([kind], seed))
            // Near-idle ticks only: per-tick fixed overhead of the tick
            // loop, cloud model and windowed metric fold.
            .chain([Campaign::new()
                .start_times([sweep_start(seed)])
                .workloads([Control])
                .flavors([Vanilla])
                .environments([Environment::aws_diurnal(NodeType::aws_t3_xlarge())])
                .metrics_window(1_200, 60)
                .duration_secs(120)])
            .collect(),
        other => panic!("unknown workload {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_plans_and_stays_within_two_threads() {
        let expected_jobs = [6, 4, 4, 37];
        for (workload, expected) in WORKLOADS.iter().zip(expected_jobs) {
            let mut jobs = 0;
            for campaign in campaigns(workload.name, DEFAULT_SEED, MAX_THREADS) {
                let plan = campaign.plan().expect("workload campaigns are valid");
                for job in plan.jobs() {
                    assert!(job.config.tick_threads <= MAX_THREADS, "{}", job.label());
                    if workload.drive == Drive::Sweep {
                        assert_eq!(job.config.tick_threads, 1, "{}", job.label());
                    }
                }
                jobs += plan.jobs().len();
            }
            assert_eq!(jobs, expected, "{}", workload.name);
        }
    }

    #[test]
    fn seed_reaches_every_job_and_nothing_else_changes() {
        for workload in WORKLOADS {
            let a = campaigns(workload.name, 1, MAX_THREADS);
            let b = campaigns(workload.name, 2, MAX_THREADS);
            for (ca, cb) in a.iter().zip(&b) {
                let (pa, pb) = (ca.plan().unwrap(), cb.plan().unwrap());
                for (ja, jb) in pa.jobs().iter().zip(pb.jobs()) {
                    match workload.drive {
                        Drive::ClosedLoop => assert_ne!(ja.seed, jb.seed),
                        Drive::Sweep => assert_ne!(ja.config.start_time, jb.config.start_time),
                    }
                    assert_eq!(ja.config.workload, jb.config.workload);
                    assert_eq!(
                        (ja.flavor, ja.config.tick_threads),
                        (jb.flavor, jb.config.tick_threads)
                    );
                }
            }
        }
    }

    #[test]
    fn the_default_seed_is_the_simulators_own_configuration() {
        for workload in WORKLOADS {
            for campaign in campaigns(workload.name, DEFAULT_SEED, MAX_THREADS) {
                for job in campaign.plan().unwrap().jobs() {
                    assert_eq!(job.config.base_seed, DEFAULT_SEED);
                    assert_eq!(job.config.start_time, StartTime::default());
                }
            }
        }
    }
}
