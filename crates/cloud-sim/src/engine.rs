//! The virtual-time compute engine: converting game-server work into tick
//! durations.
//!
//! The game-server substrate reports how much abstract *work* each tick
//! performed, split into work bound to the main game-loop thread and work the
//! server flavor managed to offload to auxiliary threads (PaperMC's
//! asynchronous environment processing, Appendix A of the paper). The engine
//! converts that work into milliseconds for a given node under the current
//! interference conditions — this is the substitution for running real JVM
//! servers on real machines, preserving the relationship *more work and fewer
//! effective cores ⇒ longer ticks ⇒ overload*.

use serde::{Deserialize, Serialize};

use crate::interference::{BurstCredits, InterferenceState};
use crate::node::NodeType;

/// One stage of a tick's compute demand in the stage-parallel tick graph.
///
/// A tick is a sequence of stages (player handler, terrain, entities,
/// lighting, dissemination, …), each declaring its own serial/parallel
/// split: `main_thread` work runs on the game-loop thread (Amdahl's serial
/// fraction), `parallelizable` work fans out over up to `parallel_width`
/// cores (sharded tick regions, parallel JVM GC, chunk encoding) with a
/// load-balance floor at `max_shard` (the busiest shard's indivisible
/// share). Width and floor reflect the server's *current* shard partition:
/// under adaptive rebalancing the width follows the post-rebalance leaf
/// count and the floor shrinks as hotspot regions split — the lever that
/// lets added vCPUs keep helping under clustered workloads. Stages
/// barrier in order — the tick's critical path is the sum of per-stage
/// Amdahl critical paths — which is exactly how a sharded game loop with
/// per-stage fork/join behaves. Offloadable (asynchronous) work is not per
/// stage: it overlaps the whole tick on spare cores and is passed
/// separately to [`ComputeEngine::execute_stages`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageWork {
    /// Work bound to the main game-loop thread during this stage.
    pub main_thread: u64,
    /// Work divisible across cores within this stage.
    pub parallelizable: u64,
    /// Maximum number of workers the stage's parallel work can usefully
    /// spread over (the shard count; `u32::MAX` for freely divisible work).
    pub parallel_width: u32,
    /// The largest indivisible share of `parallelizable` (the busiest
    /// shard's work in this stage).
    pub max_shard: u64,
}

impl Default for StageWork {
    fn default() -> Self {
        StageWork {
            main_thread: 0,
            parallelizable: 0,
            parallel_width: 1,
            max_shard: 0,
        }
    }
}

impl StageWork {
    /// A stage bound entirely to the main thread.
    #[must_use]
    pub fn serial(main_thread: u64) -> Self {
        StageWork {
            main_thread,
            ..StageWork::default()
        }
    }

    /// Total work units of this stage regardless of placement.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.main_thread + self.parallelizable
    }
}

/// Result of executing one staged tick on the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedTickExecution {
    /// Critical-path milliseconds contributed by each stage, in input
    /// order (serial part plus the stage's Amdahl parallel phase). A
    /// fully offloaded stage contributes 0 here — its cost shows up in
    /// `offload_overflow_ms` only when the tick had no slack to hide it.
    pub stage_ms: Vec<f64>,
    /// Milliseconds by which offloadable work stretched the tick beyond
    /// the stage critical paths (0 when it fit into idle-core slack).
    pub offload_overflow_ms: f64,
    /// The whole-tick execution record (busy time, interference,
    /// utilization).
    pub execution: TickExecution,
}

/// Result of executing one tick on the engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TickExecution {
    /// How long the tick's computation took, in milliseconds.
    pub busy_ms: f64,
    /// The interference multiplier that was applied.
    pub interference_multiplier: f64,
    /// The burst-credit throttle multiplier that was applied.
    pub throttle_multiplier: f64,
    /// CPU core-seconds consumed (for system metrics and credit accounting).
    pub core_seconds: f64,
    /// CPU utilization during the tick window, as a fraction of the node's
    /// total capacity (can exceed 1.0 only due to rounding; clamped).
    pub cpu_utilization: f64,
}

/// Converts per-tick work into per-tick compute time for one node during one
/// benchmark iteration.
#[derive(Debug)]
pub struct ComputeEngine {
    node: NodeType,
    interference: InterferenceState,
    credits: BurstCredits,
    pending_throttle: f64,
}

impl ComputeEngine {
    /// Creates an engine for `node` using the given per-iteration
    /// interference state.
    #[must_use]
    pub fn new(node: NodeType, interference: InterferenceState) -> Self {
        let credits = BurstCredits::new(node.burstable, node.baseline_cpu_fraction, node.vcpus);
        ComputeEngine {
            node,
            interference,
            credits,
            pending_throttle: 1.0,
        }
    }

    /// The node this engine models.
    #[must_use]
    pub fn node(&self) -> &NodeType {
        &self.node
    }

    /// Returns `true` if burst credits are currently exhausted.
    #[must_use]
    pub fn throttled(&self) -> bool {
        self.credits.exhausted()
    }

    /// Executes one tick decomposed into an ordered stage graph and returns
    /// per-stage critical-path milliseconds alongside the whole-tick record.
    ///
    /// Each stage contributes its own Amdahl critical path — serial
    /// main-thread time plus its parallel phase fanned out over
    /// min(vCPUs, `parallel_width`) cores, floored by the stage's busiest
    /// shard — and the stages barrier in order, so the tick's busy time is
    /// the sum of stage critical paths. `offloadable` work overlaps the
    /// *whole* tick on idle-core slack accumulated across all stages (a
    /// cross-tick-pipelined lighting pass, async chat); it stretches the
    /// tick only when it exceeds that slack. Capacity is conserved: the
    /// model never uses more core-milliseconds than the node has.
    ///
    /// `tick_budget_ms` is the nominal tick length (50 ms); it is used for
    /// credit accrual (idle time between ticks earns credits back).
    pub fn execute_stages(
        &mut self,
        stages: &[StageWork],
        offloadable: u64,
        tick_budget_ms: f64,
    ) -> StagedTickExecution {
        let interference = self.interference.sample_tick();
        let throttle = self.pending_throttle;
        let per_core_rate = self.node.work_units_per_core_ms() / (interference * throttle);

        // Per-stage critical paths: serial main-thread work, plus the
        // parallel phase fanned out over min(vCPUs, parallel_width) cores —
        // Amdahl's law with a load-balance floor at the busiest shard.
        // Idle-core slack (for hiding offloadable work) accrues per stage:
        // vCPUs-1 cores while a stage's serial part runs, vCPUs-width cores
        // while its parallel phase runs.
        let aux_cores = f64::from(self.node.vcpus.saturating_sub(1)).max(0.0);
        let mut stage_ms = Vec::with_capacity(stages.len());
        let mut critical_ms = 0.0;
        let mut slack_core_ms = 0.0;
        let mut total_units = offloadable;
        for stage in stages {
            total_units += stage.total();
            let main_ms = stage.main_thread as f64 / per_core_rate;
            let width = f64::from(self.node.vcpus.min(stage.parallel_width).max(1));
            let parallel_ideal = stage.parallelizable as f64 / width;
            let parallel_floor = stage.max_shard.min(stage.parallelizable) as f64;
            let parallel_ms = parallel_ideal.max(parallel_floor) / per_core_rate;
            critical_ms += main_ms + parallel_ms;
            slack_core_ms +=
                aux_cores * main_ms + (f64::from(self.node.vcpus) - width).max(0.0) * parallel_ms;
            stage_ms.push(main_ms + parallel_ms);
        }

        // Offloadable work runs concurrently with the game loop on whatever
        // core capacity the stage critical paths leave idle. The tick
        // stretches when offloadable work exceeds that slack (with no
        // parallel phase this reduces exactly to the previous
        // max(main, offload/aux) model).
        let offload_core_ms = offloadable as f64 / per_core_rate;
        let offload_overflow_ms = if offloadable == 0 {
            0.0
        } else if aux_cores > 0.0 {
            if offload_core_ms <= slack_core_ms {
                0.0
            } else {
                (offload_core_ms - slack_core_ms) / aux_cores
            }
        } else {
            // No spare core: offloadable work falls back onto the main thread.
            offload_core_ms
        };
        let busy_ms = critical_ms + offload_overflow_ms;

        // Core-seconds actually consumed (work / single-core rate).
        let core_seconds = (total_units as f64 / per_core_rate) / 1_000.0;
        let wall_ms = busy_ms.max(tick_budget_ms);
        let capacity_core_seconds = f64::from(self.node.vcpus) * wall_ms / 1_000.0;
        let cpu_utilization = (core_seconds / capacity_core_seconds).clamp(0.0, 1.0);

        // Update burst credits; the throttle applies from the next tick.
        self.pending_throttle = self.credits.account(core_seconds, wall_ms / 1_000.0);

        StagedTickExecution {
            stage_ms,
            offload_overflow_ms,
            execution: TickExecution {
                busy_ms,
                interference_multiplier: interference,
                throttle_multiplier: throttle,
                core_seconds,
                cpu_utilization,
            },
        }
    }
}

/// One single-stage tick at the 50 ms budget — the shape most engine and
/// environment properties are stated over.
#[cfg(test)]
pub(crate) fn execute_one(
    engine: &mut ComputeEngine,
    stage: StageWork,
    offloadable: u64,
) -> TickExecution {
    engine.execute_stages(&[stage], offloadable, 50.0).execution
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::InterferenceProfile;

    fn quiet_engine(node: NodeType) -> ComputeEngine {
        ComputeEngine::new(
            node,
            InterferenceState::new(InterferenceProfile::dedicated(), 1),
        )
    }

    /// Busy time of one single-stage tick on a fresh, interference-free node.
    fn quiet_busy_ms(node: NodeType, stage: StageWork, offloadable: u64) -> f64 {
        execute_one(&mut quiet_engine(node), stage, offloadable).busy_ms
    }

    #[test]
    fn light_work_finishes_well_under_budget() {
        let mut engine = quiet_engine(NodeType::das5(2));
        let exec = execute_one(&mut engine, StageWork::serial(10_000), 0);
        assert!(exec.busy_ms < 5.0, "light tick took {} ms", exec.busy_ms);
        assert!(exec.cpu_utilization < 0.5);
    }

    #[test]
    fn heavy_work_overloads_a_small_node() {
        let busy = quiet_busy_ms(NodeType::das5(2), StageWork::serial(1_000_000), 0);
        assert!(busy > 50.0, "heavy tick took {busy} ms");
    }

    #[test]
    fn offloadable_work_benefits_from_extra_cores() {
        let stage = StageWork::serial(100_000);
        let t2 = quiet_busy_ms(NodeType::das5(2), stage, 300_000);
        let t8 = quiet_busy_ms(NodeType::das5(8), stage, 300_000);
        assert!(t8 < t2, "8-core ({t8} ms) should beat 2-core ({t2} ms)");
    }

    #[test]
    fn single_core_pays_for_offloadable_work_serially() {
        let stage = StageWork::serial(50_000);
        let t1 = quiet_busy_ms(NodeType::das5(1), stage, 50_000);
        let t2 = quiet_busy_ms(NodeType::das5(2), stage, 50_000);
        assert!(t1 > t2);
    }

    #[test]
    fn main_thread_work_does_not_scale_with_cores() {
        let stage = StageWork::serial(400_000);
        let t2 = quiet_busy_ms(NodeType::das5(2), stage, 0);
        let t16 = quiet_busy_ms(NodeType::das5(16), stage, 0);
        // Identical clock: the main thread is the bottleneck on both.
        assert!((t2 - t16).abs() / t2 < 0.05);
    }

    #[test]
    fn parallelizable_work_scales_with_vcpus_amdahl_style() {
        let stage = StageWork {
            main_thread: 100_000,
            parallelizable: 400_000,
            parallel_width: u32::MAX,
            ..StageWork::default()
        };
        let t = |cores: u32| quiet_busy_ms(NodeType::das5(cores), stage, 0);
        let (t1, t2, t8) = (t(1), t(2), t(8));
        assert!(t2 < t1 * 0.7, "2 cores ({t2} ms) must beat 1 ({t1} ms)");
        assert!(t8 < t2 * 0.6, "8 cores ({t8} ms) must beat 2 ({t2} ms)");
        // Amdahl: the serial fraction bounds the speedup — 8 cores cannot
        // reach the ideal 8x of the total.
        assert!(t8 > t1 / 8.0, "serial fraction must cap the speedup");
    }

    #[test]
    fn parallel_width_caps_the_useful_core_count() {
        let stage = StageWork {
            main_thread: 10_000,
            parallelizable: 800_000,
            parallel_width: 4,
            ..StageWork::default()
        };
        let t4 = quiet_busy_ms(NodeType::das5(4), stage, 0);
        let t16 = quiet_busy_ms(NodeType::das5(16), stage, 0);
        // Only 4 shards: extra cores beyond 4 buy nothing.
        assert!((t4 - t16).abs() / t4 < 0.05);
    }

    #[test]
    fn busiest_shard_floors_the_parallel_phase() {
        let balanced = StageWork {
            parallelizable: 400_000,
            parallel_width: 4,
            max_shard: 100_000,
            ..StageWork::default()
        };
        let skewed = StageWork {
            max_shard: 390_000,
            ..balanced
        };
        let t_balanced = quiet_busy_ms(NodeType::das5(4), balanced, 0);
        let t_skewed = quiet_busy_ms(NodeType::das5(4), skewed, 0);
        assert!(
            t_skewed > t_balanced * 3.0,
            "one hot shard ({t_skewed} ms) must dominate a balanced split ({t_balanced} ms)"
        );
    }

    #[test]
    fn a_rebalanced_partition_beats_a_hotspotted_one_on_the_same_node() {
        // The same parallelizable work, before and after an adaptive
        // rebalance of a hotspot: pre-rebalance one shard carries most of
        // the load (high max_shard, few useful shards); post-rebalance the
        // hot region has split (wider partition, lower floor). The engine
        // must turn that into a shorter tick on an 8-core node.
        let pre = StageWork {
            main_thread: 20_000,
            parallelizable: 800_000,
            parallel_width: 4,
            max_shard: 600_000,
        };
        let post = StageWork {
            parallel_width: 7,
            max_shard: 200_000,
            ..pre
        };
        let t_pre = quiet_busy_ms(NodeType::das5(8), pre, 0);
        let t_post = quiet_busy_ms(NodeType::das5(8), post, 0);
        assert!(
            t_post < t_pre * 0.5,
            "post-rebalance ({t_post} ms) should be far faster than the hotspotted partition ({t_pre} ms)"
        );
    }

    #[test]
    fn parallel_and_offload_work_cannot_exceed_node_capacity() {
        // 2 cores, no serial work: 200k parallel + 100k offload units must
        // take at least 300k/(2 cores) of single-core time — the model may
        // not conjure a third core out of the overlap.
        let stage = StageWork {
            parallelizable: 200_000,
            parallel_width: u32::MAX,
            ..StageWork::default()
        };
        let node = NodeType::das5(2);
        let floor_ms = 300_000.0 / (2.0 * node.work_units_per_core_ms());
        let busy = quiet_busy_ms(node, stage, 100_000);
        assert!(
            busy >= floor_ms * 0.999,
            "busy {busy} ms beats the 2-core capacity floor {floor_ms} ms"
        );
    }

    #[test]
    fn serial_constructor_matches_plain_main_thread_work() {
        let literal = StageWork {
            main_thread: 250_000,
            ..StageWork::default()
        };
        assert_eq!(
            quiet_busy_ms(NodeType::das5(2), StageWork::serial(250_000), 0),
            quiet_busy_ms(NodeType::das5(2), literal, 0)
        );
    }

    #[test]
    fn sustained_heavy_load_triggers_burst_throttling() {
        let node = NodeType::aws_t3_large();
        let mut engine = ComputeEngine::new(
            node,
            InterferenceState::new(InterferenceProfile::dedicated(), 5),
        );
        // ~42 ms of busy time per 50 ms tick: above the 60%-of-one-core
        // baseline that a t3.large can sustain without spending credits.
        let stage = StageWork::serial(250_000);
        let first = execute_one(&mut engine, stage, 0).busy_ms;
        let mut throttled_time = None;
        for _ in 0..40_000 {
            let exec = execute_one(&mut engine, stage, 0);
            if exec.throttle_multiplier > 1.0 {
                throttled_time = Some(exec.busy_ms);
                break;
            }
        }
        let throttled =
            throttled_time.expect("t3.large should exhaust credits under sustained load");
        assert!(
            throttled > first * 2.0,
            "throttled tick ({throttled} ms) should be much slower than unthrottled ({first} ms)"
        );
    }

    #[test]
    fn stage_critical_paths_sum_and_floors_apply_per_stage() {
        // Two stages with the same totals as one merged stage, but the
        // second stage's floor binds: the staged tick must be slower than
        // the merged tick (the floor cannot be amortized across stages).
        let stages = [
            StageWork {
                main_thread: 50_000,
                parallelizable: 200_000,
                parallel_width: 4,
                max_shard: 50_000,
            },
            StageWork {
                main_thread: 50_000,
                parallelizable: 200_000,
                parallel_width: 4,
                max_shard: 190_000,
            },
        ];
        let merged = StageWork {
            main_thread: 100_000,
            parallelizable: 400_000,
            parallel_width: 4,
            max_shard: 190_000,
        };
        let staged = quiet_engine(NodeType::das5(4)).execute_stages(&stages, 0, 50.0);
        let single = quiet_busy_ms(NodeType::das5(4), merged, 0);
        let sum: f64 = staged.stage_ms.iter().sum();
        assert!((sum - staged.execution.busy_ms).abs() < 1e-12);
        assert!(
            staged.execution.busy_ms > single,
            "a floor binding inside one stage must cost more than the same \
             floor over the merged tick (staged {} ms vs merged {single} ms)",
            staged.execution.busy_ms
        );
    }

    #[test]
    fn parallelizing_a_serial_stage_shortens_the_staged_tick() {
        // The stage-parallel refactor in one number: moving a stage's work
        // from main_thread to parallelizable must shorten the tick on a
        // multi-core node.
        let serial_stage1 = [StageWork::serial(300_000), StageWork::serial(100_000)];
        let parallel_stage1 = [
            StageWork {
                main_thread: 60_000,
                parallelizable: 240_000,
                parallel_width: 8,
                max_shard: 40_000,
            },
            StageWork::serial(100_000),
        ];
        let mut a = quiet_engine(NodeType::das5(8));
        let mut b = quiet_engine(NodeType::das5(8));
        let before = a.execute_stages(&serial_stage1, 0, 50.0).execution.busy_ms;
        let after = b
            .execute_stages(&parallel_stage1, 0, 50.0)
            .execution
            .busy_ms;
        assert!(
            after < before * 0.6,
            "sharding the stage must shorten the tick ({after} ms vs {before} ms)"
        );
    }

    #[test]
    fn offloaded_work_hides_in_stage_slack() {
        // A pipelined lighting pass: all-offloadable work overlapping a
        // tick with a long serial stage costs nothing on a multi-core
        // node, but stretches a single-core tick in full.
        let stages = [StageWork::serial(200_000)];
        let mut multi = quiet_engine(NodeType::das5(4));
        let with_light = multi.execute_stages(&stages, 150_000, 50.0);
        assert_eq!(
            with_light.offload_overflow_ms, 0.0,
            "offloaded lighting must hide in the serial stage's slack"
        );
        let mut single = quiet_engine(NodeType::das5(1));
        let squeezed = single.execute_stages(&stages, 150_000, 50.0);
        assert!(squeezed.offload_overflow_ms > 0.0);
        assert!(squeezed.execution.busy_ms > with_light.execution.busy_ms);
    }

    #[test]
    fn cpu_utilization_is_bounded() {
        let mut engine = quiet_engine(NodeType::das5(2));
        for main in [1_000u64, 100_000, 10_000_000] {
            let exec = execute_one(&mut engine, StageWork::serial(main), main);
            assert!(exec.cpu_utilization >= 0.0 && exec.cpu_utilization <= 1.0);
        }
    }

    #[test]
    fn interference_makes_identical_work_vary() {
        let node = NodeType::aws_t3_large();
        let mut engine =
            ComputeEngine::new(node, InterferenceState::new(InterferenceProfile::aws(), 9));
        let times: Vec<f64> = (0..2_000)
            .map(|_| execute_one(&mut engine, StageWork::serial(60_000), 0).busy_ms)
            .collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > min * 1.3,
            "cloud interference should spread tick times (min {min}, max {max})"
        );
    }
}
