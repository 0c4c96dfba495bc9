//! The tick cost model: stage counters in, compute-engine work out.
//!
//! The substrate counts, the server prices. `mlg-world`, `mlg-entity` and
//! the player handler report plain counters of what a tick did; this module
//! is the **only** place a work-unit weight appears and the only place the
//! work is split into the serial / shard-parallel / offloadable classes the
//! `cloud-sim` engine times. [`tick_cost`] is a pure function of one tick's
//! counters and the flavor profile — the server's stateful bits (the GC
//! schedule and its RNG, the join-chunk backlog) arrive as plain numbers —
//! so the whole work→time model can be read, tested and re-weighted here
//! without touching the game loop.
//!
//! Every per-stage quantity is an array indexed by [`Stage`], in the order
//! the engine barriers the stages.

use cloud_sim::engine::StageWork;
use meterstick_metrics::distribution::TickDistribution;
use mlg_entity::EntityTickReport;
use mlg_world::shard::ShardLoadReport;
use mlg_world::sim::TerrainTickReport;

use crate::flavor::FlavorProfile;
use crate::handler::PlayerStageReport;

use Stage::{Dissemination, Entity, Lighting, Other, Player, Terrain};

// Work-unit weights. Each is written exactly once: the ones a single
// formula uses sit in that formula next to the counter they price, the ones
// two formulas share are the constants below. They reflect the relative
// cost of each operation class in real MLG servers: block updates and light
// floods are cheap individually, chunk generation is expensive, raw block
// scans are nearly free (weight 1).

/// One scheduled block update; also the weight of one terrain update in
/// the per-shard load report.
const SCHEDULED_UPDATE: u64 = 14;
/// One processed entity; also its weight in the per-shard load report.
/// Deliberately the largest entity contributor: the paper's MF4 finding is
/// that entity processing dominates non-idle tick time, and real per-mob
/// costs (collision sweeps, sensors, AI goal selection) are far larger than
/// the handful of block reads the simulation performs explicitly.
const ENTITY_PROCESSED: u64 = 350;
/// Keeping one player connected for one tick: visibility-set maintenance,
/// entity tracking, packet compression and connection upkeep. This is what
/// makes the 25-player Players workload meaningfully heavier than a single
/// observer.
const PER_PLAYER_TICK: u64 = 3_000;
/// Fixed per-tick cost of the game loop itself.
const TICK_OVERHEAD: u64 = 2_000;

/// The stages of the tick graph, in engine order; the index of every
/// per-stage array in this module. `Other` carries GC and fixed overhead.
#[derive(Clone, Copy)]
enum Stage {
    Player,
    Terrain,
    Entity,
    Lighting,
    Dissemination,
    Other,
}

const STAGES: usize = 6;

/// One tick's counters, as the stages reported them.
#[derive(Debug)]
pub(crate) struct TickCounters<'a> {
    pub(crate) player: &'a PlayerStageReport,
    pub(crate) terrain: &'a TerrainTickReport,
    pub(crate) entity: &'a EntityTickReport,
    /// Positions the server relit outside the terrain stage: the pipelined
    /// pass over the previous tick's queue, or the eager pass over the
    /// player stage's edits.
    pub(crate) relit_positions: u64,
    /// Chunks generated by joins since the last tick.
    pub(crate) join_chunks: u64,
    /// Connected players.
    pub(crate) recipients: u64,
    /// Clientbound packets queued by the dissemination stage.
    pub(crate) packets_emitted: u64,
    /// Simulated JVM collections due this tick ([`gc_pause_work`]).
    pub(crate) gc_work: u64,
}

/// What one tick costs: the engine's input plus the by-products computed
/// from the same numbers.
#[derive(Debug)]
pub(crate) struct TickCost {
    /// One record per [`Stage`], in engine order.
    pub(crate) stages: [StageWork; STAGES],
    /// Asynchronous work overlapped with the whole tick on spare cores.
    pub(crate) offloadable: u64,
    /// Un-scaled work per tick-distribution class: players, block
    /// add/remove, block update, entities, other.
    pub(crate) components: [u64; 5],
    /// Sum of the per-stage busiest-shard floors.
    pub(crate) max_shard_work: u64,
    /// Per-shard load for the rebalancer (`None` on the serial path).
    pub(crate) load_report: Option<ShardLoadReport>,
}

/// Work units of a player-stage report, before flavor scaling.
pub(crate) fn player_base_work(r: &PlayerStageReport) -> u64 {
    r.actions_processed * 8
        + r.movements * 30
        + (r.blocks_placed + r.blocks_dug) * 60
        + r.chat_messages * 25
        + r.blocks_read * 2
}

fn entity_base_work(r: &EntityTickReport) -> u64 {
    r.entities_processed * ENTITY_PROCESSED
        + r.physics_blocks_checked * 3
        + r.path_nodes_expanded * 10
        + r.proximity_candidates * 4
        + r.spawn_positions_scanned * 30
        + r.items_merged * 15
        + r.items_collected * 15
        + r.explosions * 800
        + r.blocks_destroyed * 35
        + r.spawned.len() as u64 * 60
        + r.removed.len() as u64 * 10
}

/// Work of one simulated JVM collection pause; its length grows with the
/// live heap (entities and loaded chunks). Minor collections stay within
/// the tick budget; major collections are the occasional large outliers
/// that even self-hosted deployments show.
pub(crate) fn gc_pause_work(major: bool, live_entities: u64, loaded_chunks: u64) -> u64 {
    if major {
        600_000 + live_entities * 400 + loaded_chunks * 800
    } else {
        80_000 + live_entities * 60 + loaded_chunks * 150
    }
}

/// The busiest shard's measured share of a stage's parallel work (zero when
/// nothing sharded ran): a load-balance floor no core count can beat.
fn stage_floor(par: u64, loads: &[u64]) -> u64 {
    let total: u64 = loads.iter().sum();
    if total == 0 {
        return 0;
    }
    let max = loads.iter().copied().max().unwrap_or(0);
    ((u128::from(par) * u128::from(max) / u128::from(total)) as u64).min(par)
}

/// Prices one tick and splits the work for the engine.
///
/// `stage_width` is the parallel width of the sharded stages (the shard
/// count, or `u32::MAX` for a serial flavor's JVM-runtime parallelism).
/// `shard_loads` are the merged per-shard counters of the player (work
/// units), terrain (updates) and entity (entities) stages, indexed by
/// [`Stage`]; `None` when nothing ran sharded.
pub(crate) fn tick_cost(
    c: &TickCounters<'_>,
    p: &FlavorProfile,
    eager_lighting: bool,
    stage_width: u32,
    shard_loads: Option<[&[u64]; 3]>,
) -> TickCost {
    let (t, e) = (c.terrain, c.entity);
    let player_work = player_base_work(c.player);
    let add_remove_work = t.blocks_added * 25 + t.blocks_removed * 25 + t.blocks_updated * 10;
    let update_work_raw = t.neighbor_updates * 12
        + t.scheduled_updates * SCHEDULED_UPDATE
        + t.random_ticks * 4
        + t.fluid_spreads * 18
        + t.redstone_propagations * 16
        + t.growths * 20
        + t.blocks_scanned;
    let update_work = (update_work_raw as f64 * p.redstone_multiplier) as u64;
    // Under pipelined lighting this tick pays for the *previous* tick's
    // relight set; the terrain stage reported no light positions of its own.
    let light_positions = if eager_lighting {
        t.light_positions + c.relit_positions
    } else {
        c.relit_positions
    };
    let light_work = (light_positions as f64 * 2.0 * p.lighting_multiplier) as u64;
    let chunk_work = (t.chunks_generated + c.join_chunks) * 4_000;
    let explosion_component = e.explosions * 500 + e.blocks_destroyed * 30;
    let entity_work = (entity_base_work(e).saturating_sub(explosion_component) as f64
        * p.entity_multiplier
        + explosion_component as f64 * p.explosion_multiplier) as u64;
    let chat_work = c.player.chat_messages * 25 * c.recipients.max(1);
    let packet_work = c.packets_emitted * 3;
    let connection_work = c.recipients * PER_PLAYER_TICK;

    let components = [
        player_work + connection_work,
        add_remove_work,
        update_work,
        entity_work,
        light_work + chunk_work + chat_work + packet_work + c.gc_work + TICK_OVERHEAD,
    ];
    let total_work = (components.iter().sum::<u64>() as f64 * p.overhead_multiplier) as u64;
    // Everything each stage is responsible for, wherever it ends up running.
    let pool: [u64; STAGES] = [
        player_work + connection_work,
        add_remove_work + update_work + chunk_work,
        entity_work,
        light_work,
        packet_work + chat_work,
        c.gc_work + TICK_OVERHEAD,
    ];

    // Asynchronously offloadable work, per stage: a flavor-dependent
    // fraction of the terrain/lighting/dissemination stages, chat wholesale
    // under async chat, and — the cross-tick pipelining win — the *whole*
    // lighting pass when it runs pipelined (it overlapped this tick's
    // player stage on idle cores).
    let offload_f = p.offload_fraction.clamp(0.0, 1.0);
    let mut off = [0u64; STAGES];
    off[Terrain as usize] = (offload_f * (update_work + chunk_work) as f64) as u64;
    off[Lighting as usize] = if eager_lighting {
        (offload_f * light_work as f64) as u64
    } else {
        light_work
    };
    off[Dissemination as usize] =
        (offload_f * packet_work as f64) as u64 + if p.async_chat { chat_work } else { 0 };
    let offloadable = off.iter().sum::<u64>().min(total_work);

    // Per-stage parallelizable shares: each stage fans its fraction out
    // over the tick shards (or plain JVM-runtime parallelism for serial
    // flavors — GC is always freely parallel on top). The light/chunk/
    // packet share already counted as offloadable is excluded so no
    // component is classified off the main thread twice. Redstone/
    // block-update cascades stay serial — they are dependency chains even
    // under sharding.
    let sp = p.stage_parallel;
    let mut par: [u64; STAGES] = [
        (sp.player * pool[Player as usize] as f64) as u64,
        (sp.terrain * (1.0 - offload_f) * chunk_work as f64) as u64,
        (sp.entity * entity_work as f64) as u64,
        if eager_lighting {
            (sp.lighting * (1.0 - offload_f) * light_work as f64) as u64
        } else {
            0
        },
        (sp.dissemination * (1.0 - offload_f) * packet_work as f64) as u64,
        c.gc_work,
    ];
    // Keep offload + parallel within the (overhead-scaled) total; stages
    // claim the budget in engine order so the split stays deterministic.
    let mut parallel_budget = total_work.saturating_sub(offloadable);
    for share in &mut par {
        *share = (*share).min(parallel_budget);
        parallel_budget -= *share;
    }
    let main_total = total_work - offloadable - par.iter().sum::<u64>();

    // Attribute the remaining main-thread work to stages in proportion to
    // their serial residues (work neither offloaded nor parallel), `Other`
    // taking the remainder. The engine only sums the serial parts, so the
    // attribution shapes the per-stage breakdown without changing busy time.
    let serial: [u64; STAGES] = std::array::from_fn(|s| pool[s].saturating_sub(off[s] + par[s]));
    let serial_total = serial.iter().sum::<u64>().max(1);
    let mut main: [u64; STAGES] = std::array::from_fn(|s| {
        (main_total as f64 * serial[s] as f64 / serial_total as f64) as u64
    });
    main[Other as usize] = main_total - main[..Other as usize].iter().sum::<u64>();

    let mut floor = [0u64; STAGES];
    if let Some(loads) = shard_loads {
        for s in [Player, Terrain, Entity] {
            floor[s as usize] = stage_floor(par[s as usize], loads[s as usize]);
        }
    }

    TickCost {
        stages: std::array::from_fn(|s| StageWork {
            main_thread: main[s],
            parallelizable: par[s],
            // Parallel GC is freely divisible across however many vCPUs
            // exist, not bound to tick shards.
            parallel_width: if s == Other as usize {
                u32::MAX
            } else {
                stage_width
            },
            max_shard: floor[s],
        }),
        offloadable,
        components,
        max_shard_work: floor.iter().sum(),
        load_report: shard_loads.map(shard_load_report),
    }
}

/// Folds the stages' merged per-shard counters into one load per shard:
/// terrain updates and entities at their work-model weights, player work
/// as is (it arrives in work units) — a shard crowded with acting players
/// counts as hot exactly like one crowded with entities. The compute
/// model's floors and the rebalancer therefore see identical hotspots.
///
/// # Panics
///
/// Panics when the stages disagree on the shard count.
fn shard_load_report([player, terrain, entity]: [&[u64]; 3]) -> ShardLoadReport {
    assert!(
        player.len() == terrain.len() && terrain.len() == entity.len(),
        "player, terrain and entity stages must report the same shard count"
    );
    ShardLoadReport::new(
        (0..terrain.len())
            .map(|s| terrain[s] * SCHEDULED_UPDATE + entity[s] * ENTITY_PROCESSED + player[s])
            .collect(),
    )
}

impl TickCost {
    /// Spreads `busy_ms` over the tick-distribution classes in proportion
    /// to their un-scaled work; the waits fill the rest of the budget.
    pub(crate) fn distribution(&self, busy_ms: f64, tick_budget_ms: f64) -> TickDistribution {
        let total = self
            .components
            .iter()
            .map(|&work| work as f64)
            .sum::<f64>()
            .max(1.0);
        let share = |class: usize| busy_ms * self.components[class] as f64 / total;
        TickDistribution {
            players_ms: share(0),
            block_add_remove_ms: share(1),
            block_update_ms: share(2),
            entities_ms: share(3),
            other_ms: share(4),
            wait_before_ms: 0.1,
            wait_after_ms: (tick_budget_ms - busy_ms).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flavor::ServerFlavor;
    use mlg_entity::{EntityId, EntityKind};
    use proptest::prelude::*;

    /// Stage reports with every counter set from 29 values, in declaration
    /// order: 6 player, 12 terrain, 11 entity (the last two are the lengths
    /// of the spawned and removed lists). Counters that are small in
    /// practice are capped so random draws stay plausible.
    fn reports(raw: &[u64]) -> (PlayerStageReport, TerrainTickReport, EntityTickReport) {
        let player = PlayerStageReport {
            actions_processed: raw[0],
            movements: raw[1],
            blocks_placed: raw[2],
            blocks_dug: raw[3],
            chat_messages: raw[4] % 8,
            blocks_read: raw[5],
            ..PlayerStageReport::default()
        };
        let terrain = TerrainTickReport {
            neighbor_updates: raw[6],
            scheduled_updates: raw[7],
            random_ticks: raw[8],
            blocks_added: raw[9],
            blocks_removed: raw[10],
            blocks_updated: raw[11],
            light_positions: raw[12],
            fluid_spreads: raw[13],
            redstone_propagations: raw[14],
            growths: raw[15],
            blocks_scanned: raw[16],
            chunks_generated: raw[17] % 40,
        };
        let entity = EntityTickReport {
            entities_processed: raw[18],
            physics_blocks_checked: raw[19],
            path_nodes_expanded: raw[20],
            proximity_candidates: raw[21],
            spawn_positions_scanned: raw[22],
            items_merged: raw[23],
            items_collected: raw[24],
            explosions: raw[25] % 50,
            blocks_destroyed: raw[26],
            spawned: vec![(EntityId(1), EntityKind::Cow); (raw[27] % 8) as usize],
            removed: vec![EntityId(2); (raw[28] % 12) as usize],
            moved: Vec::new(),
        };
        (player, terrain, entity)
    }

    /// A busy tick: 40 actions from 25 players, a terrain cascade with two
    /// generated chunks, 180 entities and four explosions.
    const BUSY: [u64; 29] = [
        40, 25, 3, 2, 3, 85, // player
        900, 120, 288, 30, 45, 12, 2_400, 60, 150, 9, 5_000, 2, // terrain
        180, 2_000, 300, 420, 16, 5, 2, 4, 260, 6, 9, // entity
    ];

    /// Prices the [`BUSY`] tick with 25 recipients and 25 join chunks.
    fn price(
        flavor: ServerFlavor,
        eager_lighting: bool,
        (relit_positions, packets_emitted, gc_work): (u64, u64, u64),
        stage_width: u32,
        shard_loads: Option<[&[u64]; 3]>,
    ) -> TickCost {
        let (player, terrain, entity) = reports(&BUSY);
        let counters = TickCounters {
            player: &player,
            terrain: &terrain,
            entity: &entity,
            relit_positions,
            join_chunks: 25,
            recipients: 25,
            packets_emitted,
            gc_work,
        };
        tick_cost(
            &counters,
            &flavor.profile(),
            eager_lighting,
            stage_width,
            shard_loads,
        )
    }

    /// Expands `(main_thread, parallelizable, max_shard)` triples into the
    /// engine records of a tick whose sharded stages are `width` wide.
    fn stage_records(width: u32, triples: [(u64, u64, u64); STAGES]) -> [StageWork; STAGES] {
        std::array::from_fn(|s| StageWork {
            main_thread: triples[s].0,
            parallelizable: triples[s].1,
            parallel_width: if s == Other as usize { u32::MAX } else { width },
            max_shard: triples[s].2,
        })
    }

    // The three fixtures below are hard-coded from the arithmetic of the
    // 692-line `run_tick` this module replaced: a change to any of them is
    // a change to the model, not a refactoring.

    #[test]
    fn vanilla_eager_serial_tick() {
        let minor_gc = gc_pause_work(false, 180, 400);
        assert_eq!(minor_gc, 150_800);
        let cost = price(
            ServerFlavor::Vanilla,
            true,
            (17, 9_000, minor_gc),
            u32::MAX,
            None,
        );
        let expected = [
            (76_615, 0, 0),
            (105_253, 20_520, 0),
            (69_612, 17_403, 0),
            (3_675, 918, 0),
            (27_525, 0, 0),
            (2_000, 150_800, 0),
        ];
        assert_eq!(cost.stages, stage_records(u32::MAX, expected));
        assert_eq!(cost.offloadable, 8_105);
        assert_eq!(cost.components, [76_615, 1_995, 22_292, 87_015, 294_509]);
        assert_eq!((cost.max_shard_work, cost.load_report), (0, None));
    }

    #[test]
    fn paper_pipelined_tick_with_async_chat() {
        // Pipelined: the 1,900 queued positions are this tick's whole
        // lighting bill (the terrain report's own 2,400 are ignored) and it
        // is offloaded wholesale, as is the chat echo.
        let cost = price(
            ServerFlavor::Paper,
            false,
            (1_900, 7_500, 0),
            u32::MAX,
            None,
        );
        let expected = [
            (71_089, 0, 0),
            (58_770, 17_550, 0),
            (26_908, 9_666, 0),
            (0, 0, 0),
            (13_571, 0, 0),
            (1_857, 0, 0),
        ];
        assert_eq!(cost.stages, stage_records(u32::MAX, expected));
        assert_eq!(cost.offloadable, 54_890);
        assert_eq!(cost.components, [76_615, 1_995, 13_375, 38_666, 137_035]);
        assert_eq!((cost.max_shard_work, cost.load_report), (0, None));
    }

    #[test]
    fn folia_tick_with_uneven_shard_loads() {
        let loads: [&[u64]; 3] = [&[900, 0, 120, 30], &[700, 40, 300, 80], &[150, 5, 20, 5]];
        let major_gc = gc_pause_work(true, 180, 400);
        assert_eq!(major_gc, 992_000);
        let cost = price(
            ServerFlavor::Folia,
            false,
            (1_900, 7_500, major_gc),
            4,
            Some(loads),
        );
        // Shard 0 carries most of every stage, so each floor sits close to
        // its stage's parallel share.
        let expected = [
            (7_999, 61_292, 52_536),
            (12_909, 56_160, 35_100),
            (4_037, 30_932, 25_776),
            (0, 0, 0),
            (1_527, 11_700, 0),
            (1_046, 992_000, 0),
        ];
        assert_eq!(cost.stages, stage_records(4, expected));
        assert_eq!(cost.offloadable, 54_890);
        assert_eq!(cost.max_shard_work, 52_536 + 35_100 + 25_776);
        let report = cost.load_report.expect("sharded ticks report loads");
        assert_eq!(report.loads(), &[63_200, 2_310, 11_320, 2_900]);
    }

    #[test]
    fn load_report_folds_stage_counters_with_model_weights() {
        let report = shard_load_report([&[7, 0, 0], &[10, 0, 2], &[1, 3, 0]]);
        assert_eq!(
            report.loads(),
            &[
                10 * SCHEDULED_UPDATE + ENTITY_PROCESSED + 7,
                3 * ENTITY_PROCESSED,
                2 * SCHEDULED_UPDATE
            ]
        );
    }

    proptest! {
        #[test]
        fn the_split_conserves_work(
            raw in prop::collection::vec(0u64..20_000, 29),
            extra in prop::collection::vec(0u64..3_000, 5),
            flavor in 0usize..4,
            eager_lighting in any::<bool>(),
            shards in 0usize..9,
            loads in prop::collection::vec(0u64..1_000, 24),
        ) {
            let (player, terrain, entity) = reports(&raw);
            let flavors = [
                ServerFlavor::Vanilla,
                ServerFlavor::Forge,
                ServerFlavor::Paper,
                ServerFlavor::Folia,
            ];
            let profile = flavors[flavor].profile();
            let counters = TickCounters {
                player: &player,
                terrain: &terrain,
                entity: &entity,
                relit_positions: extra[0],
                join_chunks: extra[1] % 30,
                recipients: extra[2] % 300,
                packets_emitted: extra[2] * 40,
                gc_work: if extra[3] % 3 == 0 {
                    gc_pause_work(extra[3] % 2 == 0, extra[4], extra[0])
                } else {
                    0
                },
            };
            // `shards == 0` is the serial path: no loads, JVM-wide stages.
            let per_stage: Vec<&[u64]> = loads.chunks(8).map(|l| &l[..shards]).collect();
            let shard_loads = (shards > 0).then(|| [per_stage[0], per_stage[1], per_stage[2]]);
            let width = if shards > 0 { shards as u32 } else { u32::MAX };
            let cost = tick_cost(&counters, &profile, eager_lighting, width, shard_loads);

            let unscaled: u64 = cost.components.iter().sum();
            let total_work = (unscaled as f64 * profile.overhead_multiplier) as u64;
            let placed: u64 = cost.stages.iter().map(StageWork::total).sum();
            prop_assert_eq!(placed + cost.offloadable, total_work);
            prop_assert!(cost.offloadable <= total_work);
            for stage in &cost.stages {
                prop_assert!(stage.max_shard <= stage.parallelizable);
            }
            let floors: u64 = cost.stages.iter().map(|stage| stage.max_shard).sum();
            prop_assert_eq!(cost.max_shard_work, floors);
            prop_assert_eq!(cost.load_report.map(|r| r.loads().len()), shard_loads.map(|_| shards));
        }
    }
}
