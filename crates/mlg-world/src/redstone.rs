//! Redstone-like signal simulation.
//!
//! Simulated constructs — resource farms, item sorters and lag machines — are
//! built from signal components: dust wires, torches, repeaters, observers,
//! pistons and clocks. The paper highlights that the Lag workload "uses many
//! logic-gate constructs in a small area to cause a high volume of simulation
//! rule activations" and that its parts "are only simulated every other tick,
//! causing the game to alternate between extremely short and extremely long
//! ticks" — exactly the behaviour this module reproduces with its
//! clock components.

use crate::block::{Block, BlockKind};
use crate::pos::BlockPos;
use crate::shard::{BlockReader, TerrainView};
use crate::sim::TerrainEvent;
use crate::update::UpdateKind;

/// Bit in the state byte marking a component as powered / extended / lit.
const POWERED_BIT: u8 = 0b1_0000;

/// Result of processing one redstone update.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RedstoneOutcome {
    /// Whether the component changed state.
    pub changed: bool,
    /// Number of neighbouring positions read to evaluate the rule.
    pub blocks_scanned: u32,
    /// Number of signal propagation steps performed (dust recomputation).
    pub propagations: u32,
    /// Blocks harvested by piston extension, to be turned into item entities.
    pub events: Vec<TerrainEvent>,
}

/// Returns the strongest redstone power level feeding into `pos` from its
/// face-adjacent neighbours.
#[must_use]
fn incoming_power<W: BlockReader>(world: &mut W, pos: BlockPos) -> u8 {
    pos.neighbors()
        .iter()
        .map(|&n| world.block(n).power())
        .max()
        .unwrap_or(0)
}

/// Processes a block update for a redstone component at `pos`.
pub fn apply_redstone<W: TerrainView>(
    world: &mut W,
    pos: BlockPos,
    update_kind: UpdateKind,
) -> RedstoneOutcome {
    let block = world.block(pos);
    match block.kind() {
        BlockKind::RedstoneDust => update_dust(world, pos, block),
        BlockKind::RedstoneTorch => update_torch(world, pos, block),
        BlockKind::Repeater => update_repeater(world, pos, block, update_kind),
        BlockKind::Comparator => update_clock(world, pos, block, update_kind),
        BlockKind::Observer => update_observer(world, pos, block, update_kind),
        BlockKind::Piston | BlockKind::StickyPiston => update_piston(world, pos, block),
        BlockKind::Dispenser => update_dispenser(world, pos, block),
        _ => RedstoneOutcome::default(),
    }
}

fn update_dust<W: TerrainView>(world: &mut W, pos: BlockPos, block: Block) -> RedstoneOutcome {
    let mut outcome = RedstoneOutcome::default();
    let mut strongest = 0u8;
    for n in pos.neighbors() {
        let nb = world.block(n);
        outcome.blocks_scanned += 1;
        let contribution = match nb.kind() {
            // Dust feeds adjacent dust at one level lower.
            BlockKind::RedstoneDust => nb.power().saturating_sub(1),
            _ => nb.power(),
        };
        strongest = strongest.max(contribution);
    }
    let new_level = strongest.min(15);
    if new_level != block.state() {
        world.set_block(pos, block.set_state(new_level));
        outcome.changed = true;
        outcome.propagations = 1;
    }
    outcome
}

fn update_torch<W: TerrainView>(world: &mut W, pos: BlockPos, block: Block) -> RedstoneOutcome {
    let mut outcome = RedstoneOutcome::default();
    // A torch is an inverter: it is lit when it receives no power.
    let mut powered_input = false;
    for n in pos.neighbors() {
        let nb = world.block(n);
        outcome.blocks_scanned += 1;
        if nb.kind() != BlockKind::RedstoneTorch && nb.power() > 0 {
            powered_input = true;
        }
    }
    let currently_lit = block.state() != 0;
    let should_be_lit = !powered_input;
    if currently_lit != should_be_lit {
        // Torches switch with a one-tick delay, which is what makes
        // torch-dust loops oscillate (fast clocks).
        world.schedule_tick(pos, 1);
        world.set_block(pos, block.set_state(u8::from(should_be_lit)));
        outcome.changed = true;
    }
    outcome
}

fn update_repeater<W: TerrainView>(
    world: &mut W,
    pos: BlockPos,
    block: Block,
    update_kind: UpdateKind,
) -> RedstoneOutcome {
    let mut outcome = RedstoneOutcome::default();
    let input = incoming_power(world, pos) > 0;
    outcome.blocks_scanned += 6;
    let output = block.state() & POWERED_BIT != 0;
    match update_kind {
        UpdateKind::Scheduled => {
            // Apply the pending transition.
            let new_state = if input {
                block.state() | POWERED_BIT
            } else {
                block.state() & !POWERED_BIT
            };
            if new_state != block.state() {
                world.set_block(pos, block.set_state(new_state));
                outcome.changed = true;
            }
        }
        _ => {
            if input != output {
                // Delay of 2 game ticks (1 redstone tick), like Minecraft's
                // default repeater setting.
                world.schedule_tick(pos, 2);
            }
        }
    }
    outcome
}

/// A comparator wired in a clock loop: it toggles its output every
/// `period` ticks as long as it keeps being scheduled. Workload builders
/// start the clock by scheduling one tick on it.
fn update_clock<W: TerrainView>(
    world: &mut W,
    pos: BlockPos,
    block: Block,
    update_kind: UpdateKind,
) -> RedstoneOutcome {
    let mut outcome = RedstoneOutcome::default();
    let period = (block.state() & 0x0F).max(1);
    match update_kind {
        UpdateKind::Scheduled => {
            let toggled = block.state() ^ POWERED_BIT;
            world.set_block(pos, block.set_state(toggled));
            world.schedule_tick(pos, u64::from(period));
            outcome.changed = true;
        }
        UpdateKind::NeighborChanged | UpdateKind::Random => {
            // Neighbour changes do not affect a free-running clock.
        }
    }
    outcome
}

fn update_observer<W: TerrainView>(
    world: &mut W,
    pos: BlockPos,
    block: Block,
    update_kind: UpdateKind,
) -> RedstoneOutcome {
    let mut outcome = RedstoneOutcome::default();
    let powered = block.state() & POWERED_BIT != 0;
    match update_kind {
        UpdateKind::NeighborChanged => {
            if !powered {
                // Emit a 2-tick pulse.
                world.set_block(pos, block.set_state(block.state() | POWERED_BIT));
                world.schedule_tick(pos, 2);
                outcome.changed = true;
            }
        }
        UpdateKind::Scheduled => {
            if powered {
                world.set_block(pos, block.set_state(block.state() & !POWERED_BIT));
                outcome.changed = true;
            }
        }
        UpdateKind::Random => {}
    }
    outcome
}

/// Kinds that a piston extension harvests into item entities.
fn is_harvestable(kind: BlockKind) -> bool {
    matches!(
        kind,
        BlockKind::Kelp
            | BlockKind::SugarCane
            | BlockKind::Wheat
            | BlockKind::Cobblestone
            | BlockKind::Stone
    )
}

fn update_piston<W: TerrainView>(world: &mut W, pos: BlockPos, block: Block) -> RedstoneOutcome {
    let mut outcome = RedstoneOutcome::default();
    let powered = incoming_power(world, pos) > 0;
    outcome.blocks_scanned += 6;
    let extended = block.state() & POWERED_BIT != 0;
    if powered && !extended {
        world.set_block(pos, block.set_state(block.state() | POWERED_BIT));
        outcome.changed = true;
        // Extension breaks every adjacent harvestable block, turning it into
        // an item entity — the core mechanic of stone and kelp farms.
        for n in pos.neighbors() {
            let nb = world.block(n);
            outcome.blocks_scanned += 1;
            if is_harvestable(nb.kind()) {
                world.set_block(n, Block::AIR);
                outcome.events.push(TerrainEvent::BlockHarvested {
                    pos: n,
                    kind: nb.kind(),
                });
            }
        }
    } else if !powered && extended {
        world.set_block(pos, block.set_state(block.state() & !POWERED_BIT));
        outcome.changed = true;
    }
    outcome
}

fn update_dispenser<W: TerrainView>(world: &mut W, pos: BlockPos, block: Block) -> RedstoneOutcome {
    let mut outcome = RedstoneOutcome::default();
    let powered = incoming_power(world, pos) > 0;
    outcome.blocks_scanned += 6;
    let was_powered = block.state() & POWERED_BIT != 0;
    if powered && !was_powered {
        world.set_block(pos, block.set_state(block.state() | POWERED_BIT));
        outcome.changed = true;
        // Dispensers in farm constructs eject an item on each rising edge.
        outcome.events.push(TerrainEvent::ItemDispensed { pos });
    } else if !powered && was_powered {
        world.set_block(pos, block.set_state(block.state() & !POWERED_BIT));
        outcome.changed = true;
    }
    outcome
}

/// Block kinds that the redstone rule reacts to.
#[must_use]
pub fn reacts_to_updates(kind: BlockKind) -> bool {
    kind.is_redstone_component()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::FlatGenerator;
    use crate::world::World;

    fn world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    #[test]
    fn dust_takes_power_from_redstone_block() {
        let mut w = world();
        let dust = BlockPos::new(4, 61, 4);
        w.set_block_silent(dust, Block::simple(BlockKind::RedstoneDust));
        w.set_block_silent(
            dust.offset(1, 0, 0),
            Block::simple(BlockKind::RedstoneBlock),
        );
        let out = apply_redstone(&mut w, dust, UpdateKind::NeighborChanged);
        assert!(out.changed);
        assert_eq!(w.block(dust).state(), 15);
    }

    #[test]
    fn dust_power_decays_along_a_wire() {
        let mut w = world();
        let a = BlockPos::new(4, 61, 4);
        let b = a.offset(1, 0, 0);
        w.set_block_silent(a, Block::with_state(BlockKind::RedstoneDust, 15));
        w.set_block_silent(b, Block::simple(BlockKind::RedstoneDust));
        apply_redstone(&mut w, b, UpdateKind::NeighborChanged);
        assert_eq!(w.block(b).state(), 14);
    }

    #[test]
    fn unpowered_dust_turns_off() {
        let mut w = world();
        let dust = BlockPos::new(4, 61, 4);
        w.set_block_silent(dust, Block::with_state(BlockKind::RedstoneDust, 9));
        let out = apply_redstone(&mut w, dust, UpdateKind::NeighborChanged);
        assert!(out.changed);
        assert_eq!(w.block(dust).state(), 0);
    }

    #[test]
    fn torch_inverts_input() {
        let mut w = world();
        let torch = BlockPos::new(4, 61, 4);
        w.set_block_silent(torch, Block::with_state(BlockKind::RedstoneTorch, 1));
        // Power the torch: it should schedule itself to turn off.
        w.set_block_silent(
            torch.offset(1, 0, 0),
            Block::simple(BlockKind::RedstoneBlock),
        );
        let out = apply_redstone(&mut w, torch, UpdateKind::NeighborChanged);
        assert!(out.changed);
        assert_eq!(w.block(torch).state(), 0);
        let due = w.updates_mut().pop_due(u64::MAX);
        assert!(due.iter().any(|u| u.pos == torch));
    }

    #[test]
    fn clock_toggles_and_reschedules() {
        let mut w = world();
        let clock = BlockPos::new(4, 61, 4);
        w.set_block_silent(
            clock,
            // Period 2: the every-other-tick clock of a lag machine.
            Block::with_state(BlockKind::Comparator, 2),
        );
        let before = w.block(clock).state() & POWERED_BIT;
        let out = apply_redstone(&mut w, clock, UpdateKind::Scheduled);
        assert!(out.changed);
        let after = w.block(clock).state() & POWERED_BIT;
        assert_ne!(before, after);
        let due: Vec<BlockPos> = w
            .updates_mut()
            .pop_due(u64::MAX)
            .iter()
            .map(|u| u.pos)
            .collect();
        assert_eq!(due, [clock]);
        // Neighbour updates do not disturb the clock.
        let noop = apply_redstone(&mut w, clock, UpdateKind::NeighborChanged);
        assert!(!noop.changed);
    }

    #[test]
    fn observer_emits_a_pulse() {
        let mut w = world();
        let obs = BlockPos::new(4, 61, 4);
        w.set_block_silent(obs, Block::simple(BlockKind::Observer));
        let out = apply_redstone(&mut w, obs, UpdateKind::NeighborChanged);
        assert!(out.changed);
        assert_eq!(w.block(obs).power(), 15);
        // The scheduled follow-up clears the pulse.
        let out2 = apply_redstone(&mut w, obs, UpdateKind::Scheduled);
        assert!(out2.changed);
        assert_eq!(w.block(obs).power(), 0);
    }

    #[test]
    fn powered_piston_harvests_adjacent_kelp() {
        let mut w = world();
        let piston = BlockPos::new(4, 61, 4);
        let kelp = piston.offset(0, 0, 1);
        w.set_block_silent(piston, Block::simple(BlockKind::Piston));
        w.set_block_silent(kelp, Block::simple(BlockKind::Kelp));
        w.set_block_silent(
            piston.offset(1, 0, 0),
            Block::simple(BlockKind::RedstoneBlock),
        );
        let out = apply_redstone(&mut w, piston, UpdateKind::NeighborChanged);
        assert!(out.changed);
        assert_eq!(w.block(kelp), Block::AIR);
        assert_eq!(out.events.len(), 1);
        assert!(matches!(
            out.events[0],
            TerrainEvent::BlockHarvested {
                kind: BlockKind::Kelp,
                ..
            }
        ));
    }

    #[test]
    fn piston_retracts_when_unpowered() {
        let mut w = world();
        let piston = BlockPos::new(4, 61, 4);
        w.set_block_silent(piston, Block::with_state(BlockKind::Piston, POWERED_BIT));
        let out = apply_redstone(&mut w, piston, UpdateKind::NeighborChanged);
        assert!(out.changed);
        assert_eq!(w.block(piston).state() & POWERED_BIT, 0);
    }

    #[test]
    fn dispenser_fires_once_per_rising_edge() {
        let mut w = world();
        let disp = BlockPos::new(4, 61, 4);
        w.set_block_silent(disp, Block::simple(BlockKind::Dispenser));
        w.set_block_silent(
            disp.offset(1, 0, 0),
            Block::simple(BlockKind::RedstoneBlock),
        );
        let first = apply_redstone(&mut w, disp, UpdateKind::NeighborChanged);
        assert_eq!(first.events.len(), 1);
        // Still powered: no second ejection until the power drops.
        let second = apply_redstone(&mut w, disp, UpdateKind::NeighborChanged);
        assert!(second.events.is_empty());
    }

    #[test]
    fn repeater_applies_input_after_delay() {
        let mut w = world();
        let rep = BlockPos::new(4, 61, 4);
        w.set_block_silent(rep, Block::simple(BlockKind::Repeater));
        w.set_block_silent(rep.offset(1, 0, 0), Block::simple(BlockKind::RedstoneBlock));
        // Neighbour update only schedules the transition.
        let out = apply_redstone(&mut w, rep, UpdateKind::NeighborChanged);
        assert!(!out.changed);
        assert_eq!(w.block(rep).power(), 0);
        // Scheduled update applies it.
        let out2 = apply_redstone(&mut w, rep, UpdateKind::Scheduled);
        assert!(out2.changed);
        assert_eq!(w.block(rep).power(), 15);
    }

    #[test]
    fn non_redstone_blocks_are_ignored() {
        let mut w = world();
        let pos = BlockPos::new(4, 61, 4);
        w.set_block_silent(pos, Block::simple(BlockKind::Stone));
        let out = apply_redstone(&mut w, pos, UpdateKind::NeighborChanged);
        assert_eq!(out, RedstoneOutcome::default());
    }
}
