//! Block kinds and per-block state.
//!
//! Blocks are the atoms of the modifiable MLG terrain (Section 2.2.2 of the
//! paper). Each block is a compact value type: a [`BlockKind`] plus one byte
//! of kind-specific state (redstone power level, fluid level, growth stage,
//! fuse progress, …).

use serde::{Deserialize, Serialize};

/// The kind of a block.
///
/// The set of kinds is intentionally a superset of what the Meterstick
/// workload worlds need: natural terrain blocks, fluids, gravity-affected
/// blocks, plants, and the redstone-like components used by *simulated
/// constructs* (resource farms, item sorters, lag machines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[non_exhaustive]
#[derive(Default)]
pub enum BlockKind {
    /// Empty space.
    #[default]
    Air,
    /// Generic stone; the most common underground block.
    Stone,
    /// Cobblestone, produced when water meets lava in stone farms.
    Cobblestone,
    /// Dirt below the surface layer.
    Dirt,
    /// Grass-covered dirt at the surface.
    Grass,
    /// Sand: gravity-affected.
    Sand,
    /// Gravel: gravity-affected.
    Gravel,
    /// Tree trunk.
    Log,
    /// Tree canopy.
    Leaves,
    /// Bedrock: indestructible bottom layer.
    Bedrock,
    /// Water source or flowing water; state = fluid level (0 = source).
    Water,
    /// Lava source or flowing lava; state = fluid level (0 = source).
    Lava,
    /// A placed TNT block; when ignited it is replaced by a primed TNT entity.
    Tnt,
    /// Obsidian, created when lava sources are flooded.
    Obsidian,
    /// Planks / generic building block.
    Planks,
    /// Glass (transparent, non-full light attenuation).
    Glass,
    /// Redstone dust wire; state = power level 0–15.
    RedstoneDust,
    /// Redstone torch; state = 1 when lit.
    RedstoneTorch,
    /// Redstone repeater; state bits: low nibble = remaining delay, bit 4 = powered.
    Repeater,
    /// Redstone comparator (treated as a unit-delay powered component).
    Comparator,
    /// Observer block: emits a pulse when the observed block changes.
    Observer,
    /// Piston body; state = 1 when extended.
    Piston,
    /// Sticky piston body; state = 1 when extended.
    StickyPiston,
    /// A redstone block: constant power source.
    RedstoneBlock,
    /// Lever; state = 1 when on.
    Lever,
    /// Hopper: collects and transfers item entities (used by item sorters).
    Hopper,
    /// Chest: item storage endpoint for farms and sorters.
    Chest,
    /// Dispenser/dropper: ejects items or places blocks when powered.
    Dispenser,
    /// Dried-out farmland or farmland; state = 1 when hydrated.
    Farmland,
    /// Wheat crop; state = growth stage 0–7.
    Wheat,
    /// Kelp plant; state = current height of the kelp stalk at this block.
    Kelp,
    /// Sugar cane; state = growth stage.
    SugarCane,
    /// Sapling that may grow into a tree; state = growth stage.
    Sapling,
    /// Magma block used at the bottom of kelp/entity farms.
    Magma,
    /// Slab/half block used in farm roofs (spawnable surface control).
    Slab,
    /// Spawner-attracting dark platform marker used by entity farms.
    SpawningPlatform,
}

impl BlockKind {
    /// Returns `true` for blocks that entities and players collide with.
    #[must_use]
    pub fn is_solid(self) -> bool {
        !matches!(
            self,
            BlockKind::Air
                | BlockKind::Water
                | BlockKind::Lava
                | BlockKind::RedstoneDust
                | BlockKind::RedstoneTorch
                | BlockKind::Lever
                | BlockKind::Wheat
                | BlockKind::Kelp
                | BlockKind::SugarCane
                | BlockKind::Sapling
        )
    }

    /// Returns `true` for fluid blocks (water and lava).
    #[must_use]
    pub fn is_fluid(self) -> bool {
        matches!(self, BlockKind::Water | BlockKind::Lava)
    }

    /// Returns `true` for blocks pulled down by gravity when unsupported.
    #[must_use]
    pub fn is_gravity_affected(self) -> bool {
        matches!(self, BlockKind::Sand | BlockKind::Gravel)
    }

    /// Returns `true` for blocks that participate in redstone-like signal
    /// simulation.
    #[must_use]
    pub fn is_redstone_component(self) -> bool {
        matches!(
            self,
            BlockKind::RedstoneDust
                | BlockKind::RedstoneTorch
                | BlockKind::Repeater
                | BlockKind::Comparator
                | BlockKind::Observer
                | BlockKind::Piston
                | BlockKind::StickyPiston
                | BlockKind::RedstoneBlock
                | BlockKind::Lever
                | BlockKind::Dispenser
                | BlockKind::Hopper
        )
    }

    /// Returns `true` for plant blocks that grow via random ticks.
    #[must_use]
    pub fn is_plant(self) -> bool {
        matches!(
            self,
            BlockKind::Wheat | BlockKind::Kelp | BlockKind::SugarCane | BlockKind::Sapling
        )
    }

    /// Returns how much light is attenuated when passing through this block
    /// (15 = fully opaque, 0 = fully transparent).
    #[must_use]
    pub fn light_opacity(self) -> u8 {
        if self == BlockKind::Air || self == BlockKind::Glass || !self.is_solid() {
            if self == BlockKind::Water {
                2
            } else {
                0
            }
        } else if matches!(self, BlockKind::Leaves | BlockKind::Slab) {
            1
        } else {
            15
        }
    }

    /// Returns `true` if this kind can be destroyed by an explosion.
    #[must_use]
    pub fn is_destructible(self) -> bool {
        !matches!(
            self,
            BlockKind::Bedrock | BlockKind::Obsidian | BlockKind::Air
        )
    }

    /// Returns `true` if entities can be spawned standing on this block kind.
    #[must_use]
    pub fn is_spawnable_surface(self) -> bool {
        self.is_solid() && !matches!(self, BlockKind::Glass | BlockKind::Slab | BlockKind::Magma)
    }

    /// Returns a short human-readable name for this block kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BlockKind::Air => "air",
            BlockKind::Stone => "stone",
            BlockKind::Cobblestone => "cobblestone",
            BlockKind::Dirt => "dirt",
            BlockKind::Grass => "grass",
            BlockKind::Sand => "sand",
            BlockKind::Gravel => "gravel",
            BlockKind::Log => "log",
            BlockKind::Leaves => "leaves",
            BlockKind::Bedrock => "bedrock",
            BlockKind::Water => "water",
            BlockKind::Lava => "lava",
            BlockKind::Tnt => "tnt",
            BlockKind::Obsidian => "obsidian",
            BlockKind::Planks => "planks",
            BlockKind::Glass => "glass",
            BlockKind::RedstoneDust => "redstone_dust",
            BlockKind::RedstoneTorch => "redstone_torch",
            BlockKind::Repeater => "repeater",
            BlockKind::Comparator => "comparator",
            BlockKind::Observer => "observer",
            BlockKind::Piston => "piston",
            BlockKind::StickyPiston => "sticky_piston",
            BlockKind::RedstoneBlock => "redstone_block",
            BlockKind::Lever => "lever",
            BlockKind::Hopper => "hopper",
            BlockKind::Chest => "chest",
            BlockKind::Dispenser => "dispenser",
            BlockKind::Farmland => "farmland",
            BlockKind::Wheat => "wheat",
            BlockKind::Kelp => "kelp",
            BlockKind::SugarCane => "sugar_cane",
            BlockKind::Sapling => "sapling",
            BlockKind::Magma => "magma",
            BlockKind::Slab => "slab",
            BlockKind::SpawningPlatform => "spawning_platform",
        }
    }

    /// Returns a stable numeric identifier used by the network protocol.
    #[must_use]
    pub fn protocol_id(self) -> u16 {
        match self {
            BlockKind::Air => 0,
            BlockKind::Stone => 1,
            BlockKind::Cobblestone => 2,
            BlockKind::Dirt => 3,
            BlockKind::Grass => 4,
            BlockKind::Sand => 5,
            BlockKind::Gravel => 6,
            BlockKind::Log => 7,
            BlockKind::Leaves => 8,
            BlockKind::Bedrock => 9,
            BlockKind::Water => 10,
            BlockKind::Lava => 11,
            BlockKind::Tnt => 12,
            BlockKind::Obsidian => 13,
            BlockKind::Planks => 14,
            BlockKind::Glass => 15,
            BlockKind::RedstoneDust => 16,
            BlockKind::RedstoneTorch => 17,
            BlockKind::Repeater => 18,
            BlockKind::Comparator => 19,
            BlockKind::Observer => 20,
            BlockKind::Piston => 21,
            BlockKind::StickyPiston => 22,
            BlockKind::RedstoneBlock => 23,
            BlockKind::Lever => 24,
            BlockKind::Hopper => 25,
            BlockKind::Chest => 26,
            BlockKind::Dispenser => 27,
            BlockKind::Farmland => 28,
            BlockKind::Wheat => 29,
            BlockKind::Kelp => 30,
            BlockKind::SugarCane => 31,
            BlockKind::Sapling => 32,
            BlockKind::Magma => 33,
            BlockKind::Slab => 34,
            BlockKind::SpawningPlatform => 35,
        }
    }

    /// All block kinds, in protocol-id order. Useful for property tests.
    #[must_use]
    pub const fn all() -> &'static [BlockKind] {
        &[
            BlockKind::Air,
            BlockKind::Stone,
            BlockKind::Cobblestone,
            BlockKind::Dirt,
            BlockKind::Grass,
            BlockKind::Sand,
            BlockKind::Gravel,
            BlockKind::Log,
            BlockKind::Leaves,
            BlockKind::Bedrock,
            BlockKind::Water,
            BlockKind::Lava,
            BlockKind::Tnt,
            BlockKind::Obsidian,
            BlockKind::Planks,
            BlockKind::Glass,
            BlockKind::RedstoneDust,
            BlockKind::RedstoneTorch,
            BlockKind::Repeater,
            BlockKind::Comparator,
            BlockKind::Observer,
            BlockKind::Piston,
            BlockKind::StickyPiston,
            BlockKind::RedstoneBlock,
            BlockKind::Lever,
            BlockKind::Hopper,
            BlockKind::Chest,
            BlockKind::Dispenser,
            BlockKind::Farmland,
            BlockKind::Wheat,
            BlockKind::Kelp,
            BlockKind::SugarCane,
            BlockKind::Sapling,
            BlockKind::Magma,
            BlockKind::Slab,
            BlockKind::SpawningPlatform,
        ]
    }

    /// Looks a block kind up by its protocol identifier.
    #[must_use]
    pub fn from_protocol_id(id: u16) -> Option<BlockKind> {
        BlockKind::all().get(id as usize).copied()
    }
}

impl std::fmt::Display for BlockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A block: a kind plus one byte of kind-specific state.
///
/// The meaning of `state` depends on the kind:
/// * redstone dust — power level 0–15,
/// * fluids — flow level (0 = source, 1–7 flowing),
/// * crops/kelp/saplings — growth stage,
/// * repeaters — remaining delay and powered bit,
/// * levers, torches, pistons — on/extended flag.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct Block {
    kind: BlockKind,
    state: u8,
}

impl Block {
    /// The air block.
    pub const AIR: Block = Block {
        kind: BlockKind::Air,
        state: 0,
    };

    /// Creates a block of the given kind with zeroed state.
    #[must_use]
    pub const fn simple(kind: BlockKind) -> Self {
        Block { kind, state: 0 }
    }

    /// Creates a block of the given kind with explicit state.
    #[must_use]
    pub const fn with_state(kind: BlockKind, state: u8) -> Self {
        Block { kind, state }
    }

    /// Returns the block kind.
    #[must_use]
    pub const fn kind(self) -> BlockKind {
        self.kind
    }

    /// Returns the raw state byte.
    #[must_use]
    pub const fn state(self) -> u8 {
        self.state
    }

    /// Returns a copy of this block with the state byte replaced.
    #[must_use]
    pub const fn set_state(self, state: u8) -> Self {
        Block {
            kind: self.kind,
            state,
        }
    }

    /// Returns `true` if this block is air.
    #[must_use]
    pub const fn is_air(self) -> bool {
        matches!(self.kind, BlockKind::Air)
    }

    /// Returns `true` for blocks that entities and players collide with.
    #[must_use]
    pub fn is_solid(self) -> bool {
        self.kind.is_solid()
    }

    /// Returns the redstone power this block currently outputs (0–15).
    #[must_use]
    pub fn power(self) -> u8 {
        match self.kind {
            BlockKind::RedstoneBlock => 15,
            BlockKind::RedstoneDust => self.state.min(15),
            BlockKind::RedstoneTorch | BlockKind::Lever if self.state != 0 => 15,
            BlockKind::Repeater | BlockKind::Comparator | BlockKind::Observer
                if self.state & 0b1_0000 != 0 =>
            {
                15
            }
            _ => 0,
        }
    }
}

impl std::fmt::Display for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.state == 0 {
            write!(f, "{}", self.kind)
        } else {
            write!(f, "{}[{}]", self.kind, self.state)
        }
    }
}

impl From<BlockKind> for Block {
    fn from(kind: BlockKind) -> Self {
        Block::simple(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_id_roundtrip() {
        for &kind in BlockKind::all() {
            assert_eq!(BlockKind::from_protocol_id(kind.protocol_id()), Some(kind));
        }
    }

    #[test]
    fn protocol_ids_are_unique_and_dense() {
        let all = BlockKind::all();
        for (i, &kind) in all.iter().enumerate() {
            assert_eq!(kind.protocol_id() as usize, i);
        }
        assert_eq!(BlockKind::from_protocol_id(all.len() as u16), None);
    }

    #[test]
    fn air_is_not_solid() {
        assert!(!BlockKind::Air.is_solid());
        assert!(Block::AIR.is_air());
        assert!(!Block::AIR.is_solid());
    }

    #[test]
    fn fluids_and_gravity() {
        assert!(BlockKind::Water.is_fluid());
        assert!(BlockKind::Lava.is_fluid());
        assert!(!BlockKind::Stone.is_fluid());
        assert!(BlockKind::Sand.is_gravity_affected());
        assert!(BlockKind::Gravel.is_gravity_affected());
        assert!(!BlockKind::Stone.is_gravity_affected());
    }

    #[test]
    fn redstone_component_classification() {
        assert!(BlockKind::RedstoneDust.is_redstone_component());
        assert!(BlockKind::Observer.is_redstone_component());
        assert!(BlockKind::Hopper.is_redstone_component());
        assert!(!BlockKind::Stone.is_redstone_component());
    }

    #[test]
    fn power_levels() {
        assert_eq!(Block::simple(BlockKind::RedstoneBlock).power(), 15);
        assert_eq!(Block::with_state(BlockKind::RedstoneDust, 7).power(), 7);
        assert_eq!(Block::with_state(BlockKind::RedstoneDust, 200).power(), 15);
        assert_eq!(Block::with_state(BlockKind::Lever, 1).power(), 15);
        assert_eq!(Block::with_state(BlockKind::Lever, 0).power(), 0);
        assert_eq!(Block::with_state(BlockKind::Repeater, 0b1_0000).power(), 15);
        assert_eq!(Block::with_state(BlockKind::Repeater, 0b0_0011).power(), 0);
        assert_eq!(Block::simple(BlockKind::Stone).power(), 0);
    }

    #[test]
    fn light_properties() {
        assert_eq!(BlockKind::Stone.light_opacity(), 15);
        assert_eq!(BlockKind::Air.light_opacity(), 0);
        assert_eq!(BlockKind::Water.light_opacity(), 2);
        assert_eq!(BlockKind::Leaves.light_opacity(), 1);
    }

    #[test]
    fn bedrock_is_indestructible() {
        assert!(!BlockKind::Bedrock.is_destructible());
        assert!(BlockKind::Stone.is_destructible());
        assert!(!BlockKind::Air.is_destructible());
    }

    #[test]
    fn display_includes_state() {
        assert_eq!(Block::simple(BlockKind::Stone).to_string(), "stone");
        assert_eq!(
            Block::with_state(BlockKind::Wheat, 3).to_string(),
            "wheat[3]"
        );
    }

    #[test]
    fn spawnable_surfaces() {
        assert!(BlockKind::Stone.is_spawnable_surface());
        assert!(!BlockKind::Glass.is_spawnable_surface());
        assert!(!BlockKind::Water.is_spawnable_surface());
    }
}
