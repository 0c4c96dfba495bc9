//! Packet types exchanged between MLG clients and the server.

use serde::{Deserialize, Serialize};

use mlg_entity::{EntityId, Vec3};
use mlg_world::{Block, BlockPos, ChunkPos};

/// Direction a packet travels in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketDirection {
    /// From a client to the server (player actions).
    Serverbound,
    /// From the server to one or more clients (state updates).
    Clientbound,
}

/// Packets sent by clients to the server (player actions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ServerboundPacket {
    /// Initial login/handshake carrying the player's name.
    Login {
        /// Display name of the joining player.
        username: String,
    },
    /// The player moved to a new position.
    PlayerMove {
        /// New position of the player's feet.
        pos: Vec3,
        /// Whether the player is on the ground.
        on_ground: bool,
    },
    /// The player placed a block.
    BlockPlace {
        /// Where the block is placed.
        pos: BlockPos,
        /// The block being placed.
        block: Block,
    },
    /// The player broke a block.
    BlockDig {
        /// Which block is being broken.
        pos: BlockPos,
    },
    /// The player sent a chat message. Meterstick uses the chat echo to
    /// measure game response time (Section 3.5.1).
    Chat {
        /// Message text.
        message: String,
        /// Client-side timestamp (virtual milliseconds) used to compute the
        /// round-trip response time when the echo returns.
        sent_at_ms: f64,
    },
    /// Keep-alive response.
    KeepAlive {
        /// Identifier echoed from the server's keep-alive request.
        id: u64,
    },
    /// Orderly disconnect.
    Disconnect,
}

/// Packets sent by the server to clients (state updates).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ClientboundPacket {
    /// Login accepted; carries the player's entity id and spawn position.
    LoginAccepted {
        /// Entity id assigned to the player.
        player_id: EntityId,
        /// Initial spawn position.
        spawn: Vec3,
    },
    /// Full chunk payload sent when a chunk enters the player's view.
    ChunkData {
        /// Which chunk.
        pos: ChunkPos,
        /// Approximate serialized size of the chunk payload in bytes.
        payload_bytes: u32,
    },
    /// A single block changed.
    BlockChange {
        /// Position of the change.
        pos: BlockPos,
        /// New block value.
        block: Block,
    },
    /// An entity was spawned.
    EntitySpawn {
        /// Id of the new entity.
        id: EntityId,
        /// Protocol identifier of the entity kind.
        kind_id: u16,
        /// Spawn position.
        pos: Vec3,
    },
    /// An entity moved.
    EntityMove {
        /// Which entity moved.
        id: EntityId,
        /// Its new position.
        pos: Vec3,
    },
    /// An entity was removed.
    EntityDestroy {
        /// Which entity was removed.
        id: EntityId,
    },
    /// A chat message broadcast to players (including the sender, which is
    /// how the response-time probe observes its own message again).
    Chat {
        /// Message text.
        message: String,
        /// The client timestamp copied from the originating serverbound chat
        /// packet, so the prober can compute the round trip.
        echo_of_ms: f64,
    },
    /// Keep-alive request.
    KeepAlive {
        /// Identifier the client must echo.
        id: u64,
    },
    /// Current game time (sent once per second in real MLGs).
    TimeUpdate {
        /// Age of the world, in ticks.
        world_age_ticks: u64,
    },
    /// The server is disconnecting the client (e.g. timeout while overloaded).
    Disconnect {
        /// Human-readable reason.
        reason: String,
    },
}

impl ServerboundPacket {
    /// A stable numeric id for the packet type.
    #[must_use]
    pub fn packet_id(&self) -> u8 {
        match self {
            ServerboundPacket::Login { .. } => 0x00,
            ServerboundPacket::PlayerMove { .. } => 0x01,
            ServerboundPacket::BlockPlace { .. } => 0x02,
            ServerboundPacket::BlockDig { .. } => 0x03,
            ServerboundPacket::Chat { .. } => 0x04,
            ServerboundPacket::KeepAlive { .. } => 0x05,
            ServerboundPacket::Disconnect => 0x06,
        }
    }

    /// Returns `true` for packets that represent terrain modification.
    #[must_use]
    pub fn is_terrain_related(&self) -> bool {
        matches!(
            self,
            ServerboundPacket::BlockPlace { .. } | ServerboundPacket::BlockDig { .. }
        )
    }
}

impl ClientboundPacket {
    /// A stable numeric id for the packet type.
    #[must_use]
    pub fn packet_id(&self) -> u8 {
        match self {
            ClientboundPacket::LoginAccepted { .. } => 0x80,
            ClientboundPacket::ChunkData { .. } => 0x81,
            ClientboundPacket::BlockChange { .. } => 0x82,
            ClientboundPacket::EntitySpawn { .. } => 0x83,
            ClientboundPacket::EntityMove { .. } => 0x84,
            ClientboundPacket::EntityDestroy { .. } => 0x85,
            ClientboundPacket::Chat { .. } => 0x86,
            ClientboundPacket::KeepAlive { .. } => 0x87,
            ClientboundPacket::TimeUpdate { .. } => 0x88,
            ClientboundPacket::Disconnect { .. } => 0x89,
        }
    }

    /// Returns `true` for packets carrying entity state updates — the
    /// classification used by Table 8 of the paper.
    #[must_use]
    pub fn is_entity_related(&self) -> bool {
        matches!(
            self,
            ClientboundPacket::EntitySpawn { .. }
                | ClientboundPacket::EntityMove { .. }
                | ClientboundPacket::EntityDestroy { .. }
        )
    }

    /// Returns `true` for packets carrying terrain state updates.
    #[must_use]
    pub fn is_terrain_related(&self) -> bool {
        matches!(
            self,
            ClientboundPacket::ChunkData { .. } | ClientboundPacket::BlockChange { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlg_world::BlockKind;

    #[test]
    fn entity_classification_matches_table8_definition() {
        assert!(ClientboundPacket::EntityMove {
            id: EntityId(1),
            pos: Vec3::ZERO
        }
        .is_entity_related());
        assert!(ClientboundPacket::EntitySpawn {
            id: EntityId(1),
            kind_id: 0,
            pos: Vec3::ZERO
        }
        .is_entity_related());
        assert!(ClientboundPacket::EntityDestroy { id: EntityId(1) }.is_entity_related());
        assert!(!ClientboundPacket::BlockChange {
            pos: BlockPos::new(0, 0, 0),
            block: Block::simple(BlockKind::Stone)
        }
        .is_entity_related());
        assert!(!ClientboundPacket::KeepAlive { id: 3 }.is_entity_related());
    }

    #[test]
    fn terrain_classification() {
        assert!(ClientboundPacket::ChunkData {
            pos: ChunkPos::new(0, 0),
            payload_bytes: 100
        }
        .is_terrain_related());
        assert!(ServerboundPacket::BlockDig {
            pos: BlockPos::new(0, 0, 0)
        }
        .is_terrain_related());
        assert!(!ServerboundPacket::Disconnect.is_terrain_related());
    }

    #[test]
    fn packet_ids_are_unique() {
        let serverbound = [
            ServerboundPacket::Login {
                username: "a".into(),
            }
            .packet_id(),
            ServerboundPacket::PlayerMove {
                pos: Vec3::ZERO,
                on_ground: true,
            }
            .packet_id(),
            ServerboundPacket::BlockPlace {
                pos: BlockPos::new(0, 0, 0),
                block: Block::AIR,
            }
            .packet_id(),
            ServerboundPacket::BlockDig {
                pos: BlockPos::new(0, 0, 0),
            }
            .packet_id(),
            ServerboundPacket::Chat {
                message: String::new(),
                sent_at_ms: 0.0,
            }
            .packet_id(),
            ServerboundPacket::KeepAlive { id: 0 }.packet_id(),
            ServerboundPacket::Disconnect.packet_id(),
        ];
        let unique: std::collections::HashSet<_> = serverbound.iter().collect();
        assert_eq!(unique.len(), serverbound.len());
    }
}
