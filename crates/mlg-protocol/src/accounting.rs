//! Traffic accounting by packet category.
//!
//! Table 8 of the Meterstick paper reports, per server and workload, the
//! percentage of server-to-client messages that are entity-related and the
//! percentage of bytes they account for. [`TrafficAccountant`] collects
//! exactly those statistics as packets are emitted by the server.

use std::collections::BTreeMap;

use mlg_world::ChunkPos;
use serde::{Deserialize, Serialize};

use crate::codec::clientbound_wire_size;
use crate::packet::ClientboundPacket;

/// Category of a clientbound packet for accounting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TrafficCategory {
    /// Entity state updates (spawn, move, destroy).
    Entity,
    /// Terrain state updates (chunk data, block changes).
    Terrain,
    /// Chat messages.
    Chat,
    /// Everything else (keep-alives, time updates, login, disconnect).
    Other,
}

impl TrafficCategory {
    /// Classifies a clientbound packet.
    #[must_use]
    pub fn of(packet: &ClientboundPacket) -> Self {
        if packet.is_entity_related() {
            TrafficCategory::Entity
        } else if packet.is_terrain_related() {
            TrafficCategory::Terrain
        } else if matches!(packet, ClientboundPacket::Chat { .. }) {
            TrafficCategory::Chat
        } else {
            TrafficCategory::Other
        }
    }

    /// All categories in display order.
    #[must_use]
    pub fn all() -> [TrafficCategory; 4] {
        [
            TrafficCategory::Entity,
            TrafficCategory::Terrain,
            TrafficCategory::Chat,
            TrafficCategory::Other,
        ]
    }
}

impl std::fmt::Display for TrafficCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            TrafficCategory::Entity => "entity",
            TrafficCategory::Terrain => "terrain",
            TrafficCategory::Chat => "chat",
            TrafficCategory::Other => "other",
        };
        f.write_str(name)
    }
}

/// Per-category message and byte counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryCounters {
    /// Number of messages in this category.
    // detlint: allow(pub-without-caller) -- mlg-server's unit tests pin per-category message counts
    pub messages: u64,
    /// Number of wire bytes in this category.
    pub bytes: u64,
}

/// Aggregated traffic summary over a whole experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficSummary {
    per_category: BTreeMap<TrafficCategory, CategoryCounters>,
}

impl TrafficSummary {
    /// Total messages across all categories.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.per_category.values().map(|c| c.messages).sum()
    }

    /// Total bytes across all categories.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.per_category.values().map(|c| c.bytes).sum()
    }

    /// Counters for one category.
    #[must_use]
    // detlint: allow(pub-without-caller) -- mlg-server's unit tests pin per-category join and entity traffic
    pub fn category(&self, category: TrafficCategory) -> CategoryCounters {
        self.per_category
            .get(&category)
            .copied()
            .unwrap_or_default()
    }

    /// Percentage of messages that belong to `category` (0–100). Returns 0
    /// when no messages were recorded.
    #[must_use]
    pub fn message_share_percent(&self, category: TrafficCategory) -> f64 {
        let total = self.total_messages();
        if total == 0 {
            return 0.0;
        }
        self.category(category).messages as f64 / total as f64 * 100.0
    }

    /// Percentage of bytes that belong to `category` (0–100). Returns 0 when
    /// no bytes were recorded.
    #[must_use]
    pub fn byte_share_percent(&self, category: TrafficCategory) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        self.category(category).bytes as f64 / total as f64 * 100.0
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &TrafficSummary) {
        for (cat, counters) in &other.per_category {
            let entry = self.per_category.entry(*cat).or_default();
            entry.messages += counters.messages;
            entry.bytes += counters.bytes;
        }
    }
}

/// Records clientbound traffic as the server emits it.
#[derive(Debug, Clone, Default)]
pub struct TrafficAccountant {
    summary: TrafficSummary,
}

impl TrafficAccountant {
    /// Creates an empty accountant.
    #[must_use]
    pub fn new() -> Self {
        TrafficAccountant::default()
    }

    /// Records one clientbound packet sent to `recipients` clients.
    ///
    /// Broadcasts count once per recipient, matching how the paper measures
    /// "messages sent to the client from the server".
    pub fn record(&mut self, packet: &ClientboundPacket, recipients: u64) {
        let category = TrafficCategory::of(packet);
        let size = clientbound_wire_size(packet) as u64;
        let entry = self.summary.per_category.entry(category).or_default();
        entry.messages += recipients;
        entry.bytes += size * recipients;
    }

    /// Records a batch of clientbound packets each sent to `recipients`
    /// clients — the accounting half of the dissemination stage's batched
    /// broadcast. Exactly equivalent to calling [`TrafficAccountant::record`]
    /// once per packet; batching only avoids the per-packet call overhead on
    /// the hot dissemination path.
    pub fn record_many(&mut self, packets: &[ClientboundPacket], recipients: u64) {
        for packet in packets {
            self.record(packet, recipients);
        }
    }

    /// Records `chunks` chunk-data packets carrying `payload_bytes` in total,
    /// each sent to one client — a join's whole view square in one call.
    /// Exactly equivalent to [`TrafficAccountant::record`] on each packet:
    /// a chunk-data header has a fixed size, so only the payloads differ.
    pub fn record_chunk_data(&mut self, chunks: u64, payload_bytes: u64) {
        if chunks == 0 {
            return;
        }
        let empty = ClientboundPacket::ChunkData {
            pos: ChunkPos::new(0, 0),
            payload_bytes: 0,
        };
        let header = clientbound_wire_size(&empty) as u64;
        let entry = self
            .summary
            .per_category
            .entry(TrafficCategory::of(&empty))
            .or_default();
        entry.messages += chunks;
        entry.bytes += header * chunks + payload_bytes;
    }

    /// Returns the accumulated summary.
    #[must_use]
    pub fn summary(&self) -> &TrafficSummary {
        &self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlg_entity::{EntityId, Vec3};
    use mlg_world::{Block, BlockKind, BlockPos, ChunkPos};

    fn entity_move() -> ClientboundPacket {
        ClientboundPacket::EntityMove {
            id: EntityId(1),
            pos: Vec3::new(1.0, 2.0, 3.0),
        }
    }

    fn block_change() -> ClientboundPacket {
        ClientboundPacket::BlockChange {
            pos: BlockPos::new(1, 2, 3),
            block: Block::simple(BlockKind::Stone),
        }
    }

    #[test]
    fn classification_covers_all_categories() {
        assert_eq!(TrafficCategory::of(&entity_move()), TrafficCategory::Entity);
        assert_eq!(
            TrafficCategory::of(&block_change()),
            TrafficCategory::Terrain
        );
        assert_eq!(
            TrafficCategory::of(&ClientboundPacket::Chat {
                message: "x".into(),
                echo_of_ms: 0.0
            }),
            TrafficCategory::Chat
        );
        assert_eq!(
            TrafficCategory::of(&ClientboundPacket::KeepAlive { id: 1 }),
            TrafficCategory::Other
        );
    }

    #[test]
    fn shares_sum_to_one_hundred() {
        let mut acc = TrafficAccountant::new();
        acc.record(&entity_move(), 1);
        acc.record(&block_change(), 1);
        acc.record(&ClientboundPacket::KeepAlive { id: 1 }, 1);
        let s = acc.summary();
        let total: f64 = TrafficCategory::all()
            .iter()
            .map(|c| s.message_share_percent(*c))
            .sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn entity_messages_dominate_but_bytes_do_not() {
        // Reproduce the Table 8 pattern: many small entity packets vs a few
        // large chunk packets.
        let mut acc = TrafficAccountant::new();
        for _ in 0..97 {
            acc.record(&entity_move(), 1);
        }
        for _ in 0..3 {
            acc.record(
                &ClientboundPacket::ChunkData {
                    pos: ChunkPos::new(0, 0),
                    payload_bytes: 40_000,
                },
                1,
            );
        }
        let s = acc.summary();
        assert!(s.message_share_percent(TrafficCategory::Entity) > 90.0);
        assert!(s.byte_share_percent(TrafficCategory::Entity) < 20.0);
    }

    #[test]
    fn broadcasts_count_per_recipient() {
        let mut acc = TrafficAccountant::new();
        acc.record(&entity_move(), 25);
        assert_eq!(acc.summary().total_messages(), 25);
        assert_eq!(acc.summary().category(TrafficCategory::Entity).messages, 25);
    }

    #[test]
    fn empty_summary_has_zero_shares() {
        let s = TrafficSummary::default();
        assert_eq!(s.message_share_percent(TrafficCategory::Entity), 0.0);
        assert_eq!(s.byte_share_percent(TrafficCategory::Entity), 0.0);
        assert_eq!(s.total_messages(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TrafficAccountant::new();
        a.record(&entity_move(), 2);
        let mut b = TrafficAccountant::new();
        b.record(&block_change(), 3);
        let mut merged = a.summary;
        merged.merge(&b.summary);
        assert_eq!(merged.total_messages(), 5);
        assert_eq!(merged.category(TrafficCategory::Terrain).messages, 3);
    }

    #[test]
    fn record_chunk_data_matches_per_packet_recording() {
        let payloads = [64u32, 40_000, 0, 19_267, u32::MAX];
        let mut one_by_one = TrafficAccountant::new();
        for (i, &payload_bytes) in payloads.iter().enumerate() {
            let pos = ChunkPos::new(i32::MIN + i as i32, 7 - 3_000_000 * i as i32);
            one_by_one.record(&ClientboundPacket::ChunkData { pos, payload_bytes }, 1);
        }
        let mut batched = TrafficAccountant::new();
        batched.record_chunk_data(0, 0);
        assert_eq!(batched.summary(), &TrafficSummary::default());
        let total = payloads.iter().map(|&p| u64::from(p)).sum();
        batched.record_chunk_data(payloads.len() as u64, total);
        assert_eq!(batched.summary(), one_by_one.summary());
    }

    #[test]
    fn record_many_matches_per_packet_recording() {
        let packets = vec![
            entity_move(),
            block_change(),
            ClientboundPacket::KeepAlive { id: 7 },
        ];
        let mut batched = TrafficAccountant::new();
        batched.record_many(&packets, 25);
        let mut one_by_one = TrafficAccountant::new();
        for packet in &packets {
            one_by_one.record(packet, 25);
        }
        assert_eq!(batched.summary(), one_by_one.summary());
    }
}
