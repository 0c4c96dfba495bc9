//! Stage 4 of the tick graph: state-update dissemination.
//!
//! Every broadcast of a tick is assembled into one reused, pre-sized buffer
//! — in canonical order ([`assemble`]) — and handed to the networking
//! queues either with a single batched `broadcast_many` + `record_many`
//! pair (classic full broadcast) or through per-packet areas of interest
//! ([`multicast_by_interest`]). Either way the queues store a packet once,
//! whatever the number of its recipients.

use std::ops::Range;

use mlg_entity::{EntityId, EntityKind, EntityTickReport, Vec3};
use mlg_protocol::{ClientboundPacket, TrafficAccountant};
use mlg_world::shard::ShardMap;
use mlg_world::world::BlockChange;

use crate::handler::PendingChat;
use crate::player::{ConnectedPlayer, PlayerId};
use crate::queues::{NetworkingQueues, PacketRecipients};

/// What the simulation stages of one tick produced that clients must hear
/// about.
pub(crate) struct TickUpdates<'a> {
    /// Block changes of the player, terrain and entity stages.
    pub(crate) changes: &'a [BlockChange],
    /// Entities spawned from terrain events (ignited TNT, harvests, …).
    pub(crate) event_spawns: &'a [(EntityId, EntityKind, Vec3)],
    /// The entity stage's spawn/move/remove lists.
    pub(crate) entities: &'a EntityTickReport,
    /// Chat accepted by the player stage.
    pub(crate) chat: &'a [PendingChat],
}

/// Appends the tick's clientbound packets to `packets` in canonical order:
/// player positions, block changes, spawns, moves, removals, chat, then the
/// periodic time and keep-alive packets.
///
/// `shard_map` is the current partition of a sharded pipeline, `None` for
/// a serial one.
pub(crate) fn assemble(
    packets: &mut Vec<ClientboundPacket>,
    players: &[ConnectedPlayer],
    shard_map: Option<&ShardMap>,
    updates: &TickUpdates<'_>,
    spawn_point: Vec3,
    tick_index: u64,
) {
    let connected = || players.iter().filter(|pl| !pl.disconnected);
    packets.reserve(
        connected().count()
            + updates.changes.len()
            + updates.event_spawns.len()
            + updates.entities.spawned.len()
            + updates.entities.moved.len()
            + updates.entities.removed.len()
            + updates.chat.len()
            + 2,
    );
    // Player position synchronisation: every connected player's position is
    // broadcast each tick (entity-related traffic, which is why Table 8
    // shows entity messages dominating even the Control workload). Sharded
    // pipelines assemble these per shard — canonical shard order, player
    // order within a shard — mirroring how the player stage batches its
    // work.
    let position = |pl: &ConnectedPlayer| ClientboundPacket::EntityMove {
        id: pl.entity_id,
        pos: pl.pos,
    };
    if let Some(map) = shard_map {
        let mut keyed: Vec<(usize, usize)> = players
            .iter()
            .enumerate()
            .filter(|(_, pl)| !pl.disconnected)
            .map(|(index, pl)| (map.shard_of_chunk(pl.chunk()), index))
            .collect();
        keyed.sort_unstable();
        packets.extend(
            keyed
                .into_iter()
                .map(|(_, index)| position(&players[index])),
        );
    } else {
        packets.extend(connected().map(position));
    }
    for change in updates.changes {
        packets.push(ClientboundPacket::BlockChange {
            pos: change.pos,
            block: change.new,
        });
    }
    for (id, kind, pos) in updates.event_spawns {
        packets.push(ClientboundPacket::EntitySpawn {
            id: *id,
            kind_id: entity_kind_id(*kind),
            pos: *pos,
        });
    }
    for (id, kind) in &updates.entities.spawned {
        packets.push(ClientboundPacket::EntitySpawn {
            id: *id,
            kind_id: entity_kind_id(*kind),
            pos: spawn_point,
        });
    }
    for (id, pos) in &updates.entities.moved {
        packets.push(ClientboundPacket::EntityMove { id: *id, pos: *pos });
    }
    for id in &updates.entities.removed {
        packets.push(ClientboundPacket::EntityDestroy { id: *id });
    }
    for chat in updates.chat {
        packets.push(ClientboundPacket::Chat {
            message: format!("<{}> {}", chat.sender, chat.message),
            echo_of_ms: chat.sent_at_ms,
        });
    }
    if tick_index.is_multiple_of(20) {
        packets.push(ClientboundPacket::TimeUpdate {
            world_age_ticks: tick_index,
        });
    }
    if tick_index.is_multiple_of(100) {
        packets.push(ClientboundPacket::KeepAlive { id: tick_index });
    }
}

/// Area-of-interest dissemination: positioned packets reach only the
/// players whose view `radius` covers the event, so the stage's cost scales
/// with the summed interest-set sizes (Σ|AoI|) instead of packets ×
/// players. Returns the number of packets queued.
///
/// Per-packet recipient counts feed the accountant so the traffic metrics
/// reflect delivered bytes, not assembled ones. When every viewer is in
/// range of everything this degenerates to exactly
/// `record_many(packets, recipients)`.
pub(crate) fn multicast_by_interest(
    queues: &mut NetworkingQueues,
    traffic: &mut TrafficAccountant,
    packets: &[ClientboundPacket],
    players: &[ConnectedPlayer],
    radius: f64,
    interest: &mut InterestSets,
) -> u64 {
    let viewers = players.iter().filter(|pl| !pl.disconnected);
    interest.rebuild(viewers.map(|pl| (pl.id, pl.pos)), packets, radius);
    let emitted = queues.multicast_many(packets, |index| match interest.of(index) {
        None => PacketRecipients::All,
        Some(set) => PacketRecipients::Only(set),
    });
    let everyone = interest.viewers.len();
    for (index, packet) in packets.iter().enumerate() {
        let count = interest.of(index).map_or(everyone, <[_]>::len);
        if count > 0 {
            traffic.record(packet, count as u64);
        }
    }
    emitted
}

/// The interest set of every packet of a tick, in buffers that are reused
/// from tick to tick: the viewers within `radius` of a packet's anchor (XZ
/// distance), or none for packets without a position anchor (chat, time,
/// keep-alives, entity removal), which stay global.
///
/// Viewers are sorted into a coarse grid of radius-sized cells and only the
/// 3×3 cell neighborhood of each anchor is distance-tested, so a scaled
/// population never pays a full viewer scan per packet. Cells are scanned
/// x-major and the viewers of a cell in slice order (ascending connection
/// order — players are appended with monotonically increasing ids), keeping
/// every interest set deterministic.
#[derive(Debug, Default)]
pub(crate) struct InterestSets {
    viewers: Vec<(PlayerId, Vec3)>,
    /// `(cell, index into viewers)`, sorted: a cell's viewers are one run.
    by_cell: Vec<((i64, i64), usize)>,
    /// The interest sets of all anchored packets, back to back.
    recipients: Vec<PlayerId>,
    /// Per packet, its span of `recipients`; `None` for a global packet.
    spans: Vec<Option<Range<usize>>>,
}

impl InterestSets {
    fn rebuild(
        &mut self,
        viewers: impl Iterator<Item = (PlayerId, Vec3)>,
        packets: &[ClientboundPacket],
        radius: f64,
    ) {
        let radius_sq = radius * radius;
        let cell = radius.max(1.0);
        let cell_of = |pos: Vec3| ((pos.x / cell).floor() as i64, (pos.z / cell).floor() as i64);
        self.viewers.clear();
        self.viewers.extend(viewers);
        self.by_cell.clear();
        let keyed = self.viewers.iter().enumerate();
        self.by_cell
            .extend(keyed.map(|(index, (_, pos))| (cell_of(*pos), index)));
        self.by_cell.sort_unstable();
        self.recipients.clear();
        self.spans.clear();
        self.spans.reserve(packets.len());
        for packet in packets {
            let span = packet_position(packet).map(|pos| {
                let start = self.recipients.len();
                let (cx, cz) = cell_of(pos);
                for dx in -1..=1 {
                    for dz in -1..=1 {
                        let key = (cx + dx, cz + dz);
                        let first = self.by_cell.partition_point(|(k, _)| *k < key);
                        let in_cell = self.by_cell[first..].iter().take_while(|(k, _)| *k == key);
                        for &(_, viewer) in in_cell {
                            let (id, viewer_pos) = self.viewers[viewer];
                            let ddx = viewer_pos.x - pos.x;
                            let ddz = viewer_pos.z - pos.z;
                            if ddx * ddx + ddz * ddz <= radius_sq {
                                self.recipients.push(id);
                            }
                        }
                    }
                }
                start..self.recipients.len()
            });
            self.spans.push(span);
        }
    }

    /// The interest set of packet `index`, `None` if it goes to everyone.
    fn of(&self, index: usize) -> Option<&[PlayerId]> {
        self.spans[index].clone().map(|span| &self.recipients[span])
    }
}

/// The world position a broadcast packet's relevance is anchored to, if
/// any. Positioned packets are subject to area-of-interest filtering;
/// packets with no anchor are global. `EntityDestroy` carries no position
/// on the wire, so removals are disseminated globally — clients must be
/// able to drop entities they stopped seeing move.
fn packet_position(packet: &ClientboundPacket) -> Option<Vec3> {
    match packet {
        ClientboundPacket::EntityMove { pos, .. } | ClientboundPacket::EntitySpawn { pos, .. } => {
            Some(*pos)
        }
        ClientboundPacket::BlockChange { pos, .. } => Some(Vec3::new(
            f64::from(pos.x) + 0.5,
            f64::from(pos.y) + 0.5,
            f64::from(pos.z) + 0.5,
        )),
        _ => None,
    }
}

fn entity_kind_id(kind: EntityKind) -> u16 {
    match kind {
        EntityKind::Item(_) => 0,
        EntityKind::PrimedTnt => 1,
        EntityKind::FallingBlock(_) => 2,
        EntityKind::Zombie => 3,
        EntityKind::Skeleton => 4,
        EntityKind::Cow => 5,
        EntityKind::Villager => 6,
        EntityKind::ExperienceOrb => 7,
        _ => u16::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interest_sets_follow_the_radius_and_skip_unanchored_packets() {
        // Radius 32: cells are 32 blocks wide, a packet at the origin scans
        // cells -1..=1 on both axes.
        let at = |x: f64, z: f64| Vec3::new(x, 64.0, z);
        let viewers = [
            (PlayerId(1), at(32.0, 0.0)),   // exactly at the radius: inside
            (PlayerId(2), at(32.0, 0.001)), // a hair past it, same cell: outside
            (PlayerId(3), at(0.0, -64.0)),  // two cells over: never scanned
            (PlayerId(4), at(-20.0, 20.0)), // well inside, another cell
        ];
        let packets = [
            ClientboundPacket::EntityMove {
                id: EntityId(9),
                pos: at(0.0, 0.0),
            },
            ClientboundPacket::EntityDestroy { id: EntityId(9) },
            ClientboundPacket::BlockChange {
                pos: mlg_world::BlockPos::new(0, 64, -33),
                block: mlg_world::Block::AIR,
            },
        ];
        let mut sets = InterestSets::default();
        sets.rebuild(viewers.iter().copied(), &packets, 32.0);
        // Cells scan x-major, so the viewer in cell (-1, 0) precedes (1, 0).
        assert_eq!(sets.of(0), Some(&[PlayerId(4), PlayerId(1)][..]));
        assert_eq!(sets.of(1), None, "no anchor: the packet stays global");
        // Anchored at the block centre (0.5, -32.5): viewer 3 is 31.5 away.
        assert_eq!(sets.of(2), Some(&[PlayerId(3)][..]));
        // The buffers are reused: nothing of the last tick's sets survives.
        sets.rebuild(std::iter::empty(), &packets, 32.0);
        assert_eq!(sets.of(0), Some(&[][..]));
        assert_eq!(sets.of(2), Some(&[][..]));
    }
}
