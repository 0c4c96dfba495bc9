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
/// `shard_map` is the pipeline's current partition; on a serial flavor's
/// one shard its order is player order.
pub(crate) fn assemble(
    packets: &mut Vec<ClientboundPacket>,
    players: &[ConnectedPlayer],
    shard_map: &ShardMap,
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
    // shows entity messages dominating even the Control workload). They are
    // assembled per shard — canonical shard order, player order within a
    // shard — mirroring how the player stage batches its work.
    let mut keyed: Vec<(usize, usize)> = (players.iter().enumerate())
        .filter(|(_, pl)| !pl.disconnected)
        .map(|(index, pl)| (shard_map.shard_of_chunk(pl.chunk()), index))
        .collect();
    keyed.sort_unstable();
    packets.extend(keyed.into_iter().map(|(_, index)| {
        let pl = &players[index];
        ClientboundPacket::EntityMove {
            id: pl.entity_id,
            pos: pl.pos,
        }
    }));
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
/// players — and with packets + connections when an interest set is the
/// whole roster, which goes out as [`PacketRecipients::All`]. Returns the
/// number of packets queued.
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
    let connections = queues.connection_count();
    interest.rebuild(
        viewers.map(|pl| (pl.id, pl.pos)),
        connections,
        packets,
        radius,
    );
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
/// population never pays a full viewer scan per packet. The sort is x-major
/// and keeps a cell's viewers in slice order (ascending connection order —
/// players are appended with monotonically increasing ids), so the cells
/// `cz − 1 ..= cz + 1` of one column are one contiguous *row* of viewers,
/// found with two binary searches. Each of the three rows is scanned as one
/// slice of `(id, x, z)` records, and a recipient is appended branch-free —
/// the id is written, and the set grows by the outcome of the distance test
/// — keeping every interest set deterministic: x-major cells, slice order
/// within a cell.
///
/// **The roster answer.** When the scan would find every viewer, the set
/// is not built: the packet is answered `None`, like a global packet, and
/// goes to every connection. That is exact when three things hold, checked
/// once per packet against the viewers' XZ bounding box, which is computed
/// once per rebuild:
///
/// 1. there are as many viewers as registered connections — the caller
///    passes distinct, registered viewers, so `All` reaches exactly them;
/// 2. the cells of both bounding-box corners lie in the anchor's 3×3
///    neighborhood — cells are monotone in the coordinate, so every viewer's
///    cell does and the scan would visit every viewer;
/// 3. the farthest corner passes the scan's own test, `ddx * ddx + ddz *
///    ddz <= radius_sq`, computed with the same operations in the same
///    order.
///
/// Rounded subtraction, squaring (of a magnitude) and addition are each
/// monotone, so no viewer inside the box computes a larger left-hand side
/// than its farthest corner (positions are finite): (2) and (3) together
/// mean every viewer passes, and the set is "every viewer, once". The order
/// of recipients within one packet is not observable per connection. (3)
/// alone is not enough: a rounded distance can pass the test across two
/// cell boundaries, where the scan never looks. Any other packet is scanned.
#[derive(Debug, Default)]
pub(crate) struct InterestSets {
    /// The viewers, sorted by `(cell, index)`: a cell's viewers are one run
    /// in slice order, and a column's cells are adjacent runs.
    viewers: Vec<Viewer>,
    /// The interest sets of all anchored packets, back to back.
    recipients: Vec<PlayerId>,
    /// Per packet, its span of `recipients`; `None` for a packet that goes
    /// to every connection.
    spans: Vec<Option<Range<usize>>>,
}

/// One viewer of an [`InterestSets`] rebuild, keyed for the row scan.
#[derive(Debug, Clone, Copy)]
struct Viewer {
    cell: (i64, i64),
    /// Its place in the rebuild's viewer iterator: the tie-break that keeps
    /// a cell's viewers in slice order.
    index: u32,
    id: PlayerId,
    x: f64,
    z: f64,
}

impl InterestSets {
    /// Computes the interest sets of `packets`. `viewers` must be distinct
    /// players with a registered connection, and `connections` the number
    /// of registered connections.
    fn rebuild(
        &mut self,
        viewers: impl Iterator<Item = (PlayerId, Vec3)>,
        connections: usize,
        packets: &[ClientboundPacket],
        radius: f64,
    ) {
        let radius_sq = radius * radius;
        let cell = radius.max(1.0);
        let cell_of = |x: f64, z: f64| ((x / cell).floor() as i64, (z / cell).floor() as i64);
        self.viewers.clear();
        self.viewers
            .extend(viewers.enumerate().map(|(index, (id, pos))| Viewer {
                cell: cell_of(pos.x, pos.z),
                index: index as u32,
                id,
                x: pos.x,
                z: pos.z,
            }));
        self.viewers.sort_unstable_by_key(|v| (v.cell, v.index));
        // The viewers' XZ bounding box and its corner cells, if `All` would
        // reach exactly the viewers.
        let roster = (!self.viewers.is_empty() && self.viewers.len() == connections).then(|| {
            let (mut lo, mut hi) = (
                (f64::INFINITY, f64::INFINITY),
                (f64::NEG_INFINITY, f64::NEG_INFINITY),
            );
            for v in &self.viewers {
                lo = (lo.0.min(v.x), lo.1.min(v.z));
                hi = (hi.0.max(v.x), hi.1.max(v.z));
            }
            (lo, hi, cell_of(lo.0, lo.1), cell_of(hi.0, hi.1))
        });
        let reaches_everyone = |pos: Vec3, (cx, cz): (i64, i64)| {
            roster.is_some_and(|(lo, hi, lo_cell, hi_cell)| {
                let far = |lo: f64, hi: f64, at: f64| {
                    let (below, above) = (lo - at, hi - at);
                    (below * below).max(above * above)
                };
                cx - 1 <= lo_cell.0
                    && hi_cell.0 <= cx + 1
                    && cz - 1 <= lo_cell.1
                    && hi_cell.1 <= cz + 1
                    && far(lo.0, hi.0, pos.x) + far(lo.1, hi.1, pos.z) <= radius_sq
            })
        };
        let viewers = &self.viewers[..];
        // The viewers of cells `(x, cz - 1) ..= (x, cz + 1)`.
        let row = |x: i64, cz: i64| {
            let first = viewers.partition_point(|v| v.cell < (x, cz - 1));
            let len = viewers[first..].partition_point(|v| v.cell <= (x, cz + 1));
            &viewers[first..first + len]
        };
        self.recipients.clear();
        self.spans.clear();
        self.spans.reserve(packets.len());
        for packet in packets {
            let span = packet_position(packet).and_then(|pos| {
                let (cx, cz) = cell_of(pos.x, pos.z);
                if reaches_everyone(pos, (cx, cz)) {
                    return None;
                }
                let rows = [row(cx - 1, cz), row(cx, cz), row(cx + 1, cz)];
                let start = self.recipients.len();
                let candidates = rows.iter().map(|row| row.len()).sum::<usize>();
                self.recipients.resize(start + candidates, PlayerId(0));
                let set = &mut self.recipients[start..];
                let mut len = 0;
                for v in rows.into_iter().flatten() {
                    let ddx = v.x - pos.x;
                    let ddz = v.z - pos.z;
                    set[len] = v.id;
                    len += usize::from(ddx * ddx + ddz * ddz <= radius_sq);
                }
                self.recipients.truncate(start + len);
                Some(start..self.recipients.len())
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
        sets.rebuild(viewers.iter().copied(), viewers.len(), &packets, 32.0);
        // Cells scan x-major, so the viewer in cell (-1, 0) precedes (1, 0).
        assert_eq!(sets.of(0), Some(&[PlayerId(4), PlayerId(1)][..]));
        assert_eq!(sets.of(1), None, "no anchor: the packet stays global");
        // Anchored at the block centre (0.5, -32.5): viewer 3 is 31.5 away.
        assert_eq!(sets.of(2), Some(&[PlayerId(3)][..]));
        // The buffers are reused: nothing of the last tick's sets survives.
        sets.rebuild(std::iter::empty(), 0, &packets, 32.0);
        assert_eq!(sets.of(0), Some(&[][..]));
        assert_eq!(sets.of(2), Some(&[][..]));
    }

    fn at(x: f64, z: f64) -> Vec3 {
        Vec3::new(x, 64.0, z)
    }

    fn entity_move(pos: Vec3) -> ClientboundPacket {
        ClientboundPacket::EntityMove {
            id: EntityId(9),
            pos,
        }
    }

    /// Players `1..=n` at `positions`, all connected.
    fn roster(positions: &[Vec3]) -> Vec<ConnectedPlayer> {
        let player = |(i, pos): (usize, &Vec3)| ConnectedPlayer {
            id: PlayerId(i as u32 + 1),
            entity_id: EntityId(i as u64 + 100),
            name: format!("p{i}"),
            pos: *pos,
            connected_at_tick: 0,
            last_served_ms: 0.0,
            disconnected: false,
        };
        positions.iter().enumerate().map(player).collect()
    }

    /// Which anchored packets of the last rebuild got the roster answer.
    fn roster_answers(sets: &InterestSets, packets: &[ClientboundPacket]) -> Vec<bool> {
        let anchored = packets
            .iter()
            .enumerate()
            .filter(|(_, p)| packet_position(p).is_some());
        anchored
            .map(|(index, _)| sets.of(index).is_none())
            .collect()
    }

    #[test]
    fn the_roster_answer_is_taken_only_when_the_scan_would_find_everyone() {
        let viewers = [
            (PlayerId(1), at(0.0, 0.0)),
            (PlayerId(2), at(25.0, -5.0)),
            (PlayerId(3), at(-5.0, 25.0)),
        ];
        let packets = [
            entity_move(at(10.0, 10.0)),            // the whole box is within 32
            ClientboundPacket::KeepAlive { id: 1 }, // global anyway
            entity_move(at(0.0, 0.0)),              // every viewer is, the corner (25, 25) is not
            entity_move(at(40.0, 0.0)),             // only viewer 2 in range
        ];
        let mut sets = InterestSets::default();
        sets.rebuild(viewers.iter().copied(), 3, &packets, 32.0);
        assert_eq!(roster_answers(&sets, &packets), [true, false, false]);
        // The corner test is conservative: the scan still finds everyone.
        assert_eq!(sets.of(2).map(<[_]>::len), Some(3));
        assert_eq!(sets.of(3), Some(&[PlayerId(2)][..]));
        // One viewer more than the connections, or one connection more than
        // the viewers: `All` would not reach exactly the viewers.
        for connections in [2, 4] {
            sets.rebuild(viewers.iter().copied(), connections, &packets, 32.0);
            assert_eq!(roster_answers(&sets, &packets), [false, false, false]);
            assert_eq!(sets.of(0).map(<[_]>::len), Some(3));
        }
    }

    #[test]
    fn a_rounded_distance_is_not_enough_for_the_roster_answer() {
        // The anchor sits a hair left of x = 0, in cell -1, so the scan looks
        // at cells -2..=0. The viewer at x = 32 is in cell 1, yet 32 + 1e-15
        // rounds to 32 and passes the distance test: the bounding box fits
        // the radius but spills into a fourth cell, which the scan never
        // visits. The roster answer would hand that viewer a packet the scan
        // does not.
        let (anchor, far) = (at(-1e-15, 0.0), at(32.0, 0.0));
        let ddx = far.x - anchor.x;
        assert!(ddx * ddx <= 32.0 * 32.0, "the rounded distance passes");
        let viewers = [(PlayerId(1), at(0.0, 0.0)), (PlayerId(2), far)];
        let packets = [entity_move(anchor)];
        let mut sets = InterestSets::default();
        sets.rebuild(viewers.iter().copied(), 2, &packets, 32.0);
        assert_eq!(sets.of(0), Some(&[PlayerId(1)][..]));
    }

    /// The pre-roster interest set of `packet`: the 3×3 cell scan, every
    /// viewer distance-tested.
    fn scanned(
        viewers: &[(PlayerId, Vec3)],
        packet: &ClientboundPacket,
        radius: f64,
    ) -> Option<Vec<PlayerId>> {
        let pos = packet_position(packet)?;
        let cell = radius.max(1.0);
        let cell_of = |p: Vec3| ((p.x / cell).floor() as i64, (p.z / cell).floor() as i64);
        let (cx, cz) = cell_of(pos);
        let mut set = Vec::new();
        for dx in -1..=1 {
            for dz in -1..=1 {
                let in_cell = viewers
                    .iter()
                    .filter(|(_, v)| cell_of(*v) == (cx + dx, cz + dz));
                for &(id, viewer) in in_cell {
                    let ddx = viewer.x - pos.x;
                    let ddz = viewer.z - pos.z;
                    if ddx * ddx + ddz * ddz <= radius * radius {
                        set.push(id);
                    }
                }
            }
        }
        Some(set)
    }

    /// The three rows of every anchored packet the last rebuild scanned: how
    /// many of a row's cells hold a viewer, and where the row ends in the
    /// sorted viewers (0 for an empty row).
    fn scanned_rows(
        sets: &InterestSets,
        packets: &[ClientboundPacket],
        radius: f64,
    ) -> Vec<(usize, usize)> {
        let cell = radius.max(1.0);
        let scanned = packets
            .iter()
            .enumerate()
            .filter(|(index, _)| sets.of(*index).is_some());
        let anchors = scanned.filter_map(|(_, packet)| packet_position(packet));
        let rows = anchors.flat_map(|pos| {
            let (cx, cz) = ((pos.x / cell).floor() as i64, (pos.z / cell).floor() as i64);
            (cx - 1..=cx + 1).map(move |x| {
                let in_row = |v: &&Viewer| v.cell.0 == x && (v.cell.1 - cz).abs() <= 1;
                let mut cells: Vec<_> =
                    sets.viewers.iter().filter(in_row).map(|v| v.cell).collect();
                cells.dedup();
                let end = sets
                    .viewers
                    .iter()
                    .rposition(|v| in_row(&v))
                    .map_or(0, |last| last + 1);
                (cells.len(), end)
            })
        });
        rows.collect()
    }

    /// [`multicast_by_interest`] with every anchored packet scanned.
    fn multicast_by_scan(
        queues: &mut NetworkingQueues,
        traffic: &mut TrafficAccountant,
        packets: &[ClientboundPacket],
        players: &[ConnectedPlayer],
        radius: f64,
    ) -> u64 {
        let viewers: Vec<_> = players
            .iter()
            .filter(|pl| !pl.disconnected)
            .map(|pl| (pl.id, pl.pos))
            .collect();
        let sets: Vec<_> = packets
            .iter()
            .map(|p| scanned(&viewers, p, radius))
            .collect();
        let emitted = queues.multicast_many(packets, |index| match &sets[index] {
            None => PacketRecipients::All,
            Some(set) => PacketRecipients::Only(set),
        });
        for (packet, set) in packets.iter().zip(&sets) {
            let count = set.as_ref().map_or(viewers.len(), Vec::len);
            if count > 0 {
                traffic.record(packet, count as u64);
            }
        }
        emitted
    }

    proptest::proptest! {
        #[test]
        fn the_roster_answer_delivers_what_the_scan_does(seed in proptest::prelude::any::<u64>()) {
            // Viewers and anchors exactly at the radius, on cell boundaries and
            // a hair off them; radii below one block (cell size 1); huge
            // coordinates and radii where subtraction and division round;
            // boxes that fit the radius but spill into a fourth cell; one
            // viewer more than the connections and one connection more than
            // the viewers; a few hundred viewers scattered over ±6 cells,
            // whose rows hold three populated cells, none, or end the sorted
            // viewers. Three ticks per case on one `InterestSets`: the
            // drained streams, the copies counted and the accountant's bytes
            // equal delivery with every anchored packet scanned.
            let mut s = seed | 1;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let unit = |next: &mut dyn FnMut() -> u64| (next() >> 11) as f64 / (1u64 << 53) as f64;
            let huge = next() % 8 == 0;
            let radius: f64 = if huge {
                3.0e16
            } else {
                [32.0, 48.0, 80.0, 0.5, 0.75, 1.0, 5.3, 2.0][(next() % 8) as usize]
            };
            let cell = radius.max(1.0);
            // Clustered: everything within a quarter radius, so every anchored
            // packet reaches every viewer. Lattice: only the points where the
            // scan's two tests can disagree — x on the radius, on a cell
            // boundary or a hair off the origin, z on or a hair off the axis.
            // Scattered: 150–400 viewers over ±6.5 cells, each anchoring a
            // position packet every tick, as a Horde tick does.
            let scene = next() % 5;
            let (clustered, lattice, scattered) = (scene == 0, scene == 1 && !huge, scene == 4 && !huge);
            let center = if huge {
                [1.0e16, -1.3e16, 0.0][(next() % 3) as usize]
            } else if lattice {
                0.0
            } else {
                [0.0, cell * 3.0, -cell * 7.0, 123.456, 1.0e9 + 0.3, 4_398_046_511_104.5, -2.5e14][(next() % 7) as usize]
            };
            let offset = |next: &mut dyn FnMut() -> u64, axis: usize| {
                let sign = if next().is_multiple_of(2) { 1.0 } else { -1.0 };
                if clustered {
                    return sign * radius * 0.25 * unit(next);
                }
                if lattice {
                    return sign * [[0.0, radius, cell, 1e-15], [0.0, 1e-15, 0.0, 1e-15]][axis][(next() % 4) as usize];
                }
                if scattered {
                    return sign * cell * 6.5 * unit(next);
                }
                sign * match next() % 8 {
                    0 => 0.0,
                    1 => radius,
                    2 => cell * (next() % 3) as f64,
                    3 => [1e-15, f64::MIN_POSITIVE, 1e-9][(next() % 3) as usize],
                    4 => radius * 3.0 * unit(next),
                    5 => radius + [1e-15, 1e-9][(next() % 2) as usize],
                    _ => radius * unit(next),
                }
            };
            let spot = |next: &mut dyn FnMut() -> u64| at(center + offset(next, 0), center + offset(next, 1));
            let viewers = (if scattered { next() % 251 + 150 } else { next() % 9 + 1 }) as usize;
            let mut players = roster(&(0..viewers).map(|_| spot(&mut next)).collect::<Vec<_>>());
            // 0: every viewer registered; 1: one viewer without a connection;
            // 2: one disconnected player still registered; 3: a connection
            // nobody plays.
            let registration = (next() % 8).saturating_sub(4);
            let (mut tested, mut scanned_queues) = (NetworkingQueues::new(), NetworkingQueues::new());
            for q in [&mut tested, &mut scanned_queues] {
                for (i, player) in players.iter().enumerate() {
                    if registration != 1 || i + 1 != viewers {
                        q.add_connection(player.id);
                    }
                }
                if registration == 3 {
                    q.add_connection(PlayerId(viewers as u32 + 5));
                }
            }
            if registration == 2 {
                players[viewers - 1].disconnected = true;
            }
            let (mut traffic, mut scanned_traffic) = (TrafficAccountant::new(), TrafficAccountant::new());
            let mut sets = InterestSets::default();
            // Rows seen with three populated cells, with none, and ending
            // the sorted viewers.
            let mut rows_seen = [false; 3];
            for tick in 0..3u64 {
                let positions = players.iter().filter(|_| scattered).map(|pl| entity_move(pl.pos));
                let packets: Vec<_> = positions.chain((0..next() % 24)
                    .map(|_| match next() % 6 {
                        0 => ClientboundPacket::KeepAlive { id: tick },
                        1 => ClientboundPacket::EntityDestroy { id: EntityId(tick) },
                        2 if center.abs() < 1e9 && !huge => {
                            let pos = spot(&mut next);
                            ClientboundPacket::BlockChange {
                                pos: mlg_world::BlockPos::new(pos.x.floor() as i32, 64, pos.z.floor() as i32),
                                block: mlg_world::Block::AIR,
                            }
                        }
                        3 => ClientboundPacket::EntitySpawn { id: EntityId(tick), kind_id: 3, pos: spot(&mut next) },
                        _ => entity_move(spot(&mut next)),
                    }))
                    .collect();
                let emitted = multicast_by_interest(&mut tested, &mut traffic, &packets, &players, radius, &mut sets);
                let answers = roster_answers(&sets, &packets);
                for (cells, end) in scanned_rows(&sets, &packets, radius) {
                    rows_seen[0] |= cells == 3;
                    rows_seen[1] |= cells == 0;
                    rows_seen[2] |= cells > 0 && end == sets.viewers.len();
                }
                let expected = multicast_by_scan(&mut scanned_queues, &mut scanned_traffic, &packets, &players, radius);
                assert_eq!(emitted, expected, "copies, tick {}", tick);
                assert_eq!(traffic.summary(), scanned_traffic.summary(), "tick {}", tick);
                let block_changes = packets.iter().any(|p| matches!(p, ClientboundPacket::BlockChange { .. }));
                if clustered && registration == 0 && !huge && !block_changes {
                    assert!(answers.iter().all(|&roster| roster), "a cluster is answered by the roster");
                }
                // Drain on the last tick and on some others, so ranges of
                // several ticks queue up too.
                if tick == 2 || next() % 2 == 0 {
                    for id in (0..=viewers as u32 + 6).chain([u32::MAX]) {
                        let player = PlayerId(id);
                        assert_eq!(tested.drain_outgoing(player), scanned_queues.drain_outgoing(player), "{}", player);
                    }
                }
                for player in &mut players {
                    player.pos = spot(&mut next);
                }
            }
            if scattered {
                assert_eq!(rows_seen, [true; 3], "full, empty and final rows");
            }
        }
    }
}
