//! Networking queues: the buffers between clients and the game loop.
//!
//! Component 1 of the operational model (Figure 4): "The Networking Queues
//! buffer between the game clients and the server. When a client sends a
//! player-action to the server, it is buffered in the incoming network queue
//! until the next tick."
//!
//! A tick's broadcast is stored once. [`NetworkingQueues::broadcast_many`]
//! and [`NetworkingQueues::multicast_many`] append each packet to one shared
//! log, beside a running total of wire bytes, and a connection's outgoing
//! queue holds *log positions*: a range of them for packets everyone
//! receives, or a span of the *picks* buffer — the positions one
//! area-of-interest segment delivers to this connection, in slice order.
//! Only per-connection packets (the join stream of
//! [`NetworkingQueues::extend_outgoing`]) are owned by the queue itself, a
//! run of them as one entry.
//! Enqueueing is then one entry per connection for a full broadcast and one
//! per connection reached for a segment of area-of-interest packets, and
//! draining sums a run of adjacent positions' bytes as a difference of two
//! running totals without looking at its packets. The log and the picks are
//! cleared when the last connection that references them is drained — once
//! per tick when every client reads its queue. A connection nobody drains
//! therefore pins every packet logged since, once for all connections
//! rather than once each, and with them every connection's picks: one
//! position per area-of-interest copy, about 0.8 MB per tick of a
//! 2,000-player world (8 bytes for each of its ≈ 105k copies).
//!
//! Connections live in slots indexed by [`PlayerId`], so reaching the queue
//! of a delivered copy is an array index, not a map lookup. Ids are handed
//! out densely from 1 (`GameServer::connect_player_at`), which keeps the
//! slot vector as long as the roster.

use std::collections::VecDeque;
use std::ops::Range;

use mlg_protocol::codec::clientbound_wire_size;
use mlg_protocol::{ClientboundPacket, ServerboundPacket};

use crate::player::PlayerId;

/// One entry of a connection's outgoing queue.
#[derive(Debug)]
enum Queued {
    /// Packets for this connection only, with their summed wire size: a
    /// join's stream, sized when it is queued so that draining it is one
    /// visit and two additions.
    Owned {
        packets: Box<[ClientboundPacket]>,
        bytes: usize,
    },
    /// The packets at these positions of the shared log.
    Shared(Range<usize>),
    /// The packets at the log positions listed in this span of the picks
    /// buffer: what one [`NetworkingQueues::multicast_many`] segment delivers
    /// to this connection, in slice order.
    Picked(Range<usize>),
}

// Every queue of a Horde's 2,000 connections holds a few entries per tick,
// so an entry wider than the packet it replaced is megabytes of peak memory.
const _: () = assert!(size_of::<Queued>() <= size_of::<ClientboundPacket>());

/// The broadcast packets some queue still references, each stored once.
#[derive(Debug, Default)]
struct PacketLog {
    packets: Vec<ClientboundPacket>,
    /// `bytes_through[i]` is the summed wire size of `packets[..=i]`.
    bytes_through: Vec<usize>,
}

impl PacketLog {
    fn reserve(&mut self, additional: usize) {
        self.packets.reserve(additional);
        self.bytes_through.reserve(additional);
    }

    fn push(&mut self, packet: &ClientboundPacket) {
        let before = self.bytes_through.last().copied().unwrap_or(0);
        self.bytes_through
            .push(before + clientbound_wire_size(packet));
        self.packets.push(packet.clone());
    }

    /// Summed wire size of the packets at `range` (which must be non-empty).
    fn bytes(&self, range: &Range<usize>) -> usize {
        let before = match range.start {
            0 => 0,
            start => self.bytes_through[start - 1],
        };
        self.bytes_through[range.end - 1] - before
    }

    /// Grows the pending `run` of log positions by `next` if they are
    /// adjacent. Otherwise the run is shown to `visit`, added to the
    /// `(packets, bytes)` totals and replaced by `next`; an empty `next`
    /// flushes the run.
    fn extend_run(
        &self,
        run: &mut Range<usize>,
        next: Range<usize>,
        totals: &mut (u64, usize),
        visit: &mut impl FnMut(&[ClientboundPacket]),
    ) {
        if run.end == next.start {
            run.end = next.end;
            return;
        }
        let run = std::mem::replace(run, next);
        if !run.is_empty() {
            totals.0 += run.len() as u64;
            totals.1 += self.bytes(&run);
            visit(&self.packets[run]);
        }
    }

    fn clear(&mut self) {
        self.packets.clear();
        self.bytes_through.clear();
    }
}

/// The incoming and outgoing packet queues of one player connection.
#[derive(Debug, Default)]
struct ConnectionQueues {
    incoming: VecDeque<ServerboundPacket>,
    outgoing: VecDeque<Queued>,
    /// The newest outgoing entry while it is a shared range: it follows
    /// everything in `outgoing` and is empty when there is none. It is kept
    /// here so that growing it by an adjacent range touches only this struct,
    /// which reaching the connection just loaded — the back of a deque nobody
    /// wrote since the join is a cache miss per connection.
    open: Range<usize>,
    /// Whether anything queued references the shared log.
    holds_log: bool,
}

impl ConnectionQueues {
    /// Queues the log positions `range` behind everything queued so far.
    /// Returns 1 if the connection did not reference the log before.
    #[inline]
    fn push_shared(&mut self, range: Range<usize>) -> usize {
        if !self.open.is_empty() && self.open.end == range.start {
            self.open.end = range.end;
        } else {
            self.close_open();
            self.open = range;
        }
        self.hold_log()
    }

    /// Queues the picks at `span` behind everything queued so far. Returns 1
    /// if the connection did not reference the log before.
    #[inline]
    fn push_picked(&mut self, span: Range<usize>) -> usize {
        self.close_open();
        self.outgoing.push_back(Queued::Picked(span));
        self.hold_log()
    }

    fn hold_log(&mut self) -> usize {
        usize::from(!std::mem::replace(&mut self.holds_log, true))
    }

    /// Moves the open range into the queue proper, so that what is pushed
    /// next lands behind it.
    fn close_open(&mut self) {
        if !self.open.is_empty() {
            let open = std::mem::take(&mut self.open);
            self.outgoing.push_back(Queued::Shared(open));
        }
    }
}

/// The queues of `player` among `connections`, if it is registered.
#[inline]
fn slot(
    connections: &mut [Option<ConnectionQueues>],
    player: PlayerId,
) -> Option<&mut ConnectionQueues> {
    connections.get_mut(player.0 as usize)?.as_mut()
}

/// Recipient selection for one packet of a
/// [`NetworkingQueues::multicast_many`] batch.
#[derive(Debug, Clone, Copy)]
pub enum PacketRecipients<'a> {
    /// Deliver to every registered connection (global packets: chat, time,
    /// keep-alives).
    All,
    /// Deliver only to these players (a packet's area-of-interest set).
    Only(&'a [PlayerId]),
}

/// A [`NetworkingQueues::tally`] entry of a slot without a connection.
const UNREGISTERED: usize = usize::MAX;

/// All connection queues of the server, in slots indexed by player id.
#[derive(Debug, Default)]
pub struct NetworkingQueues {
    /// Slot `i` holds the queues of `PlayerId(i)`, `None` while no such
    /// connection is registered. Ascending slot order is ascending id order.
    connections: Vec<Option<ConnectionQueues>>,
    /// How many slots hold a connection.
    registered: usize,
    log: PacketLog,
    /// Log positions, one per copy an area-of-interest segment queued; a
    /// [`Queued::Picked`] span lists one connection's. Cleared with the log.
    picks: Vec<usize>,
    /// Connections whose queue references the log; the log and the picks
    /// are cleared when this returns to zero.
    log_holders: usize,
    /// Per slot, beside `connections`: [`UNREGISTERED`], or zero outside
    /// [`NetworkingQueues::multicast_many`], which counts a segment's copies
    /// per connection here and then turns the counts into write cursors.
    tally: Vec<usize>,
    /// The slots a segment reaches, in the order it first reaches them.
    reached: Vec<usize>,
}

impl NetworkingQueues {
    /// Creates an empty queue set.
    #[must_use]
    pub fn new() -> Self {
        NetworkingQueues::default()
    }

    /// Registers a new connection. It sees what is broadcast from now on,
    /// not what the log still holds for others. Registering a connection
    /// twice keeps what it has queued.
    ///
    /// The slot vector grows to the largest id registered, so memory follows
    /// the largest id rather than the number of connections: ids are meant
    /// to be handed out densely from 1, as `GameServer::connect_player_at`
    /// does.
    pub fn add_connection(&mut self, player: PlayerId) {
        let slot = player.0 as usize;
        if slot >= self.connections.len() {
            self.connections.resize_with(slot + 1, || None);
            self.tally.resize(slot + 1, UNREGISTERED);
        }
        if self.connections[slot].is_none() {
            self.connections[slot] = Some(ConnectionQueues::default());
            self.tally[slot] = 0;
            self.registered += 1;
        }
    }

    /// The number of registered connections — the recipients of a
    /// [`PacketRecipients::All`] packet.
    pub(crate) fn connection_count(&self) -> usize {
        self.registered
    }

    /// Queues the log positions `range` on every connection, in ascending id
    /// order, and counts the connections that now reference the log.
    fn push_to_all(&mut self, range: Range<usize>) {
        let connections = self.connections.iter_mut().flatten();
        self.log_holders += connections
            .map(|conn| conn.push_shared(range.clone()))
            .sum::<usize>();
    }

    /// Buffers a serverbound packet from `player` into the incoming queue.
    /// Packets for unknown connections are dropped.
    pub fn push_incoming(&mut self, player: PlayerId, packet: ServerboundPacket) {
        if let Some(conn) = slot(&mut self.connections, player) {
            conn.incoming.push_back(packet);
        }
    }

    /// Drains all pending serverbound packets of `player`, in arrival order.
    /// Called once per tick by the player handler ("the Game Loop retrieves
    /// [player actions] from the Networking Queues once per tick").
    pub fn drain_incoming(&mut self, player: PlayerId) -> Vec<ServerboundPacket> {
        slot(&mut self.connections, player)
            .map(|c| c.incoming.drain(..).collect())
            .unwrap_or_default()
    }

    /// Buffers a run of clientbound packets for `player` alone, in iteration
    /// order, as one queue entry: a join streams a full view square, and its
    /// wire bytes are summed here, at set-up, not when the first tick drains
    /// it. A run for an unknown connection is dropped — without being
    /// iterated — and an empty run queues nothing.
    pub fn extend_outgoing(
        &mut self,
        player: PlayerId,
        packets: impl IntoIterator<Item = ClientboundPacket>,
    ) {
        if let Some(conn) = slot(&mut self.connections, player) {
            let packets: Box<[ClientboundPacket]> = packets.into_iter().collect();
            if packets.is_empty() {
                return;
            }
            let bytes = packets.iter().map(clientbound_wire_size).sum();
            conn.close_open();
            conn.outgoing.push_back(Queued::Owned { packets, bytes });
        }
    }

    /// Buffers a batch of clientbound packets for every connected player
    /// and returns how many copies were enqueued in total.
    ///
    /// The fast path of the dissemination stage: the batch is appended to
    /// the shared log once and every connection queues its range of
    /// positions, so the cost is packets + connections, not their product.
    /// Each connection receives the packets in slice order.
    pub fn broadcast_many(&mut self, packets: &[ClientboundPacket]) -> u64 {
        if packets.is_empty() || self.registered == 0 {
            return 0;
        }
        let start = self.log.packets.len();
        self.log.reserve(packets.len());
        packets.iter().for_each(|packet| self.log.push(packet));
        let end = self.log.packets.len();
        self.push_to_all(start..end);
        (packets.len() * self.registered) as u64
    }

    /// Buffers a batch of clientbound packets, delivering packet `i` to the
    /// connections selected by `recipients(i)`. Returns how many copies
    /// were enqueued in total.
    ///
    /// The area-of-interest path of the dissemination stage: each connection
    /// receives its packets as an in-order subset of the slice, and a
    /// selector that always answers [`PacketRecipients::All`] delivers
    /// exactly what [`NetworkingQueues::broadcast_many`] does. A packet
    /// enters the log once if anyone receives it.
    ///
    /// Consecutive [`PacketRecipients::All`] packets form one run of log
    /// positions, queued on every connection once. Consecutive
    /// [`PacketRecipients::Only`] packets form a *segment*, which is
    /// transposed: its copies are counted per connection, then scattered in
    /// packet order into the picks buffer, so each connection reached gets
    /// one entry for the whole segment, listing its log positions in slice
    /// order. A copy costs one count and one scatter, and a segment one push
    /// per connection it reaches; a run of `All` packets costs one push per
    /// connection — not `packets × connections`, which is what lets a
    /// scaled-population workload disseminate through the same call. Listed
    /// players without a registered connection are skipped; a player listed
    /// twice receives two copies.
    pub fn multicast_many<'a, F>(&mut self, packets: &[ClientboundPacket], recipients: F) -> u64
    where
        F: Fn(usize) -> PacketRecipients<'a>,
    {
        let mut count = 0;
        self.log.reserve(packets.len());
        // The run of `All` packets not yet queued: log positions from here to
        // the log's end.
        let mut run_start = self.log.packets.len();
        let mut index = 0;
        while index < packets.len() {
            if let PacketRecipients::All = recipients(index) {
                if self.registered > 0 {
                    self.log.push(&packets[index]);
                    count += self.registered as u64;
                }
                index += 1;
                continue;
            }
            let at = self.log.packets.len();
            if run_start < at {
                self.push_to_all(run_start..at);
            }
            let (end, copies) = self.queue_segment(packets, index, &recipients);
            count += copies;
            run_start = self.log.packets.len();
            index = end;
        }
        let end = self.log.packets.len();
        if run_start < end {
            self.push_to_all(run_start..end);
        }
        count
    }

    /// Queues the segment of [`PacketRecipients::Only`] packets that starts
    /// at `packets[first]`: returns where it ends and how many copies it
    /// queued. A counting sort — count per slot, turn the counts into
    /// cursors, scatter in packet order — so the cost is copies plus
    /// connections reached, and every count is back at zero afterwards.
    fn queue_segment<'a>(
        &mut self,
        packets: &[ClientboundPacket],
        first: usize,
        recipients: &impl Fn(usize) -> PacketRecipients<'a>,
    ) -> (usize, u64) {
        let only = |index: usize| match recipients(index) {
            PacketRecipients::Only(players) => Some(players),
            PacketRecipients::All => None,
        };
        let log_start = self.log.packets.len();
        let (mut end, mut copies) = (first, 0usize);
        while let Some(players) = packets.get(end).and_then(|_| only(end)) {
            let before = copies;
            for player in players {
                let slot = player.0 as usize;
                let Some(count) = self.tally.get_mut(slot) else {
                    continue;
                };
                if *count == UNREGISTERED {
                    continue;
                }
                if *count == 0 {
                    self.reached.push(slot);
                }
                *count += 1;
                copies += 1;
            }
            if copies > before {
                self.log.push(&packets[end]);
            }
            end += 1;
        }
        if copies == 0 {
            return (end, 0);
        }
        let base = self.picks.len();
        let mut at = log_start;
        let mut cursor = 0;
        for &slot in &self.reached {
            let count = &mut self.tally[slot];
            (*count, cursor) = (cursor, cursor + *count);
        }
        self.picks.resize(base + copies, 0);
        let picks = &mut self.picks[base..];
        for index in first..end {
            let mut logged = false;
            for player in only(index).unwrap_or_default() {
                match self.tally.get_mut(player.0 as usize) {
                    Some(cursor) if *cursor != UNREGISTERED => {
                        picks[*cursor] = at;
                        *cursor += 1;
                        logged = true;
                    }
                    _ => {}
                }
            }
            at += usize::from(logged);
        }
        // Slots were handed their spans in `reached` order, back to back.
        let mut start = base;
        for &slot in &self.reached {
            let end = base + std::mem::take(&mut self.tally[slot]);
            if let Some(conn) = &mut self.connections[slot] {
                self.log_holders += conn.push_picked(start..end);
            }
            start = end;
        }
        self.reached.clear();
        (end, copies as u64)
    }

    /// Drains all pending clientbound packets for `player` without taking
    /// them: `visit` is shown the packets in queue order — an owned entry's
    /// run whole, a run of the shared log for each run of adjacent log
    /// positions, merged across consecutive shared and picked entries — and
    /// the `(packets, wire bytes)` drained are returned. A caller that only
    /// needs the totals passes a visitor that ignores its argument and pays
    /// per run and per pick, not per packet: a run's bytes are a difference
    /// of two running totals. An unknown connection yields `(0, 0)`.
    pub fn drain_outgoing_with(
        &mut self,
        player: PlayerId,
        mut visit: impl FnMut(&[ClientboundPacket]),
    ) -> (u64, usize) {
        let NetworkingQueues {
            connections,
            log,
            picks,
            log_holders,
            ..
        } = self;
        let Some(conn) = slot(connections, player) else {
            return (0, 0);
        };
        let (mut totals, mut run) = ((0, 0), 0..0);
        let open = std::mem::take(&mut conn.open);
        let open = (!open.is_empty()).then_some(Queued::Shared(open));
        for entry in conn.outgoing.drain(..).chain(open) {
            match entry {
                Queued::Owned { packets, bytes } => {
                    log.extend_run(&mut run, 0..0, &mut totals, &mut visit);
                    totals.0 += packets.len() as u64;
                    totals.1 += bytes;
                    visit(&packets);
                }
                Queued::Shared(range) => log.extend_run(&mut run, range, &mut totals, &mut visit),
                Queued::Picked(span) => {
                    for &at in &picks[span] {
                        log.extend_run(&mut run, at..at + 1, &mut totals, &mut visit);
                    }
                }
            }
        }
        log.extend_run(&mut run, 0..0, &mut totals, &mut visit);
        if std::mem::take(&mut conn.holds_log) {
            *log_holders -= 1;
            if *log_holders == 0 {
                log.clear();
                picks.clear();
            }
        }
        totals
    }

    /// [`NetworkingQueues::drain_outgoing_with`], cloning every packet out.
    pub fn drain_outgoing(&mut self, player: PlayerId) -> Vec<ClientboundPacket> {
        let mut drained = Vec::new();
        self.drain_outgoing_with(player, |run| drained.extend_from_slice(run));
        drained
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn chat(msg: &str) -> ServerboundPacket {
        ServerboundPacket::Chat {
            message: msg.into(),
            sent_at_ms: 0.0,
        }
    }

    fn keep_alives(ids: Range<u64>) -> Vec<ClientboundPacket> {
        ids.map(|id| ClientboundPacket::KeepAlive { id }).collect()
    }

    fn wire_bytes(packets: &[ClientboundPacket]) -> usize {
        packets.iter().map(clientbound_wire_size).sum()
    }

    #[test]
    fn incoming_packets_are_drained_in_order() {
        let mut q = NetworkingQueues::new();
        let p = PlayerId(1);
        q.add_connection(p);
        q.push_incoming(p, chat("a"));
        q.push_incoming(p, chat("b"));
        let drained = q.drain_incoming(p);
        assert_eq!(drained.len(), 2);
        assert!(matches!(&drained[0], ServerboundPacket::Chat { message, .. } if message == "a"));
        assert!(q.drain_incoming(p).is_empty());
    }

    #[test]
    fn packets_for_unknown_connections_are_dropped() {
        let mut q = NetworkingQueues::new();
        q.push_incoming(PlayerId(9), chat("lost"));
        assert!(q.drain_incoming(PlayerId(9)).is_empty());
        assert_eq!(q.broadcast_many(&keep_alives(0..3)), 0);
        q.add_connection(PlayerId(1));
        let unknown = [PlayerId(9)];
        let sent = q.multicast_many(&keep_alives(0..3), |_| PacketRecipients::Only(&unknown));
        assert_eq!(sent, 0);
        assert!(q.log.packets.is_empty(), "nobody to read it: not logged");
        assert!(q.drain_outgoing(PlayerId(9)).is_empty());
        assert_eq!(q.drain_outgoing_with(PlayerId(9), |_| ()), (0, 0));
    }

    #[test]
    fn extend_outgoing_equals_pushing_one_by_one() {
        let packets = keep_alives(0..170);
        let (mut run, mut single) = (NetworkingQueues::new(), NetworkingQueues::new());
        for q in [&mut run, &mut single] {
            q.add_connection(PlayerId(1));
            q.extend_outgoing(PlayerId(1), [ClientboundPacket::KeepAlive { id: 999 }]);
        }
        run.extend_outgoing(PlayerId(1), packets.iter().cloned());
        for packet in &packets {
            single.extend_outgoing(PlayerId(1), [packet.clone()]);
        }
        // The run is one entry, sized when it was queued.
        let entries = |q: &NetworkingQueues| q.connections[1].as_ref().map(|c| c.outgoing.len());
        assert_eq!((entries(&run), entries(&single)), (Some(2), Some(171)));
        let mut runs = Vec::new();
        let totals = run.drain_outgoing_with(PlayerId(1), |packets| runs.push(packets.len()));
        assert_eq!(runs, [1, 170]);
        let mut drained = Vec::new();
        let single_totals =
            single.drain_outgoing_with(PlayerId(1), |packets| drained.extend_from_slice(packets));
        assert_eq!(totals, single_totals);
        let mut expected = vec![ClientboundPacket::KeepAlive { id: 999 }];
        expected.extend(packets);
        assert_eq!(drained, expected);
        assert_eq!(totals, (171, wire_bytes(&expected)));
        // An unknown connection drops the run without pulling from it, and
        // an empty run queues nothing.
        run.extend_outgoing(PlayerId(2), std::iter::repeat_with(|| unreachable!()));
        assert!(run.drain_outgoing(PlayerId(2)).is_empty());
        run.extend_outgoing(PlayerId(1), []);
        assert_eq!(entries(&run), Some(0));
    }

    #[test]
    fn drain_totals_do_not_depend_on_the_visitor() {
        // Owned, shared, owned, then two broadcasts that merge into one
        // range: the prober's path (looks at every packet) and the other
        // bots' (looks at none) must report the same totals, and the packets
        // come in queue order.
        let fill = |q: &mut NetworkingQueues| {
            q.add_connection(PlayerId(1));
            q.extend_outgoing(PlayerId(1), keep_alives(0..2));
            q.broadcast_many(&[ClientboundPacket::Chat {
                message: "<a> hi".into(),
                echo_of_ms: 3.5,
            }]);
            q.extend_outgoing(PlayerId(1), keep_alives(2..3));
            q.broadcast_many(&keep_alives(3..5));
            q.multicast_many(&keep_alives(5..6), |_| PacketRecipients::All);
        };
        let (mut looked, mut blind, mut cloned) = (
            NetworkingQueues::new(),
            NetworkingQueues::new(),
            NetworkingQueues::new(),
        );
        for q in [&mut looked, &mut blind, &mut cloned] {
            fill(q);
        }

        let mut seen = Vec::new();
        let mut runs = Vec::new();
        let totals = looked.drain_outgoing_with(PlayerId(1), |run| {
            runs.push(run.len());
            seen.extend_from_slice(run);
        });
        assert_eq!(runs, [2, 1, 1, 3], "one visit per queue entry");
        let mut expected = keep_alives(0..6);
        expected.insert(
            2,
            ClientboundPacket::Chat {
                message: "<a> hi".into(),
                echo_of_ms: 3.5,
            },
        );
        assert_eq!(seen, expected, "owned and shared packets in queue order");
        assert_eq!(totals, (7, wire_bytes(&expected)));
        assert_eq!(blind.drain_outgoing_with(PlayerId(1), |_| ()), totals);
        assert_eq!(cloned.drain_outgoing(PlayerId(1)), expected);
        for q in [&mut looked, &mut blind, &mut cloned] {
            assert!(q.log.packets.is_empty() && q.log_holders == 0);
            assert_eq!(q.drain_outgoing_with(PlayerId(1), |_| ()), (0, 0));
        }
    }

    #[test]
    fn broadcast_reaches_every_connection() {
        let mut q = NetworkingQueues::new();
        for i in 0..5 {
            q.add_connection(PlayerId(i));
        }
        let sent = q.broadcast_many(&[ClientboundPacket::KeepAlive { id: 1 }]);
        assert_eq!(sent, 5);
        assert_eq!(q.log.packets.len(), 1, "stored once, not per connection");
        for i in 0..5 {
            assert_eq!(q.drain_outgoing(PlayerId(i)).len(), 1);
        }
    }

    #[test]
    fn broadcast_many_is_byte_identical_to_individual_broadcasts() {
        let packets = vec![
            ClientboundPacket::KeepAlive { id: 1 },
            ClientboundPacket::TimeUpdate {
                world_age_ticks: 40,
            },
            ClientboundPacket::Chat {
                message: "<a> hi".into(),
                echo_of_ms: 3.5,
            },
            ClientboundPacket::KeepAlive { id: 2 },
        ];

        let mut batched = NetworkingQueues::new();
        let mut individual = NetworkingQueues::new();
        for i in 0..4 {
            batched.add_connection(PlayerId(i));
            individual.add_connection(PlayerId(i));
        }

        let batched_count = batched.broadcast_many(&packets);
        let mut individual_count = 0;
        for packet in &packets {
            individual_count += individual.broadcast_many(std::slice::from_ref(packet));
        }
        assert_eq!(batched_count, individual_count);
        assert_eq!(batched_count, 16);

        for i in 0..4 {
            let a = batched.drain_outgoing(PlayerId(i));
            let b = individual.drain_outgoing(PlayerId(i));
            assert_eq!(a, b, "queue contents diverged for player {i}");
            let a_bytes: Vec<usize> = a.iter().map(clientbound_wire_size).collect();
            let b_bytes: Vec<usize> = b.iter().map(clientbound_wire_size).collect();
            assert_eq!(a_bytes, b_bytes, "wire bytes diverged for player {i}");
        }
    }

    #[test]
    fn multicast_many_with_all_interested_matches_broadcast_many() {
        let packets = vec![
            ClientboundPacket::KeepAlive { id: 7 },
            ClientboundPacket::TimeUpdate {
                world_age_ticks: 80,
            },
        ];
        let mut multicast = NetworkingQueues::new();
        let mut broadcast = NetworkingQueues::new();
        for i in 0..3 {
            multicast.add_connection(PlayerId(i));
            broadcast.add_connection(PlayerId(i));
        }
        let m = multicast.multicast_many(&packets, |_| PacketRecipients::All);
        let b = broadcast.broadcast_many(&packets);
        assert_eq!(m, b);
        for i in 0..3 {
            assert_eq!(
                multicast.drain_outgoing(PlayerId(i)),
                broadcast.drain_outgoing(PlayerId(i)),
                "queue contents diverged for player {i}"
            );
        }
    }

    #[test]
    fn multicast_many_filters_per_recipient_preserving_order() {
        let packets = vec![
            ClientboundPacket::KeepAlive { id: 1 },
            ClientboundPacket::KeepAlive { id: 2 },
            ClientboundPacket::KeepAlive { id: 3 },
        ];
        let mut q = NetworkingQueues::new();
        q.add_connection(PlayerId(0));
        q.add_connection(PlayerId(1));
        // Player 0 sees everything; player 1 only the odd-indexed packet.
        // Player 7 has no connection and is skipped.
        let both = [PlayerId(0), PlayerId(1), PlayerId(7)];
        let first_only = [PlayerId(0)];
        let sent = q.multicast_many(&packets, |index| {
            if index % 2 == 1 {
                PacketRecipients::Only(&both)
            } else {
                PacketRecipients::Only(&first_only)
            }
        });
        assert_eq!(sent, 4);
        assert_eq!(q.drain_outgoing(PlayerId(0)), packets);
        assert_eq!(
            q.drain_outgoing(PlayerId(1)),
            vec![ClientboundPacket::KeepAlive { id: 2 }],
            "subset keeps slice order"
        );
        assert_eq!(q.multicast_many(&[], |_| PacketRecipients::All), 0);
    }

    /// The per-copy formulation the log replaced: every delivered packet is
    /// cloned into its recipient's own queue.
    #[derive(Default)]
    struct PerCopyQueues(BTreeMap<PlayerId, VecDeque<ClientboundPacket>>);

    impl PerCopyQueues {
        fn deliver(&mut self, player: PlayerId, packet: &ClientboundPacket) -> u64 {
            let queue = self.0.get_mut(&player);
            queue.map_or(0, |queue| {
                queue.push_back(packet.clone());
                1
            })
        }

        fn multicast(
            &mut self,
            packets: &[ClientboundPacket],
            selections: &[Option<Vec<PlayerId>>],
        ) -> u64 {
            let everyone: Vec<PlayerId> = self.0.keys().copied().collect();
            let mut sent = 0;
            for (packet, selection) in packets.iter().zip(selections) {
                for player in selection.as_ref().unwrap_or(&everyone) {
                    sent += self.deliver(*player, packet);
                }
            }
            sent
        }

        fn drain(&mut self, player: PlayerId) -> Vec<ClientboundPacket> {
            let queue = self.0.get_mut(&player);
            queue.map(|q| q.drain(..).collect()).unwrap_or_default()
        }
    }

    proptest::proptest! {
        #[test]
        fn multicast_many_equals_filtered_per_recipient_delivery(seed in proptest::prelude::any::<u64>()) {
            // Random interleavings of join streams, broadcasts, multicasts
            // (runs of `All` broken by `Only` sets that reach nobody — empty,
            // or unregistered players only — and by sets that reach someone,
            // a player listed twice among them), the three ways to drain, late
            // joiners and connections nobody drains, against per-copy
            // delivery: the same packets in the same order per connection, the
            // same counts and the same wire bytes — "area-of-interest delivery
            // is a filtered broadcast", whatever the queues store. A third
            // queue set is fed one packet per call, which queues every `All`
            // packet on its own: run flushing must leave every queue with the
            // same entries as that.
            let mut s = seed | 1;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut log = NetworkingQueues::new();
            let mut single = NetworkingQueues::new();
            let mut reference = PerCopyQueues::default();
            let mut players = (next() % 6 + 1) as u32;
            for i in 0..players {
                log.add_connection(PlayerId(i));
                single.add_connection(PlayerId(i));
                reference.0.entry(PlayerId(i)).or_default();
            }
            // Players below this id are never drained before the end.
            let undrained = (next() % 3) as u32;
            let mut serial = 0u64;
            let mut batch = |next: &mut dyn FnMut() -> u64, up_to: u64| -> Vec<ClientboundPacket> {
                (0..next() % up_to)
                    .map(|_| {
                        serial += 1;
                        match next() % 3 {
                            0 => ClientboundPacket::KeepAlive { id: serial },
                            1 => ClientboundPacket::Chat {
                                message: "x".repeat((next() % 40) as usize),
                                echo_of_ms: serial as f64,
                            },
                            _ => ClientboundPacket::TimeUpdate { world_age_ticks: serial },
                        }
                    })
                    .collect()
            };
            for _ in 0..next() % 60 {
                // One id past the registered ones: an unknown connection.
                let player = PlayerId((next() % u64::from(players + 1)) as u32);
                match next() % 8 {
                    0 => {
                        let packets = batch(&mut next, 5);
                        packets.iter().for_each(|packet| { reference.deliver(player, packet); });
                        single.extend_outgoing(player, packets.iter().cloned());
                        log.extend_outgoing(player, packets);
                    }
                    1 => {
                        let packets = batch(&mut next, 12);
                        let everyone = vec![None; packets.len()];
                        let sent = log.broadcast_many(&packets);
                        assert_eq!(sent, reference.multicast(&packets, &everyone));
                        assert_eq!(sent, single.broadcast_many(&packets));
                    }
                    2 | 3 => {
                        let packets = batch(&mut next, 24);
                        let unregistered = [PlayerId(players), PlayerId(players + 9), PlayerId(u32::MAX)];
                        let selections: Vec<Option<Vec<PlayerId>>> = packets
                            .iter()
                            .map(|_| match next() % 8 {
                                0..=2 => None,
                                3 => Some(Vec::new()),
                                4 => Some(unregistered[..=(next() % 3) as usize].to_vec()),
                                _ => Some(
                                    (0..=players)
                                        .chain(0..=players)
                                        .filter(|_| next() % 3 == 0)
                                        .map(PlayerId)
                                        .collect(),
                                ),
                            })
                            .collect();
                        let select = |index: usize| match &selections[index] {
                            None => PacketRecipients::All,
                            Some(set) => PacketRecipients::Only(set),
                        };
                        let sent = log.multicast_many(&packets, select);
                        assert_eq!(sent, reference.multicast(&packets, &selections));
                        let one_by_one: u64 = packets
                            .iter()
                            .enumerate()
                            .map(|(index, packet)| single.multicast_many(std::slice::from_ref(packet), |_| select(index)))
                            .sum();
                        assert_eq!(sent, one_by_one);
                    }
                    4 => {
                        log.add_connection(PlayerId(players));
                        single.add_connection(PlayerId(players));
                        reference.0.entry(PlayerId(players)).or_default();
                        players += 1;
                    }
                    _ if player.0 < undrained => {}
                    5 => {
                        let expected = reference.drain(player);
                        assert_eq!(single.drain_outgoing(player), expected);
                        assert_eq!(log.drain_outgoing(player), expected);
                    }
                    6 => {
                        let (mut seen, mut runs, mut single_runs) = (Vec::new(), Vec::new(), Vec::new());
                        let totals = log.drain_outgoing_with(player, |run| {
                            runs.push(run.len());
                            seen.extend_from_slice(run);
                        });
                        single.drain_outgoing_with(player, |run| single_runs.push(run.len()));
                        assert_eq!(runs, single_runs, "the same queue entries as one push per packet");
                        assert_eq!(totals, (seen.len() as u64, wire_bytes(&seen)));
                        assert_eq!(seen, reference.drain(player));
                    }
                    _ => {
                        let expected = reference.drain(player);
                        let totals = log.drain_outgoing_with(player, |_| ());
                        assert_eq!(totals, (expected.len() as u64, wire_bytes(&expected)));
                        assert_eq!(single.drain_outgoing_with(player, |_| ()), totals);
                    }
                }
                if reference.0.values().all(VecDeque::is_empty) {
                    assert!(log.log.packets.is_empty(), "every queue is empty, the log is not");
                }
                assert_eq!(log.log.packets.is_empty(), log.log_holders == 0);
                assert_eq!(log.log_holders, single.log_holders);
                assert_eq!(log.log.packets.len(), single.log.packets.len());
                assert_eq!(log.connection_count(), reference.0.len());
            }
            for i in 0..=players {
                assert_eq!(log.drain_outgoing(PlayerId(i)), reference.drain(PlayerId(i)), "player {}", i);
            }
            assert!(log.log.packets.is_empty() && log.log.bytes_through.is_empty());
        }
    }

    #[test]
    fn a_horde_batch_is_one_queue_entry_per_connection_per_segment() {
        // 2,000 connections and ticks shaped like a Horde's: segments of
        // positioned packets, each for ~50 scattered players (unregistered
        // ids and repeats among them), broken by a global packet or two.
        // Every connection holds at most one entry per segment and one per
        // run of global packets, and drains what per-copy delivery does; a
        // connection left undrained for a tick holds both ticks' entries.
        let mut s = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let (mut q, mut reference) = (NetworkingQueues::new(), PerCopyQueues::default());
        for id in 1..=2_000 {
            q.add_connection(PlayerId(id));
            reference.0.entry(PlayerId(id)).or_default();
        }
        // Per slot, the segments and global runs queued since its last drain.
        let mut allowed = vec![(0, 0); 2_001];
        let mut serial = 0;
        for tick in 0..3 {
            let (mut packets, mut selections) = (Vec::new(), Vec::new());
            for segment in 0..4 {
                let globals = if segment == 0 { 0 } else { 1 + next() % 2 };
                for _ in 0..globals + 100 + next() % 200 {
                    serial += 1;
                    packets.push(ClientboundPacket::KeepAlive { id: serial });
                }
                selections.extend((0..globals).map(|_| None));
                let sets = packets.len() - selections.len();
                selections.extend((0..sets).map(|_| {
                    let ids = (0..40 + next() % 20).map(|_| PlayerId((next() % 2_003) as u32));
                    Some(ids.collect::<Vec<_>>())
                }));
            }
            let select = |index: usize| match &selections[index] {
                None => PacketRecipients::All,
                Some(set) => PacketRecipients::Only(set),
            };
            let sent = q.multicast_many(&packets, select);
            assert_eq!(sent, reference.multicast(&packets, &selections));
            for (id, conn) in q.connections.iter().enumerate() {
                let Some(conn) = conn else { continue };
                allowed[id] = (allowed[id].0 + 4, allowed[id].1 + 3);
                let entries = conn.outgoing.iter().map(|entry| match entry {
                    Queued::Picked(_) => (1, 0),
                    Queued::Shared(_) => (0, 1),
                    Queued::Owned { .. } => (0, 0),
                });
                let open = (0, usize::from(!conn.open.is_empty()));
                let held = entries.fold(open, |a, b| (a.0 + b.0, a.1 + b.1));
                assert!(
                    held.0 <= allowed[id].0 && held.1 <= allowed[id].1,
                    "slot {id}: {held:?}"
                );
            }
            for id in 0..=2_003 {
                if tick == 1 && id % 7 == 0 {
                    continue;
                }
                let player = PlayerId(id);
                assert_eq!(
                    q.drain_outgoing(player),
                    reference.drain(player),
                    "{player}"
                );
                if let Some(allowed) = allowed.get_mut(id as usize) {
                    *allowed = (0, 0);
                }
            }
            // Tick 1 leaves every seventh connection undrained: it pins the
            // log and the picks until tick 2 drains it.
            let released = tick != 1;
            assert_eq!(q.log_holders == 0, released, "tick {tick}");
            assert_eq!(q.log.packets.is_empty() && q.picks.is_empty(), released);
        }
    }

    #[test]
    fn an_undrained_connection_pins_each_packet_once_until_its_first_drain() {
        let mut q = NetworkingQueues::new();
        (0..5).for_each(|i| q.add_connection(PlayerId(i)));
        for tick in 0..50 {
            assert_eq!(q.broadcast_many(&keep_alives(tick * 7..tick * 7 + 7)), 35);
            for i in 1..5 {
                assert_eq!(q.drain_outgoing_with(PlayerId(i), |_| ()).0, 7);
            }
            let held = q.log.packets.len() as u64;
            assert_eq!(held, (tick + 1) * 7, "7 packets per tick, not 7 × 5");
        }
        assert_eq!(q.drain_outgoing(PlayerId(0)), keep_alives(0..350));
        assert!(q.log.packets.is_empty(), "its first drain releases the log");
        // The log restarts at position 0 for everyone.
        q.broadcast_many(&keep_alives(0..2));
        assert_eq!(q.drain_outgoing(PlayerId(3)), keep_alives(0..2));
    }

    #[test]
    fn a_connection_added_mid_run_sees_only_later_broadcasts() {
        let mut q = NetworkingQueues::new();
        q.add_connection(PlayerId(0));
        q.broadcast_many(&keep_alives(0..3));
        q.add_connection(PlayerId(1));
        q.broadcast_many(&keep_alives(3..5));
        assert_eq!(q.drain_outgoing(PlayerId(1)), keep_alives(3..5));
        assert_eq!(q.drain_outgoing(PlayerId(0)), keep_alives(0..5));
    }

    #[test]
    fn broadcast_many_of_nothing_is_a_no_op() {
        let mut q = NetworkingQueues::new();
        q.add_connection(PlayerId(1));
        assert_eq!(q.broadcast_many(&[]), 0);
        assert_eq!(q.log_holders, 0);
        assert_eq!(q.drain_outgoing_with(PlayerId(1), |_| ()), (0, 0));
    }

    #[test]
    fn unknown_and_out_of_range_ids_are_safe() {
        let mut q = NetworkingQueues::new();
        q.add_connection(PlayerId(1));
        q.add_connection(PlayerId(2));
        for id in [0, 3, 1_000, u32::MAX] {
            let player = PlayerId(id);
            q.push_incoming(player, chat("lost"));
            assert!(q.drain_incoming(player).is_empty());
            q.extend_outgoing(player, std::iter::repeat_with(|| unreachable!()));
            let only = [player];
            let sent = q.multicast_many(&keep_alives(0..2), |_| PacketRecipients::Only(&only));
            assert_eq!(sent, 0);
            assert_eq!(q.drain_outgoing_with(player, |_| unreachable!()), (0, 0));
            assert!(q.drain_outgoing(player).is_empty());
        }
        assert_eq!(
            q.connections.len(),
            3,
            "nothing but add_connection grows the slots"
        );
        assert_eq!(q.connection_count(), 2);
        assert!(q.log.packets.is_empty() && q.log_holders == 0);
        // A second registration keeps what the connection has queued.
        q.push_incoming(PlayerId(2), chat("kept"));
        q.extend_outgoing(PlayerId(2), keep_alives(0..1));
        q.broadcast_many(&keep_alives(1..3));
        q.add_connection(PlayerId(2));
        assert_eq!(q.connection_count(), 2);
        assert_eq!(q.drain_incoming(PlayerId(2)).len(), 1);
        assert_eq!(q.drain_outgoing(PlayerId(2)), keep_alives(0..3));
    }

    #[test]
    fn a_batch_of_global_packets_is_one_queue_entry_per_connection() {
        let packets = keep_alives(0..6);
        let (mut multicast, mut broadcast) = (NetworkingQueues::new(), NetworkingQueues::new());
        for q in [&mut multicast, &mut broadcast] {
            [1, 2, 5]
                .into_iter()
                .for_each(|id| q.add_connection(PlayerId(id)));
        }
        let sent = multicast.multicast_many(&packets, |_| PacketRecipients::All);
        assert_eq!(sent, broadcast.broadcast_many(&packets));
        assert_eq!(multicast.log_holders, 3, "one range per connection");
        for id in [1, 2, 5] {
            let mut visits = Vec::new();
            let totals =
                multicast.drain_outgoing_with(PlayerId(id), |run| visits.push(run.to_vec()));
            assert_eq!(
                visits,
                std::slice::from_ref(&packets),
                "the visitor is called once"
            );
            assert_eq!(totals, broadcast.drain_outgoing_with(PlayerId(id), |_| ()));
        }
    }
}
