//! Networking queues: the buffers between clients and the game loop.
//!
//! Component 1 of the operational model (Figure 4): "The Networking Queues
//! buffer between the game clients and the server. When a client sends a
//! player-action to the server, it is buffered in the incoming network queue
//! until the next tick."

use std::collections::{BTreeMap, VecDeque};

use mlg_protocol::{ClientboundPacket, ServerboundPacket};

use crate::player::PlayerId;

/// The incoming and outgoing packet queues of one player connection.
#[derive(Debug, Default)]
pub struct ConnectionQueues {
    incoming: VecDeque<ServerboundPacket>,
    outgoing: VecDeque<ClientboundPacket>,
}

impl ConnectionQueues {
    /// Number of buffered serverbound packets.
    #[must_use]
    pub fn incoming_len(&self) -> usize {
        self.incoming.len()
    }

    /// Number of buffered clientbound packets.
    #[must_use]
    pub fn outgoing_len(&self) -> usize {
        self.outgoing.len()
    }
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

/// All connection queues of the server, keyed by player.
#[derive(Debug, Default)]
pub struct NetworkingQueues {
    connections: BTreeMap<PlayerId, ConnectionQueues>,
}

impl NetworkingQueues {
    /// Creates an empty queue set.
    #[must_use]
    pub fn new() -> Self {
        NetworkingQueues::default()
    }

    /// Registers a new connection.
    pub fn add_connection(&mut self, player: PlayerId) {
        self.connections.entry(player).or_default();
    }

    /// Removes a connection, dropping any buffered packets.
    pub fn remove_connection(&mut self, player: PlayerId) {
        self.connections.remove(&player);
    }

    /// Returns `true` if the player has a registered connection.
    #[must_use]
    pub fn has_connection(&self, player: PlayerId) -> bool {
        self.connections.contains_key(&player)
    }

    /// Number of registered connections.
    #[must_use]
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Buffers a serverbound packet from `player` into the incoming queue.
    /// Packets for unknown connections are dropped.
    pub fn push_incoming(&mut self, player: PlayerId, packet: ServerboundPacket) {
        if let Some(conn) = self.connections.get_mut(&player) {
            conn.incoming.push_back(packet);
        }
    }

    /// Drains all pending serverbound packets of `player`, in arrival order.
    /// Called once per tick by the player handler ("the Game Loop retrieves
    /// [player actions] from the Networking Queues once per tick").
    pub fn drain_incoming(&mut self, player: PlayerId) -> Vec<ServerboundPacket> {
        self.connections
            .get_mut(&player)
            .map(|c| c.incoming.drain(..).collect())
            .unwrap_or_default()
    }

    /// Buffers a clientbound packet for `player`.
    pub fn push_outgoing(&mut self, player: PlayerId, packet: ClientboundPacket) {
        if let Some(conn) = self.connections.get_mut(&player) {
            conn.outgoing.push_back(packet);
        }
    }

    /// Buffers a run of clientbound packets for `player`, in iteration
    /// order: one connection lookup and one capacity reservation for the
    /// whole run (a join streams a full view square). Like
    /// [`NetworkingQueues::push_outgoing`], a run for an unknown connection
    /// is dropped — without being iterated.
    ///
    /// The reservation is rounded up to a power of two, the capacity
    /// one-by-one pushes would have doubled their way to. The queue outlives
    /// the run and keeps doubling under per-tick bursts; an exact reservation
    /// (170 packets for a 13×13 view) moves every later step to 340, 680, …
    /// instead of 256, 512, …, which on a 2,000-bot world is +17 MiB of
    /// peak memory for the same traffic.
    pub fn extend_outgoing(
        &mut self,
        player: PlayerId,
        packets: impl IntoIterator<Item = ClientboundPacket>,
    ) {
        if let Some(conn) = self.connections.get_mut(&player) {
            let packets = packets.into_iter();
            let queued = conn.outgoing.len();
            let capacity = (queued + packets.size_hint().0).next_power_of_two();
            conn.outgoing.reserve(capacity - queued);
            conn.outgoing.extend(packets);
        }
    }

    /// Buffers a clientbound packet for every connected player and returns
    /// how many copies were enqueued.
    pub fn broadcast(&mut self, packet: &ClientboundPacket) -> u64 {
        let mut count = 0;
        for conn in self.connections.values_mut() {
            conn.outgoing.push_back(packet.clone());
            count += 1;
        }
        count
    }

    /// Buffers a batch of clientbound packets for every connected player
    /// and returns how many copies were enqueued in total.
    ///
    /// The fast path of the dissemination stage: one pass per connection
    /// (reserving queue capacity up front) instead of one map traversal per
    /// packet. Each connection receives the packets in slice order, so the
    /// result is byte-for-byte identical to calling
    /// [`NetworkingQueues::broadcast`] once per packet — a unit test pins
    /// the parity.
    pub fn broadcast_many(&mut self, packets: &[ClientboundPacket]) -> u64 {
        if packets.is_empty() {
            return 0;
        }
        let mut count = 0;
        for conn in self.connections.values_mut() {
            conn.outgoing.reserve(packets.len());
            conn.outgoing.extend(packets.iter().cloned());
            count += packets.len() as u64;
        }
        count
    }

    /// Buffers a batch of clientbound packets, delivering packet `i` to the
    /// connections selected by `recipients(i)`. Returns how many copies
    /// were enqueued in total.
    ///
    /// The area-of-interest path of the dissemination stage: packets are
    /// processed in slice order, so each connection still receives its
    /// packets as an in-order subset of the slice and a selector that
    /// always answers [`PacketRecipients::All`] is byte-for-byte identical
    /// to [`NetworkingQueues::broadcast_many`] — a unit test pins the
    /// parity. Cost is Σ|recipient set| (plus one map lookup per listed
    /// recipient), not `packets × connections`, which is what lets a
    /// scaled-population workload disseminate through the same call.
    /// Listed players without a registered connection are skipped.
    pub fn multicast_many<'a, F>(&mut self, packets: &[ClientboundPacket], recipients: F) -> u64
    where
        F: Fn(usize) -> PacketRecipients<'a>,
    {
        let mut count = 0;
        for (index, packet) in packets.iter().enumerate() {
            match recipients(index) {
                PacketRecipients::All => {
                    for conn in self.connections.values_mut() {
                        conn.outgoing.push_back(packet.clone());
                        count += 1;
                    }
                }
                PacketRecipients::Only(players) => {
                    for player in players {
                        if let Some(conn) = self.connections.get_mut(player) {
                            conn.outgoing.push_back(packet.clone());
                            count += 1;
                        }
                    }
                }
            }
        }
        count
    }

    /// Drains all pending clientbound packets for `player`, in queue order,
    /// handing each to the caller without collecting them first. The queue
    /// is empty once the iterator is dropped, consumed or not; an unknown
    /// connection yields nothing.
    pub fn stream_outgoing(
        &mut self,
        player: PlayerId,
    ) -> impl Iterator<Item = ClientboundPacket> + '_ {
        let queue = self.connections.get_mut(&player);
        queue.map(|c| c.outgoing.drain(..)).into_iter().flatten()
    }

    /// [`NetworkingQueues::stream_outgoing`], collected.
    pub fn drain_outgoing(&mut self, player: PlayerId) -> Vec<ClientboundPacket> {
        self.stream_outgoing(player).collect()
    }

    /// Iterates over connected player ids.
    pub fn players(&self) -> impl Iterator<Item = PlayerId> + '_ {
        self.connections.keys().copied()
    }

    /// Total number of buffered packets in both directions (for diagnostics).
    #[must_use]
    pub fn total_buffered(&self) -> usize {
        self.connections
            .values()
            .map(|c| c.incoming_len() + c.outgoing_len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chat(msg: &str) -> ServerboundPacket {
        ServerboundPacket::Chat {
            message: msg.into(),
            sent_at_ms: 0.0,
        }
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
        assert_eq!(q.total_buffered(), 0);
        assert!(q.drain_incoming(PlayerId(9)).is_empty());
    }

    #[test]
    fn extend_outgoing_equals_pushing_one_by_one() {
        let packets: Vec<_> = (0..170)
            .map(|id| ClientboundPacket::KeepAlive { id })
            .collect();
        let (mut run, mut single) = (NetworkingQueues::new(), NetworkingQueues::new());
        for q in [&mut run, &mut single] {
            q.add_connection(PlayerId(1));
            q.push_outgoing(PlayerId(1), ClientboundPacket::KeepAlive { id: 999 });
        }
        run.extend_outgoing(PlayerId(1), packets.iter().cloned());
        for packet in &packets {
            single.push_outgoing(PlayerId(1), packet.clone());
        }
        let capacity = |q: &NetworkingQueues| q.connections[&PlayerId(1)].outgoing.capacity();
        assert_eq!(capacity(&run), capacity(&single));
        assert_eq!(
            run.drain_outgoing(PlayerId(1)),
            single.drain_outgoing(PlayerId(1))
        );
        // An unknown connection drops the run without pulling from it.
        run.extend_outgoing(PlayerId(2), std::iter::repeat_with(|| unreachable!()));
        assert_eq!(run.total_buffered(), 0);
    }

    #[test]
    fn streaming_drain_equals_drain_outgoing() {
        let packets: Vec<_> = (0..40)
            .map(|id| ClientboundPacket::KeepAlive { id })
            .collect();
        let (mut streamed, mut collected) = (NetworkingQueues::new(), NetworkingQueues::new());
        for q in [&mut streamed, &mut collected] {
            q.add_connection(PlayerId(1));
            q.extend_outgoing(PlayerId(1), packets.iter().cloned());
        }
        let stream: Vec<_> = streamed.stream_outgoing(PlayerId(1)).collect();
        assert_eq!(stream, packets, "same packets, in queue order");
        assert_eq!(collected.drain_outgoing(PlayerId(1)), packets);
        assert_eq!(streamed.total_buffered(), 0);
        assert_eq!(collected.total_buffered(), 0);
        // A stream dropped part-way (or untouched) still empties the queue.
        streamed.extend_outgoing(PlayerId(1), packets.iter().cloned());
        assert_eq!(
            streamed.stream_outgoing(PlayerId(1)).next(),
            Some(packets[0].clone())
        );
        assert_eq!(streamed.total_buffered(), 0);
        assert_eq!(streamed.stream_outgoing(PlayerId(9)).count(), 0);
        assert!(collected.drain_outgoing(PlayerId(9)).is_empty());
    }

    #[test]
    fn broadcast_reaches_every_connection() {
        let mut q = NetworkingQueues::new();
        for i in 0..5 {
            q.add_connection(PlayerId(i));
        }
        let sent = q.broadcast(&ClientboundPacket::KeepAlive { id: 1 });
        assert_eq!(sent, 5);
        for i in 0..5 {
            assert_eq!(q.drain_outgoing(PlayerId(i)).len(), 1);
        }
    }

    #[test]
    fn broadcast_many_is_byte_identical_to_individual_broadcasts() {
        use mlg_protocol::codec::clientbound_wire_size;

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
            individual_count += individual.broadcast(packet);
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

    proptest::proptest! {
        #[test]
        fn multicast_many_equals_filtered_per_recipient_delivery(seed in proptest::prelude::any::<u64>()) {
            use mlg_protocol::codec::clientbound_wire_size;

            // Random packet batches against random per-packet recipient
            // sets: the batched multicast must be byte-exactly the same as
            // delivering each packet to each selected connection one
            // `push_outgoing` at a time — the reference formulation of
            // "area-of-interest delivery is a filtered broadcast".
            let mut s = seed | 1;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let player_count = (next() % 7 + 1) as u32;
            let mut multicast = NetworkingQueues::new();
            let mut reference = NetworkingQueues::new();
            for i in 0..player_count {
                multicast.add_connection(PlayerId(i));
                reference.add_connection(PlayerId(i));
            }
            let packet_count = next() % 24;
            let packets: Vec<ClientboundPacket> = (0..packet_count)
                .map(|i| ClientboundPacket::KeepAlive { id: i })
                .collect();
            // Per packet: either a global broadcast or a random subset
            // (possibly empty, possibly listing an unregistered player,
            // which must be skipped).
            let selections: Vec<Option<Vec<PlayerId>>> = packets
                .iter()
                .map(|_| {
                    (next() % 4 != 0).then(|| {
                        (0..=player_count)
                            .filter(|_| next() % 2 == 0)
                            .map(PlayerId)
                            .collect()
                    })
                })
                .collect();

            let sent = multicast.multicast_many(&packets, |index| match &selections[index] {
                None => PacketRecipients::All,
                Some(set) => PacketRecipients::Only(set),
            });
            let mut expected_sent = 0u64;
            for (packet, selection) in packets.iter().zip(&selections) {
                let all: Vec<PlayerId> = reference.players().collect();
                for player in selection.as_ref().unwrap_or(&all) {
                    if reference.has_connection(*player) {
                        reference.push_outgoing(*player, packet.clone());
                        expected_sent += 1;
                    }
                }
            }
            assert_eq!(sent, expected_sent);
            for i in 0..player_count {
                let a = multicast.drain_outgoing(PlayerId(i));
                let b = reference.drain_outgoing(PlayerId(i));
                let a_bytes: usize = a.iter().map(clientbound_wire_size).sum();
                let b_bytes: usize = b.iter().map(clientbound_wire_size).sum();
                assert_eq!(a, b, "player {i}: delivery diverged");
                assert_eq!(a_bytes, b_bytes, "player {i}: wire bytes diverged");
            }
        }
    }

    #[test]
    fn broadcast_many_of_nothing_is_a_no_op() {
        let mut q = NetworkingQueues::new();
        q.add_connection(PlayerId(1));
        assert_eq!(q.broadcast_many(&[]), 0);
        assert_eq!(q.total_buffered(), 0);
    }

    #[test]
    fn removing_a_connection_drops_its_packets() {
        let mut q = NetworkingQueues::new();
        let p = PlayerId(1);
        q.add_connection(p);
        q.push_outgoing(p, ClientboundPacket::KeepAlive { id: 1 });
        q.remove_connection(p);
        assert!(!q.has_connection(p));
        assert_eq!(q.connection_count(), 0);
        assert_eq!(q.total_buffered(), 0);
    }
}
