//! A single emulated player.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mlg_entity::Vec3;
use mlg_protocol::ServerboundPacket;
use mlg_server::PlayerId;
use mlg_world::{Block, BlockKind, BlockPos};

use crate::behavior::Behavior;

/// Interval, in ticks, between a builder bot's block actions.
const BUILD_INTERVAL_TICKS: u64 = 4;

/// One emulated player: its behaviour, position and chat-probing schedule.
#[derive(Debug)]
pub struct Bot {
    /// Display name sent at login.
    pub name: String,
    /// The server-side player id assigned at connection time.
    pub player_id: Option<PlayerId>,
    /// Current (client-side) position.
    pub pos: Vec3,
    /// Movement behaviour.
    pub behavior: Behavior,
    /// Interval between chat probes, in ticks. 0 disables probing.
    probe_interval_ticks: u64,
    rng: StdRng,
    /// Separate stream for builder block-action offsets, so enabling
    /// building never perturbs the movement RNG: a builder bot walks
    /// exactly like the plain bot it was derived from.
    build_rng: StdRng,
    ticks_seen: u64,
}

impl Bot {
    /// Creates a bot. Probing is disabled by default; use
    /// [`Bot::with_probe_interval`] for the response-time prober.
    #[must_use]
    pub fn new(name: impl Into<String>, pos: Vec3, behavior: Behavior, seed: u64) -> Self {
        Bot {
            name: name.into(),
            player_id: None,
            pos,
            behavior,
            probe_interval_ticks: 0,
            rng: StdRng::seed_from_u64(seed),
            build_rng: StdRng::seed_from_u64(seed ^ 0xB11D),
            ticks_seen: 0,
        }
    }

    /// Enables chat probing every `interval_ticks` ticks.
    #[must_use]
    pub fn with_probe_interval(mut self, interval_ticks: u64) -> Self {
        self.probe_interval_ticks = interval_ticks;
        self
    }

    /// Returns `true` if this bot sends response-time probes.
    #[must_use]
    pub fn is_prober(&self) -> bool {
        self.probe_interval_ticks > 0
    }

    /// Produces this bot's actions for one client tick at virtual time
    /// `now_ms`.
    pub fn act(&mut self, now_ms: f64) -> Vec<ServerboundPacket> {
        self.ticks_seen += 1;
        let mut packets = Vec::new();
        if let Some(next) = self.behavior.next_position(self.pos, &mut self.rng) {
            self.pos = next;
            packets.push(ServerboundPacket::PlayerMove {
                pos: next,
                on_ground: true,
            });
        }
        if self.behavior.builds() && self.ticks_seen.is_multiple_of(BUILD_INTERVAL_TICKS) {
            use rand::Rng;
            // A block action near the bot: place a plank at chest height
            // (usually air) or dig whatever sits at ground level nearby.
            // Both go through the server's normal update path, so terrain
            // simulation and dissemination react to the crowd's edits.
            let dx = self.build_rng.gen_range(-3..=3);
            let dz = self.build_rng.gen_range(-3..=3);
            let feet = self.pos.block_pos();
            let pos = BlockPos::new(feet.x + dx, feet.y, feet.z + dz);
            if self.ticks_seen.is_multiple_of(2 * BUILD_INTERVAL_TICKS) {
                packets.push(ServerboundPacket::BlockPlace {
                    pos: pos.up(),
                    block: Block::simple(BlockKind::Planks),
                });
            } else {
                packets.push(ServerboundPacket::BlockDig { pos });
            }
        }
        if self.is_prober() && self.ticks_seen.is_multiple_of(self.probe_interval_ticks) {
            packets.push(ServerboundPacket::Chat {
                message: format!("probe-{}", self.ticks_seen),
                sent_at_ms: now_ms,
            });
        }
        packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_bot_sends_nothing_without_probing() {
        let mut bot = Bot::new("observer", Vec3::new(0.5, 61.0, 0.5), Behavior::Idle, 1);
        for tick in 0..100 {
            assert!(bot.act(tick as f64 * 50.0).is_empty());
        }
    }

    #[test]
    fn prober_sends_chat_on_schedule() {
        let mut bot =
            Bot::new("probe", Vec3::new(0.5, 61.0, 0.5), Behavior::Idle, 1).with_probe_interval(20);
        let mut chats = 0;
        for tick in 1..=100 {
            let packets = bot.act(tick as f64 * 50.0);
            chats += packets
                .iter()
                .filter(|p| matches!(p, ServerboundPacket::Chat { .. }))
                .count();
        }
        assert_eq!(chats, 5);
    }

    #[test]
    fn chat_probe_carries_the_send_timestamp() {
        let mut bot = Bot::new("probe", Vec3::ZERO, Behavior::Idle, 1).with_probe_interval(1);
        let packets = bot.act(1234.5);
        match &packets[0] {
            ServerboundPacket::Chat { sent_at_ms, .. } => assert_eq!(*sent_at_ms, 1234.5),
            other => panic!("expected chat, got {other:?}"),
        }
    }

    #[test]
    fn walking_bot_sends_moves() {
        let center = Vec3::new(0.5, 61.0, 0.5);
        let mut bot = Bot::new(
            "walker",
            center,
            Behavior::players_workload(center, 32.0),
            7,
        );
        let packets = bot.act(50.0);
        assert_eq!(packets.len(), 1);
        assert!(matches!(packets[0], ServerboundPacket::PlayerMove { .. }));
        assert_ne!(bot.pos, center);
    }

    #[test]
    fn builder_bot_walks_exactly_like_its_plain_twin() {
        use mlg_protocol::ServerboundPacket;

        let center = Vec3::new(0.5, 61.0, 0.5);
        let mut walker = Bot::new("w", center, Behavior::players_workload(center, 32.0), 9);
        let mut builder = Bot::new(
            "b",
            center,
            Behavior::players_workload(center, 32.0).into_builder(),
            9,
        );
        let mut block_actions = 0;
        for tick in 0..64 {
            let a = walker.act(tick as f64 * 50.0);
            let b = builder.act(tick as f64 * 50.0);
            // Block actions draw from a separate RNG stream, so the
            // builder's movement packets match the plain bot's exactly.
            assert_eq!(a[0], b[0], "movement diverged at tick {tick}");
            block_actions += b
                .iter()
                .filter(|p| {
                    matches!(
                        p,
                        ServerboundPacket::BlockPlace { .. } | ServerboundPacket::BlockDig { .. }
                    )
                })
                .count();
        }
        assert!(block_actions >= 8, "the builder must actually build");
    }

    #[test]
    fn bots_with_the_same_seed_behave_identically() {
        let center = Vec3::new(0.5, 61.0, 0.5);
        let mut a = Bot::new("a", center, Behavior::players_workload(center, 32.0), 9);
        let mut b = Bot::new("b", center, Behavior::players_workload(center, 32.0), 9);
        for tick in 0..50 {
            assert_eq!(a.act(tick as f64 * 50.0), b.act(tick as f64 * 50.0));
        }
    }
}
