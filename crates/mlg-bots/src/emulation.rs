//! The player-emulation swarm: connecting bots, exchanging packets with the
//! server over simulated links and recording response-time samples.

use cloud_sim::engine::ComputeEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mlg_entity::Vec3;
use mlg_protocol::codec::serverbound_wire_size;
use mlg_protocol::netsim::{LinkConfig, NetworkLink};
use mlg_protocol::{ClientboundPacket, ServerboundPacket};
use mlg_server::{GameServer, PlayerId, TickSummary};

use crate::behavior::Behavior;
use crate::bot::Bot;

/// Default interval between response-time probes, in ticks (1 s at 20 Hz).
pub const DEFAULT_PROBE_INTERVAL_TICKS: u64 = 20;

/// Slack added to packet-delivery poll times so that sub-millisecond network
/// latencies do not push delivery past the discrete per-tick poll points.
pub const DELIVERY_SLACK_MS: f64 = 5.0;

struct BotConnection {
    bot: Bot,
    uplink: NetworkLink<ServerboundPacket>,
}

/// Drives a set of emulated players against one game server.
pub struct PlayerEmulation {
    connections: Vec<BotConnection>,
    link_config: LinkConfig,
    response_samples: Vec<f64>,
    bytes_sent_to_server: u64,
    bytes_received_from_server: u64,
}

impl std::fmt::Debug for PlayerEmulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlayerEmulation")
            .field("bots", &self.connections.len())
            .field("response_samples", &self.response_samples.len())
            .finish()
    }
}

impl PlayerEmulation {
    /// Creates a swarm of `bot_count` bots spawning around `spawn_point`.
    ///
    /// The first bot is always the response-time prober (idle + chat echo);
    /// when `moving` is true the remaining bots random-walk inside a
    /// `walk_area`-sized square, reproducing the Players workload.
    #[must_use]
    pub fn new(
        bot_count: u32,
        spawn_point: Vec3,
        walk_area: u32,
        moving: bool,
        link_config: LinkConfig,
        seed: u64,
    ) -> Self {
        let mut seeder = StdRng::seed_from_u64(seed);
        let mut connections = Vec::new();
        for i in 0..bot_count.max(1) {
            let behavior = if i == 0 || !moving {
                Behavior::Idle
            } else {
                Behavior::players_workload(spawn_point, f64::from(walk_area.max(2)))
            };
            let mut bot = Bot::new(
                format!("meterstick-bot-{i:02}"),
                spawn_point,
                behavior,
                seeder.gen(),
            );
            if i == 0 {
                bot = bot.with_probe_interval(DEFAULT_PROBE_INTERVAL_TICKS);
            }
            let uplink = NetworkLink::new(link_config, seeder.gen());
            // Bots keep no link back from the server, but the seed such a
            // link once took is still drawn, so every later bot keeps its
            // behaviour and uplink seed.
            let _: u64 = seeder.gen();
            connections.push(BotConnection { bot, uplink });
        }
        PlayerEmulation {
            connections,
            link_config,
            response_samples: Vec::new(),
            bytes_sent_to_server: 0,
            bytes_received_from_server: 0,
        }
    }

    /// Upgrades every walking bot to a *builder* (movement plus periodic
    /// block place/dig actions near its position) — the player-heavy Crowd
    /// workload. The prober and idle observers are unaffected, and the
    /// upgrade changes no RNG stream, so a builder swarm walks exactly like
    /// the plain swarm it was derived from.
    #[must_use]
    pub fn with_builders(mut self) -> Self {
        for conn in &mut self.connections {
            conn.bot.behavior = conn.bot.behavior.into_builder();
        }
        self
    }

    /// Re-homes every non-prober bot to a deterministic point inside a
    /// `scatter`-sized square centred on `spawn_point` — the scaled Horde
    /// workload's population spread. Each bot keeps its walk area but walks
    /// it around its new home. Scatter offsets draw from a dedicated RNG
    /// stream (`seed ^ 0x5CA7`), so a scattered swarm's bots keep the exact
    /// per-bot behaviour seeds of the clustered swarm they were derived
    /// from, and unscattered workloads are untouched. The prober (bot 0)
    /// stays at the spawn point so response probing remains comparable
    /// across workloads.
    #[must_use]
    pub fn scattered(mut self, spawn_point: Vec3, scatter: u32, seed: u64) -> Self {
        if scatter == 0 {
            return self;
        }
        let half = f64::from(scatter) / 2.0;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA7);
        for conn in self.connections.iter_mut().skip(1) {
            let dx = rng.gen_range(-half..=half);
            let dz = rng.gen_range(-half..=half);
            let home = Vec3::new(spawn_point.x + dx, spawn_point.y, spawn_point.z + dz);
            conn.bot.pos = home;
            conn.bot.behavior = conn.bot.behavior.rehomed(home);
        }
        self
    }

    /// Number of bots in the swarm.
    #[must_use]
    pub fn bot_count(&self) -> usize {
        self.connections.len()
    }

    /// The link configuration used between bots and the server.
    #[must_use]
    pub fn link_config(&self) -> LinkConfig {
        self.link_config
    }

    /// Connects every bot to the server, each at its own home position
    /// (the spawn point unless the swarm was [`PlayerEmulation::scattered`]).
    pub fn connect_all(&mut self, server: &mut GameServer) {
        for conn in &mut self.connections {
            let id = server.connect_player_at(&conn.bot.name, conn.bot.pos);
            conn.bot.player_id = Some(id);
        }
    }

    /// The server-side player ids of all connected bots.
    #[must_use]
    pub fn player_ids(&self) -> Vec<PlayerId> {
        self.connections
            .iter()
            .filter_map(|c| c.bot.player_id)
            .collect()
    }

    /// Phase 1 of a virtual-time step: every bot acts at `now_ms`, its
    /// packets enter its uplink.
    pub fn generate_actions(&mut self, now_ms: f64) {
        for conn in &mut self.connections {
            for packet in conn.bot.act(now_ms) {
                let size = serverbound_wire_size(&packet);
                self.bytes_sent_to_server += size as u64;
                conn.uplink.send(now_ms, packet, size);
            }
        }
    }

    /// Phase 2: packets whose network delay has elapsed at `now_ms` are
    /// delivered into the server's networking queues.
    pub fn deliver_to_server(&mut self, now_ms: f64, server: &mut GameServer) {
        for conn in &mut self.connections {
            let Some(id) = conn.bot.player_id else {
                continue;
            };
            for packet in conn.uplink.poll(now_ms) {
                server.enqueue_packet(id, packet);
            }
        }
    }

    /// Phase 3: after the server ran a tick, each bot's outgoing queue is
    /// drained in place and its byte total counted as received, and chat
    /// echoes to the prober are turned into response-time samples.
    ///
    /// Chat echoes from an asynchronous-chat server (PaperMC) count as
    /// available shortly after the originating message arrived, since that
    /// flavor answers chat off the main thread without waiting for the
    /// simulation to finish — which is exactly why the paper excludes PaperMC
    /// from its response-time figure.
    pub fn collect_from_server(&mut self, server: &mut GameServer, tick: &TickSummary) {
        let base_latency = self.link_config.base_latency_ms;
        let echo_available_at = if tick.async_chat {
            tick.start_ms + 1.0
        } else {
            tick.end_ms
        };
        for conn in &mut self.connections {
            let Some(id) = conn.bot.player_id else {
                continue;
            };
            // Only the prober looks at what it drains; every other bot takes
            // the queue's totals, which cost it nothing per packet.
            let is_prober = conn.bot.is_prober();
            let (_, bytes) = server.drain_outgoing_with(id, |run| {
                if !is_prober {
                    return;
                }
                for packet in run {
                    if let ClientboundPacket::Chat { echo_of_ms, .. } = *packet {
                        if echo_of_ms > 0.0 {
                            // Round trip: client send time -> availability at
                            // the client, including one more network hop.
                            let rtt = echo_available_at + base_latency - echo_of_ms;
                            if rtt >= 0.0 {
                                self.response_samples.push(rtt);
                            }
                        }
                    }
                }
            });
            self.bytes_received_from_server += bytes as u64;
        }
    }

    /// Does nothing. Bots apply no state update, so there is nothing to
    /// receive after [`PlayerEmulation::collect_from_server`] counted the
    /// bytes and took the response-time samples; kept for callers that
    /// still drive the four phases by hand.
    pub fn receive(&mut self, _now_ms: f64) {}

    /// Runs one complete virtual-time step: bots act, their packets travel to
    /// the server, the server runs one tick on `engine`, and the bots collect
    /// what it sent them. Returns the server's tick summary.
    pub fn step(&mut self, server: &mut GameServer, engine: &mut ComputeEngine) -> TickSummary {
        let now = server.clock_ms();
        self.generate_actions(now);
        self.deliver_to_server(now + DELIVERY_SLACK_MS, server);
        let summary = server.run_tick(engine);
        self.collect_from_server(server, &summary);
        summary
    }

    /// The response-time samples recorded so far (milliseconds).
    #[must_use]
    pub fn response_samples(&self) -> &[f64] {
        &self.response_samples
    }

    /// Total bytes the swarm sent towards the server.
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent_to_server
    }

    /// Total bytes the swarm received from the server.
    #[must_use]
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received_from_server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_sim::environment::Environment;
    use mlg_server::{ServerConfig, ServerFlavor};
    use mlg_world::generation::FlatGenerator;
    use mlg_world::World;

    fn server(flavor: ServerFlavor) -> GameServer {
        let world = World::new(Box::new(FlatGenerator::grassland()), 7);
        GameServer::new(
            ServerConfig::for_flavor(flavor).with_view_distance(2),
            world,
            Vec3::new(0.5, 61.0, 0.5),
        )
    }

    fn run_ticks(
        emulation: &mut PlayerEmulation,
        server: &mut GameServer,
        ticks: u32,
    ) -> Vec<TickSummary> {
        let mut engine = Environment::das5(2).instantiate(1).engine;
        (0..ticks)
            .map(|_| emulation.step(server, &mut engine))
            .collect()
    }

    #[test]
    fn swarm_connects_every_bot() {
        let mut s = server(ServerFlavor::Vanilla);
        let mut emu = PlayerEmulation::new(
            25,
            Vec3::new(0.5, 61.0, 0.5),
            32,
            true,
            LinkConfig::datacenter(),
            1,
        );
        emu.connect_all(&mut s);
        assert_eq!(emu.bot_count(), 25);
        assert_eq!(emu.player_ids().len(), 25);
        assert_eq!(s.player_count(), 25);
    }

    #[test]
    fn prober_measures_response_times() {
        let mut s = server(ServerFlavor::Vanilla);
        let mut emu = PlayerEmulation::new(
            1,
            Vec3::new(0.5, 61.0, 0.5),
            0,
            false,
            LinkConfig::datacenter(),
            1,
        );
        emu.connect_all(&mut s);
        run_ticks(&mut emu, &mut s, 200);
        let samples = emu.response_samples();
        assert!(
            samples.len() >= 8,
            "expected ~10 probes, got {}",
            samples.len()
        );
        for &rtt in samples {
            assert!(rtt > 0.0 && rtt < 1_000.0, "implausible RTT {rtt}");
        }
    }

    #[test]
    fn response_time_reflects_the_tick_cadence() {
        // On an idle server the echo arrives with the tick that processed it,
        // so RTTs sit between one and two tick periods plus network latency.
        let mut s = server(ServerFlavor::Vanilla);
        let mut emu = PlayerEmulation::new(
            1,
            Vec3::new(0.5, 61.0, 0.5),
            0,
            false,
            LinkConfig::datacenter(),
            1,
        );
        emu.connect_all(&mut s);
        run_ticks(&mut emu, &mut s, 300);
        let samples = emu.response_samples();
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            mean > 10.0 && mean < 120.0,
            "mean RTT {mean} out of expected band"
        );
    }

    #[test]
    fn async_chat_server_answers_faster_than_sync() {
        let measure = |flavor: ServerFlavor| {
            let mut s = server(flavor);
            let mut emu = PlayerEmulation::new(
                1,
                Vec3::new(0.5, 61.0, 0.5),
                0,
                false,
                LinkConfig::datacenter(),
                1,
            );
            emu.connect_all(&mut s);
            run_ticks(&mut emu, &mut s, 300);
            let samples = emu.response_samples().to_vec();
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        let vanilla = measure(ServerFlavor::Vanilla);
        let paper = measure(ServerFlavor::Paper);
        assert!(
            paper < vanilla,
            "async chat ({paper} ms) should respond faster than sync ({vanilla} ms)"
        );
    }

    #[test]
    fn moving_bots_generate_traffic_and_server_load() {
        let mut s = server(ServerFlavor::Vanilla);
        let mut emu = PlayerEmulation::new(
            25,
            Vec3::new(0.5, 61.0, 0.5),
            32,
            true,
            LinkConfig::datacenter(),
            1,
        );
        emu.connect_all(&mut s);
        run_ticks(&mut emu, &mut s, 50);
        assert!(
            emu.bytes_sent() > 10_000,
            "25 walking bots should send plenty of moves"
        );
        assert!(emu.bytes_received() > 0);
    }

    fn builder_swarm(server: &mut GameServer) -> PlayerEmulation {
        let spawn = Vec3::new(0.5, 61.0, 0.5);
        let mut emu =
            PlayerEmulation::new(25, spawn, 32, true, LinkConfig::datacenter(), 1).with_builders();
        emu.connect_all(server);
        emu
    }

    #[test]
    fn bytes_received_equal_what_the_accountant_recorded() {
        // Both sides size every delivered copy with `clientbound_wire_size`:
        // the server when it emits, the bots when they drain. Response times
        // come from the tick summary.
        for (flavor, rtt) in [
            (ServerFlavor::Vanilla, 50.5),
            (ServerFlavor::Paper, 1.5),
            (ServerFlavor::Folia, 1.5),
        ] {
            let mut s = server(flavor);
            let mut emu = builder_swarm(&mut s);
            run_ticks(&mut emu, &mut s, 120);
            assert_eq!(emu.bytes_received(), 31_624_975, "{flavor:?}");
            assert_eq!(s.traffic_summary().total_bytes(), 31_624_975, "{flavor:?}");
            assert_eq!(emu.response_samples(), [rtt; 6], "{flavor:?}");
        }
    }

    #[test]
    fn single_observer_swarm_has_exactly_one_bot() {
        let emu = PlayerEmulation::new(0, Vec3::ZERO, 0, false, LinkConfig::loopback(), 3);
        assert_eq!(emu.bot_count(), 1, "bot_count is clamped to at least one");
    }
}
