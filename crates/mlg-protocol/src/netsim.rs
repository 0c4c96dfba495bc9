//! Simulated network links operating on virtual time.
//!
//! The Meterstick deployment places player-emulation nodes and the server
//! node in the same data centre (or deliberately apart, Section 3.4). The
//! reproduction replaces the physical network with an in-process link that
//! delays each packet by a configurable base latency plus seeded jitter. All
//! timestamps are *virtual milliseconds* supplied by the caller, so the link
//! composes with the virtual-time engine in `cloud-sim`.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Latency configuration of a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// One-way base latency in milliseconds.
    pub base_latency_ms: f64,
    /// Maximum additional random jitter in milliseconds (uniform).
    pub jitter_ms: f64,
}

impl LinkConfig {
    /// A same-datacenter link: sub-millisecond latency, small jitter.
    #[must_use]
    pub fn datacenter() -> Self {
        LinkConfig {
            base_latency_ms: 0.5,
            jitter_ms: 0.3,
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::datacenter()
    }
}

#[derive(Debug, Clone)]
struct InFlight<T> {
    deliver_at_ms: f64,
    payload: T,
}

/// A unidirectional, latency-delayed, in-order packet queue.
///
/// Packets are submitted with [`NetworkLink::send`] at a virtual timestamp
/// and become available from [`NetworkLink::poll`] once the virtual clock
/// passes their delivery time. Delivery order is FIFO even when jitter would
/// reorder individual delays (TCP-like in-order delivery, matching the MLG
/// protocol's use of a stream transport).
#[derive(Debug)]
pub struct NetworkLink<T> {
    config: LinkConfig,
    queue: VecDeque<InFlight<T>>,
    rng: StdRng,
    last_delivery_ms: f64,
    /// Total [`NetworkLink::send`] calls ever made on the link (a packet
    /// count where each payload is one packet, as on a bot's uplink).
    pub packets_sent: u64,
    /// Total payload bytes ever sent through the link.
    pub bytes_sent: u64,
}

impl<T> NetworkLink<T> {
    /// Creates a link with the given latency configuration and jitter seed.
    #[must_use]
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        NetworkLink {
            config,
            queue: VecDeque::new(),
            rng: StdRng::seed_from_u64(seed),
            last_delivery_ms: 0.0,
            packets_sent: 0,
            bytes_sent: 0,
        }
    }

    /// Enqueues a payload of `size_bytes` at virtual time `now_ms`.
    pub fn send(&mut self, now_ms: f64, payload: T, size_bytes: usize) {
        let jitter = if self.config.jitter_ms > 0.0 {
            self.rng.gen_range(0.0..self.config.jitter_ms)
        } else {
            0.0
        };
        // In-order delivery: never deliver before a previously sent packet.
        let deliver_at = (now_ms + self.config.base_latency_ms + jitter).max(self.last_delivery_ms);
        self.last_delivery_ms = deliver_at;
        self.queue.push_back(InFlight {
            deliver_at_ms: deliver_at,
            payload,
        });
        self.packets_sent += 1;
        self.bytes_sent += size_bytes as u64;
    }

    /// Returns every payload whose delivery time has passed at `now_ms`.
    pub fn poll(&mut self, now_ms: f64) -> Vec<T> {
        let due = |p: &InFlight<T>| p.deliver_at_ms <= now_ms;
        let mut delivered = Vec::new();
        while self.queue.front().is_some_and(due) {
            delivered.extend(self.queue.pop_front().map(|p| p.payload));
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_arrive_after_base_latency() {
        let mut link: NetworkLink<u32> = NetworkLink::new(
            LinkConfig {
                base_latency_ms: 10.0,
                jitter_ms: 0.0,
            },
            1,
        );
        link.send(0.0, 42, 8);
        assert!(link.poll(5.0).is_empty());
        assert_eq!(link.poll(10.0), vec![42]);
        assert!(link.poll(1_000.0).is_empty(), "each packet arrives once");
    }

    #[test]
    fn loopback_delivers_immediately() {
        let loopback = LinkConfig {
            base_latency_ms: 0.0,
            jitter_ms: 0.0,
        };
        let mut link: NetworkLink<&str> = NetworkLink::new(loopback, 1);
        link.send(100.0, "hello", 5);
        assert_eq!(link.poll(100.0), vec!["hello"]);
    }

    #[test]
    fn delivery_is_in_order_despite_jitter() {
        let mut link: NetworkLink<u32> = NetworkLink::new(
            LinkConfig {
                base_latency_ms: 1.0,
                jitter_ms: 20.0,
            },
            7,
        );
        for i in 0..50 {
            link.send(f64::from(i), i, 4);
        }
        let delivered = link.poll(10_000.0);
        assert_eq!(delivered.len(), 50);
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        assert_eq!(delivered, sorted, "stream transport must preserve order");
    }

    #[test]
    fn partial_delivery_respects_timestamps() {
        let mut link: NetworkLink<u32> = NetworkLink::new(
            LinkConfig {
                base_latency_ms: 10.0,
                jitter_ms: 0.0,
            },
            1,
        );
        link.send(0.0, 1, 4);
        link.send(50.0, 2, 4);
        assert_eq!(link.poll(20.0), vec![1]);
        assert_eq!(link.poll(60.0), vec![2]);
    }

    #[test]
    fn accounting_tracks_packets_and_bytes() {
        let mut link: NetworkLink<u8> = NetworkLink::new(LinkConfig::datacenter(), 9);
        link.send(0.0, 1, 100);
        link.send(0.0, 2, 200);
        assert_eq!(link.packets_sent, 2);
        assert_eq!(link.bytes_sent, 300);
        assert_eq!(link.poll(1_000.0), vec![1, 2]);
        // Cumulative counters survive delivery.
        assert_eq!(link.bytes_sent, 300);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let cfg = LinkConfig {
            base_latency_ms: 5.0,
            jitter_ms: 10.0,
        };
        let mut a: NetworkLink<u32> = NetworkLink::new(cfg, 1234);
        let mut b: NetworkLink<u32> = NetworkLink::new(cfg, 1234);
        for i in 0..20 {
            a.send(f64::from(i) * 3.0, i, 8);
            b.send(f64::from(i) * 3.0, i, 8);
        }
        // Poll at staggered times; deliveries must match exactly.
        for t in [10.0, 30.0, 100.0] {
            assert_eq!(a.poll(t), b.poll(t));
        }
    }
}
