//! System-level metrics collection.
//!
//! Meterstick's System Metrics Collector "queries the operating system twice
//! per second" for CPU utilization, memory usage, thread count, disk I/O and
//! network I/O (Table 5). In the reproduction there is no operating system to
//! query, so the collector derives all but disk I/O from the simulation state
//! it is fed every tick and emits samples on the same 500 ms (virtual)
//! cadence.

use serde::{Deserialize, Serialize};

/// One system-metrics sample (one row of the system-level part of Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemSample {
    /// CPU utilization across all vCPUs, 0.0–1.0.
    pub cpu_utilization: f64,
    /// Resident memory in MiB.
    // detlint: allow(pub-without-caller) -- tests/end_to_end.rs asserts every sample's memory
    pub memory_mib: f64,
    /// Number of operating-system threads associated with the server.
    pub threads: u32,
    /// Network bytes sent since the previous sample.
    pub network_sent_bytes: u64,
    /// Network bytes received since the previous sample.
    pub network_received_bytes: u64,
}

/// Rolling state the collector needs from the simulation each tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickObservation {
    /// CPU utilization during this tick (0.0–1.0).
    pub cpu_utilization: f64,
    /// Live entity count.
    pub entities: u64,
    /// Loaded chunk count.
    pub loaded_chunks: u64,
    /// Connected player count.
    pub players: u32,
    /// Network bytes sent during this tick.
    pub network_sent_bytes: u64,
    /// Network bytes received during this tick.
    pub network_received_bytes: u64,
    /// Terrain blocks written this tick. Disk I/O is not modelled, so the
    /// collector ignores it.
    pub blocks_written: u64,
}

/// Collects system-level samples every `sample_interval_ms` of virtual time.
#[derive(Debug)]
pub struct SystemMetricsCollector {
    sample_interval_ms: f64,
    base_threads: u32,
    samples: Vec<SystemSample>,
    window_start_ms: f64,
    acc_cpu: f64,
    acc_ticks: u32,
    acc_net_sent: u64,
    acc_net_recv: u64,
    last_entities: u64,
    last_chunks: u64,
    last_players: u32,
}

impl SystemMetricsCollector {
    /// Default sampling interval: twice per second, matching the paper.
    const DEFAULT_INTERVAL_MS: f64 = 500.0;

    /// Creates a collector. `base_threads` models the server's fixed thread
    /// pool (main loop, networking, GC, …); extra worker threads are added as
    /// the player count grows.
    #[must_use]
    pub fn new(base_threads: u32) -> Self {
        SystemMetricsCollector {
            sample_interval_ms: Self::DEFAULT_INTERVAL_MS,
            base_threads,
            samples: Vec::new(),
            window_start_ms: 0.0,
            acc_cpu: 0.0,
            acc_ticks: 0,
            acc_net_sent: 0,
            acc_net_recv: 0,
            last_entities: 0,
            last_chunks: 0,
            last_players: 0,
        }
    }

    /// Records one tick's observation at virtual time `now_ms`.
    pub fn observe_tick(&mut self, now_ms: f64, obs: TickObservation) {
        self.acc_cpu += obs.cpu_utilization;
        self.acc_ticks += 1;
        self.acc_net_sent += obs.network_sent_bytes;
        self.acc_net_recv += obs.network_received_bytes;
        self.last_entities = obs.entities;
        self.last_chunks = obs.loaded_chunks;
        self.last_players = obs.players;
        while now_ms - self.window_start_ms >= self.sample_interval_ms {
            self.flush_window();
        }
    }

    fn flush_window(&mut self) {
        let cpu = if self.acc_ticks == 0 {
            0.0
        } else {
            self.acc_cpu / f64::from(self.acc_ticks)
        };
        // Memory model: JVM baseline + per-chunk and per-entity footprint.
        let memory_mib = 900.0 + self.last_chunks as f64 * 0.35 + self.last_entities as f64 * 0.004;
        let threads = self.base_threads + self.last_players.div_euclid(4) + 2;
        let ts = self.window_start_ms + self.sample_interval_ms;
        self.samples.push(SystemSample {
            cpu_utilization: cpu.clamp(0.0, 1.0),
            memory_mib,
            threads,
            network_sent_bytes: self.acc_net_sent,
            network_received_bytes: self.acc_net_recv,
        });
        self.window_start_ms = ts;
        self.acc_cpu = 0.0;
        self.acc_ticks = 0;
        self.acc_net_sent = 0;
        self.acc_net_recv = 0;
    }

    /// Finishes collection and returns all samples.
    #[must_use]
    pub fn finish(mut self) -> Vec<SystemSample> {
        if self.acc_ticks > 0 {
            self.flush_window();
        }
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(cpu: f64) -> TickObservation {
        TickObservation {
            cpu_utilization: cpu,
            entities: 100,
            loaded_chunks: 200,
            players: 25,
            network_sent_bytes: 1_000,
            network_received_bytes: 300,
            blocks_written: 5,
        }
    }

    #[test]
    fn samples_are_emitted_every_half_second() {
        let mut c = SystemMetricsCollector::new(30);
        // 60 seconds of 50 ms ticks = 1200 ticks = 120 sample windows.
        for i in 0..1_200u32 {
            c.observe_tick(f64::from(i + 1) * 50.0, obs(0.5));
        }
        let samples = c.finish();
        assert!(
            (samples.len() as i64 - 120).abs() <= 1,
            "got {} samples",
            samples.len()
        );
    }

    #[test]
    fn cpu_is_averaged_over_the_window() {
        let mut c = SystemMetricsCollector::new(30);
        for i in 0..10u32 {
            let cpu = if i % 2 == 0 { 0.2 } else { 0.8 };
            c.observe_tick(f64::from(i + 1) * 50.0, obs(cpu));
        }
        let samples = c.finish();
        assert_eq!(samples.len(), 1);
        assert!((samples[0].cpu_utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn network_bytes_accumulate_per_window() {
        let mut c = SystemMetricsCollector::new(30);
        for i in 0..10u32 {
            c.observe_tick(f64::from(i + 1) * 50.0, obs(0.1));
        }
        let samples = c.finish();
        assert_eq!(samples[0].network_sent_bytes, 10_000);
        assert_eq!(samples[0].network_received_bytes, 3_000);
    }

    #[test]
    fn memory_grows_with_entities_and_chunks() {
        let mut light = SystemMetricsCollector::new(30);
        light.observe_tick(500.0, TickObservation::default());
        let small = light.finish()[0].memory_mib;

        let mut heavy = SystemMetricsCollector::new(30);
        heavy.observe_tick(
            500.0,
            TickObservation {
                entities: 10_000,
                loaded_chunks: 2_000,
                ..TickObservation::default()
            },
        );
        let big = heavy.finish()[0].memory_mib;
        assert!(big > small + 100.0);
    }

    #[test]
    fn thread_count_grows_with_players() {
        let mut few = SystemMetricsCollector::new(30);
        few.observe_tick(
            500.0,
            TickObservation {
                players: 1,
                ..obs(0.1)
            },
        );
        let few_threads = few.finish()[0].threads;

        let mut many = SystemMetricsCollector::new(30);
        many.observe_tick(
            500.0,
            TickObservation {
                players: 100,
                ..obs(0.1)
            },
        );
        let many_threads = many.finish()[0].threads;
        assert!(many_threads > few_threads);
    }

    #[test]
    fn finish_flushes_a_partial_window() {
        let mut c = SystemMetricsCollector::new(30);
        c.observe_tick(50.0, obs(0.9));
        c.observe_tick(100.0, obs(0.9));
        assert!(c.samples.is_empty());
        let samples = c.finish();
        assert_eq!(samples.len(), 1);
        assert!(samples[0].cpu_utilization > 0.8);
    }
}
