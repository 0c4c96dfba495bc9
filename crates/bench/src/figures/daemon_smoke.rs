//! Daemon smoke probe: the resident benchmark daemon must serve live
//! metrics while a campaign runs, fire an alert on synthetic overload, and
//! keep memory flat over a long soak.
//!
//! Two phases, both asserted (the process exits non-zero on any failure,
//! which is what the CI job keys off):
//!
//! 1. **Soak** — a ≥10k-tick Control campaign through the daemon. The
//!    rolling history must stay at its window bound and the fired-alert
//!    log under its cap throughout, which is the structural guarantee that
//!    daemon memory does not grow with uptime.
//! 2. **Overload + HTTP surface** — a Lag-workload campaign (ISR ≈ 0.78 on
//!    the DAS-5 substrate, far past the 50% tick-overload threshold) runs
//!    while the probe scrapes `/status`, `/metrics` (Prometheus text) and
//!    `/events` (SSE) over real HTTP, waits for the `tick-overload` alert
//!    to land in `/alerts`, then shuts the daemon down via `POST /shutdown`
//!    and verifies the sink stack drained exactly once.
//!
//! Threading note: the campaign runs on a scoped thread so the probe's
//! main thread can drive the HTTP surface; scoped threads are joined
//! before the phase returns (no bare `thread::spawn` here).

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use cloud_sim::environment::Environment;
use meterstick::campaign::{CampaignPlan, IterationJob};
use meterstick::{Campaign, IterationResult, NullSink, ResultSink, TickSample};
use meterstick_daemon::{http, AlertEngine, Daemon, DaemonConfig};
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

use crate::Cli;

/// Soak length in ticks (20 Hz × 500 virtual seconds).
const SOAK_TICKS: u64 = 10_000;
/// History window for both phases — small on purpose so a leak (history
/// growing past its window) is caught immediately.
const WINDOW: usize = 512;

/// Counts sink callbacks so phase 2 can assert the stack drained once.
#[derive(Default)]
struct CountingSink {
    ticks: AtomicU64,
    ends: AtomicU64,
}

impl ResultSink for &CountingSink {
    fn on_campaign_start(&mut self, _plan: &CampaignPlan) {}

    fn on_tick(&mut self, _job: &IterationJob, _sample: &TickSample) {
        self.ticks.fetch_add(1, Ordering::SeqCst);
    }

    fn on_result(&mut self, _job: &IterationJob, _result: &IterationResult) {}

    fn on_campaign_end(&mut self) {
        self.ends.fetch_add(1, Ordering::SeqCst);
    }
}

fn campaign(kind: WorkloadKind, duration_secs: u64) -> Campaign {
    Campaign::new()
        .workloads([kind])
        .flavors([ServerFlavor::Vanilla])
        .environments([Environment::das5(2)])
        .duration_secs(duration_secs)
        .iterations(1)
}

/// Polls `cond` until it holds or `limit` elapses.
fn wait_for(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < limit {
        if cond() {
            return true;
        }
        thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Phase 1: the windowed history and bounded alert log are what keep a
/// resident daemon's memory flat; soak past 10k ticks and verify both.
fn soak() {
    let daemon = Daemon::new(DaemonConfig {
        window: WINDOW,
        ..DaemonConfig::default()
    });
    let handle = daemon.handle();
    // 520 virtual seconds of Control ≈ 10.4k ticks through the observer
    // (the iteration trims a handful of warmup ticks off the nominal
    // 20 Hz × duration count, so leave margin over SOAK_TICKS).
    let mut sink = NullSink;
    let results = daemon
        .run_campaign(&campaign(WorkloadKind::Control, 520), &mut sink)
        .expect("soak campaign is valid");
    assert_eq!(results.len(), 1);
    handle.with_stats(|stats| {
        assert!(
            stats.history.total_ticks() >= SOAK_TICKS,
            "soak too short: {} ticks",
            stats.history.total_ticks()
        );
        assert!(
            stats.history.len() <= WINDOW,
            "history leaked past its window: {} > {WINDOW}",
            stats.history.len()
        );
        assert!(stats.alerts.fired().count() <= AlertEngine::FIRED_LOG_CAP);
        // Control never overloads; a phantom alert here means the rules or
        // the modeled budget regressed.
        assert_eq!(stats.alerts.fired_total(), 0, "Control must not alert");
    });
    println!(
        "soak: {} ticks, history bounded at {} entries, 0 alerts",
        handle.with_stats(|s| s.history.total_ticks()),
        WINDOW,
    );
}

/// Phase 2: live HTTP surface + alert on synthetic overload.
fn overload_over_http() {
    let daemon = Daemon::new(DaemonConfig {
        window: WINDOW,
        ..DaemonConfig::default()
    });
    let handle = daemon.handle();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("bound socket has an address");
    let server = http::spawn(listener, handle.clone()).expect("HTTP thread starts");

    let sink = CountingSink::default();
    thread::scope(|scope| {
        let runner = scope.spawn(|| {
            let mut observer = &sink;
            // Deliberately longer than the probe needs: the HTTP shutdown
            // below is what ends it.
            daemon
                .run_campaign(&campaign(WorkloadKind::Lag, 3_600), &mut observer)
                .expect("overload campaign is valid")
        });
        assert!(
            wait_for(Duration::from_secs(30), || {
                sink.ticks.load(Ordering::SeqCst) > 30
            }),
            "campaign never started ticking"
        );

        let (status, body) = http::fetch(addr, "GET", "/status", usize::MAX).expect("/status");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"state\":\"running\""), "{body}");

        let (status, body) = http::fetch(addr, "GET", "/metrics", usize::MAX).expect("/metrics");
        assert!(status.contains("200"), "{status}");
        for needle in [
            "meterstick_ticks_total",
            "meterstick_window_overload_ratio",
            "meterstick_stage_busy_ms_mean{stage=\"entity\"}",
            "meterstick_last_iteration_isr",
        ] {
            assert!(body.contains(needle), "/metrics missing {needle}:\n{body}");
        }

        let (status, events) = http::fetch(addr, "GET", "/events", 4_096).expect("/events");
        assert!(status.contains("200"), "{status}");
        assert!(
            events.contains("data: {\"type\":\"tick\""),
            "SSE stream carried no tick events:\n{events}"
        );

        // The Lag workload overloads ~78% of ticks; the seeded
        // tick-overload rule (>50% of the window, min 20 ticks) must fire.
        assert!(
            wait_for(Duration::from_secs(30), || {
                let (_, alerts) = http::fetch(addr, "GET", "/alerts", usize::MAX).expect("/alerts");
                alerts.contains("tick-overload")
            }),
            "no tick-overload alert on a Lag workload"
        );

        let (status, _) = http::fetch(addr, "POST", "/shutdown", usize::MAX).expect("/shutdown");
        assert!(status.contains("200"), "{status}");
        runner.join().expect("campaign thread must not panic");
    });
    handle.mark_finished();
    server.join().expect("HTTP thread exits after shutdown");
    assert_eq!(
        sink.ends.load(Ordering::SeqCst),
        1,
        "sink stack must drain exactly once"
    );
    println!(
        "overload: tick-overload alert fired, {} ticks observed over HTTP, clean shutdown",
        sink.ticks.load(Ordering::SeqCst),
    );
}

pub fn run(_cli: &Cli) {
    soak();
    overload_over_http();
    println!("daemon smoke: OK");
}
