//! Daemon lifecycle: pause → resume → shutdown must drain the sink stack
//! exactly once, and the HTTP surface must serve live metrics while a
//! campaign runs.
//!
//! Threading note: the campaign loop runs on a scoped thread
//! (`std::thread::scope`) so the test thread can drive the handle; scoped
//! threads join before the test returns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use cloud_sim::environment::Environment;
use meterstick::campaign::{CampaignPlan, IterationJob};
use meterstick::{Campaign, IterationResult, ResultSink, TickSample};
use meterstick_daemon::{http, Daemon, DaemonConfig, DaemonState};
use meterstick_workloads::WorkloadKind;
use mlg_server::ServerFlavor;

/// Counts every sink callback; shared with the driving thread through
/// atomics so the campaign thread can own the sink itself.
#[derive(Default)]
struct CountingSink {
    starts: AtomicU64,
    ticks: AtomicU64,
    results: AtomicU64,
    ends: AtomicU64,
}

impl ResultSink for &CountingSink {
    fn on_campaign_start(&mut self, _plan: &CampaignPlan) {
        self.starts.fetch_add(1, Ordering::SeqCst);
    }

    fn on_tick(&mut self, _job: &IterationJob, _sample: &TickSample) {
        self.ticks.fetch_add(1, Ordering::SeqCst);
    }

    fn on_result(&mut self, _job: &IterationJob, _result: &IterationResult) {
        self.results.fetch_add(1, Ordering::SeqCst);
    }

    fn on_campaign_end(&mut self) {
        self.ends.fetch_add(1, Ordering::SeqCst);
    }
}

/// A campaign long enough that the test always shuts it down mid-flight
/// (3600 virtual seconds = 72k ticks).
fn long_campaign() -> Campaign {
    Campaign::new()
        .workloads([WorkloadKind::Control])
        .flavors([ServerFlavor::Vanilla])
        .environments([Environment::das5(2)])
        .duration_secs(3_600)
        .iterations(1)
}

/// Polls `cond` until it holds or ~5 s elapse.
fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
    for _ in 0..500 {
        if cond() {
            return true;
        }
        thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn pause_resume_shutdown_drains_sinks_exactly_once() {
    let daemon = Daemon::new(DaemonConfig {
        window: 64,
        ..DaemonConfig::default()
    });
    let handle = daemon.handle();
    let sink = CountingSink::default();

    thread::scope(|scope| {
        let runner = scope.spawn(|| {
            let mut observer = &sink;
            daemon
                .run_campaign(&long_campaign(), &mut observer)
                .expect("the campaign plan is valid")
        });

        // Let the loop tick, then pause it.
        assert!(wait_for(|| sink.ticks.load(Ordering::SeqCst) > 10));
        handle.pause();
        assert_eq!(handle.state(), DaemonState::Paused);
        // The loop blocks between ticks: after the pause takes effect the
        // tick counter stops moving. Require three consecutive unchanged
        // 10 ms-apart reads before trusting that the pause landed (control
        // ticks take well under a millisecond, so a running loop cannot
        // sit still for 30 ms).
        let mut settled = sink.ticks.load(Ordering::SeqCst);
        let mut stable_polls = 0;
        assert!(wait_for(|| {
            let now = sink.ticks.load(Ordering::SeqCst);
            if now == settled {
                stable_polls += 1;
            } else {
                stable_polls = 0;
                settled = now;
            }
            stable_polls >= 3
        }));
        thread::sleep(Duration::from_millis(50));
        assert_eq!(
            sink.ticks.load(Ordering::SeqCst),
            settled,
            "a paused daemon must not execute ticks"
        );

        // Resume: ticks flow again.
        handle.resume();
        assert_eq!(handle.state(), DaemonState::Running);
        assert!(wait_for(|| sink.ticks.load(Ordering::SeqCst) > settled));

        // Shutdown aborts the (deliberately huge) iteration mid-flight.
        handle.request_shutdown();
        let results = runner.join().expect("campaign thread must not panic");
        handle.mark_finished();

        assert_eq!(handle.state(), DaemonState::Finished);
        assert_eq!(sink.starts.load(Ordering::SeqCst), 1);
        assert_eq!(
            sink.ends.load(Ordering::SeqCst),
            1,
            "shutdown must drain the sink stack exactly once"
        );
        assert!(sink.ticks.load(Ordering::SeqCst) > 0);
        // The aborted iteration is partial and must not be reported.
        assert_eq!(sink.results.load(Ordering::SeqCst), 0);
        assert!(results.is_empty());
    });
}

#[test]
fn completed_campaign_reports_results_and_history() {
    let daemon = Daemon::new(DaemonConfig {
        window: 32,
        ..DaemonConfig::default()
    });
    let handle = daemon.handle();
    let sink = CountingSink::default();
    let mut observer = &sink;
    let campaign = Campaign::new()
        .workloads([WorkloadKind::Control])
        .flavors([ServerFlavor::Vanilla])
        .environments([Environment::das5(2)])
        .duration_secs(2)
        .iterations(2);
    let results = daemon
        .run_campaign(&campaign, &mut observer)
        .expect("valid campaign");
    handle.mark_finished();

    assert_eq!(results.len(), 2);
    assert_eq!(sink.results.load(Ordering::SeqCst), 2);
    assert_eq!(sink.ends.load(Ordering::SeqCst), 1);
    handle.with_stats(|stats| {
        assert_eq!(stats.history.iterations_completed(), 2);
        assert!(stats.history.total_ticks() > 0);
        assert!(stats.history.len() <= 32, "history must stay windowed");
        assert!(stats.history.last_iteration_isr().is_some());
    });
    assert_eq!(handle.state(), DaemonState::Finished);
    // Observed ticks flow through the sink's on_tick exactly once per
    // executed tick.
    let total = handle.with_stats(|stats| stats.history.total_ticks());
    assert_eq!(sink.ticks.load(Ordering::SeqCst), total);
}

#[test]
fn http_surface_serves_live_metrics_and_controls_the_loop() {
    let daemon = Daemon::new(DaemonConfig {
        window: 64,
        ..DaemonConfig::default()
    });
    let handle = daemon.handle();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = http::spawn(listener, handle.clone()).expect("server starts");

    let sink = CountingSink::default();
    thread::scope(|scope| {
        let runner = scope.spawn(|| {
            let mut observer = &sink;
            daemon
                .run_campaign(&long_campaign(), &mut observer)
                .expect("valid campaign")
        });
        assert!(wait_for(|| sink.ticks.load(Ordering::SeqCst) > 10));

        // Live scrape while the campaign runs.
        let (status, body) = http::fetch(addr, "GET", "/metrics", usize::MAX).unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("meterstick_ticks_total"));
        assert!(body.contains("meterstick_stage_busy_ms_mean{stage=\"player\"}"));
        assert!(body.contains("meterstick_window_overload_ratio"));

        let (status, body) = http::fetch(addr, "GET", "/status", usize::MAX).unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"state\":\"running\""), "{body}");

        // Pause over HTTP, confirm, resume.
        let (status, body) = http::fetch(addr, "POST", "/pause", usize::MAX).unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"state\":\"paused\""), "{body}");
        assert!(handle.is_paused());
        let (_, body) = http::fetch(addr, "POST", "/resume", usize::MAX).unwrap();
        assert!(body.contains("\"state\":\"running\""), "{body}");

        // An SSE subscriber sees live tick events (read a few KB of the
        // stream, then hang up).
        let (status, events) = http::fetch(addr, "GET", "/events", 4_096).unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(events.contains("data: {\"type\":\"tick\""), "{events}");
        assert!(events.contains("\"busy_ms\""), "{events}");

        let (_, body) = http::fetch(addr, "GET", "/alerts", usize::MAX).unwrap();
        assert!(body.starts_with('['), "{body}");

        // Shutdown over HTTP stops the loop and the accept thread.
        let (status, _) = http::fetch(addr, "POST", "/shutdown", usize::MAX).unwrap();
        assert!(status.contains("200"), "{status}");
        runner.join().expect("campaign thread must not panic");
    });
    handle.mark_finished();
    server.join().expect("HTTP thread exits after shutdown");
    assert_eq!(sink.ends.load(Ordering::SeqCst), 1);
}

#[test]
fn concurrent_pause_and_resume_then_shutdown_lose_no_wakeup() {
    let daemon = Daemon::new(DaemonConfig {
        window: 64,
        ..DaemonConfig::default()
    });
    let handle = daemon.handle();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = http::spawn(listener, handle.clone()).expect("server starts");

    let sink = CountingSink::default();
    // Releases the four clients together.
    let start = std::sync::Barrier::new(4);
    thread::scope(|scope| {
        let runner = scope.spawn(|| {
            let mut observer = &sink;
            daemon
                .run_campaign(&long_campaign(), &mut observer)
                .expect("valid campaign")
        });
        assert!(wait_for(|| sink.ticks.load(Ordering::SeqCst) > 10));

        // Four clients interleave 200 pauses and 200 resumes.
        let clients: Vec<_> = (0..4)
            .map(|client| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for i in 0..100 {
                        let path = if (client + i) % 2 == 0 {
                            "/pause"
                        } else {
                            "/resume"
                        };
                        let (status, _) = http::fetch(addr, "POST", path, usize::MAX).unwrap();
                        assert!(status.contains("200"), "{path}: {status}");
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client thread must not panic");
        }

        // Leave the loop paused: shutdown must wake it from its pause
        // poll, and a lost wakeup leaves the campaign thread parked.
        let (status, _) = http::fetch(addr, "POST", "/pause", usize::MAX).unwrap();
        assert!(status.contains("200"), "{status}");
        let (status, _) = http::fetch(addr, "POST", "/shutdown", usize::MAX).unwrap();
        assert!(status.contains("200"), "{status}");
        let returned = wait_for(|| runner.is_finished());
        if !returned {
            // Release the parked loop so the failure reports instead of
            // hanging the scope's join.
            handle.resume();
        }
        assert!(returned, "the campaign thread must return after shutdown");
        runner.join().expect("campaign thread must not panic");
    });
    handle.mark_finished();
    server.join().expect("HTTP thread exits after shutdown");
    assert_eq!(sink.starts.load(Ordering::SeqCst), 1);
    assert_eq!(
        sink.ends.load(Ordering::SeqCst),
        1,
        "shutdown must drain the sink stack exactly once"
    );
}

/// Sends `request` raw and returns whatever the server answers before it
/// closes the connection. The server may close while the request is still
/// being written, so write and read errors both count as "closed".
fn send_raw(addr: std::net::SocketAddr, request: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("daemon accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let _ = stream.write_all(request);
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(err) => {
                let kind = err.kind();
                assert!(
                    kind != std::io::ErrorKind::WouldBlock && kind != std::io::ErrorKind::TimedOut,
                    "the server left an oversized request hanging"
                );
                break;
            }
        }
    }
    String::from_utf8_lossy(&raw).into_owned()
}

#[test]
fn oversized_request_heads_are_refused_and_the_server_keeps_serving() {
    let daemon = Daemon::new(DaemonConfig::default());
    let handle = daemon.handle();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = http::spawn(listener, handle.clone()).expect("server starts");

    // A request line that never ends, and a head that never reaches its
    // blank line: each is cut off at the server's fixed cap.
    let endless_line = vec![b'a'; 64 * 1024];
    let mut endless_headers = b"GET /status HTTP/1.1\r\n".to_vec();
    for i in 0..10_000 {
        endless_headers.extend_from_slice(format!("X-Filler-{i}: {i}\r\n").as_bytes());
    }
    for request in [endless_line, endless_headers] {
        let started = std::time::Instant::now();
        let answer = send_raw(addr, &request);
        assert!(
            answer.is_empty() || answer.starts_with("HTTP/1.1 431 "),
            "{answer}"
        );
        // The refusal comes from the cap, not from the server's 500 ms read
        // timeout running out on a head it would otherwise keep reading.
        assert!(started.elapsed() < Duration::from_millis(500));

        let (status, body) = http::fetch(addr, "GET", "/status", usize::MAX).unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"state\":\"running\""), "{body}");
    }

    handle.request_shutdown();
    server.join().expect("HTTP thread exits after shutdown");
}

#[test]
fn a_slow_oversized_head_still_reads_its_431() {
    use std::io::{Read, Write};

    let daemon = Daemon::new(DaemonConfig::default());
    let handle = daemon.handle();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = http::spawn(listener, handle.clone()).expect("server starts");

    // Up to 256 KiB of headers, 32 times the server's 8 KiB cap, sent in
    // 16 KiB chunks with pauses: the head is still on its way when the
    // server refuses it, and the answer must survive what is unread. The
    // client stops sending at the first failed write (the server drains
    // only up to a bound) or once the answer has begun to arrive. It must
    // not write on: a write that meets a reset takes the socket's error, and
    // `read_to_end` would then read the answer and a clean end even from a
    // server that reset the connection.
    let mut stream = std::net::TcpStream::connect(addr).expect("daemon accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut head = b"GET /status HTTP/1.1\r\n".to_vec();
    let mut i = 0;
    while head.len() < 256 * 1024 {
        head.extend_from_slice(format!("X-Filler-{i}: {i}\r\n").as_bytes());
        i += 1;
    }
    let answered = |stream: &std::net::TcpStream| {
        stream.set_nonblocking(true).unwrap();
        let pending = stream.peek(&mut [0u8]);
        stream.set_nonblocking(false).unwrap();
        !matches!(pending, Err(err) if err.kind() == std::io::ErrorKind::WouldBlock)
    };
    for chunk in head.chunks(16 * 1024) {
        if stream.write_all(chunk).is_err() {
            break;
        }
        thread::sleep(Duration::from_millis(15));
        if answered(&stream) {
            break;
        }
    }
    let mut answer = Vec::new();
    stream
        .read_to_end(&mut answer)
        .expect("the answer is read, not reset");
    let answer = String::from_utf8_lossy(&answer);
    assert!(answer.starts_with("HTTP/1.1 431 "), "{answer}");

    handle.request_shutdown();
    server.join().expect("HTTP thread exits after shutdown");
}
