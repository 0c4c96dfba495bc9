//! The daemon's HTTP surface, hand-rolled over `std::net` (the container
//! vendors no HTTP stack, and the surface is four routes).
//!
//! Routes:
//!
//! * `GET /status` — lifecycle state and counters, JSON;
//! * `GET /metrics` — Prometheus text format (`text/plain; version=0.0.4`);
//! * `GET /alerts` — the bounded fired-alert log, JSON;
//! * `GET /events` — Server-Sent Events: live tick/alert/iteration/state
//!   events as `data:` lines;
//! * `POST /pause`, `POST /resume`, `POST /shutdown` — lifecycle control.
//!
//! Thread creation is confined to this file (the accept thread plus one
//! short-lived thread per connection) and classified in detlint's
//! `SPAWN_EXEMPT_FILES` table: these are control-plane threads, not tick
//! fan-out, and never touch simulation state except through the
//! [`DaemonHandle`] lock.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::RecvTimeoutError;
use std::thread;
use std::time::{Duration, Instant};

use meterstick::sink::json_escape;
use mlg_server::TickStageBreakdown;

use crate::daemon::DaemonHandle;

/// Poll interval of the non-blocking accept loop; also bounds how long
/// shutdown waits for the server thread to notice.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// How often an idle SSE stream re-checks for shutdown / emits keepalive.
const SSE_POLL: Duration = Duration::from_millis(100);
/// Most bytes of request line plus headers a connection may send before
/// the blank line; a longer head is answered `431` and closed, so no
/// client can grow a buffer inside the resident process.
const MAX_REQUEST_HEAD_BYTES: u64 = 8 * 1024;
/// After a refusal, the most of the unread request the server reads and
/// discards, and for how long: closing a socket with input still unread
/// resets the connection, which can destroy the answer before the client
/// reads it.
const DRAIN_AFTER_REFUSAL_BYTES: u64 = 1024 * 1024;
const DRAIN_AFTER_REFUSAL: Duration = Duration::from_secs(1);

/// Starts the HTTP server on `listener` in a background thread; the thread
/// exits once [`DaemonHandle::request_shutdown`] has been called.
///
/// # Errors
///
/// Returns the I/O error when the listener cannot be switched to
/// non-blocking accepts.
pub fn spawn(
    listener: TcpListener,
    handle: DaemonHandle,
) -> std::io::Result<thread::JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    Ok(thread::spawn(move || accept_loop(&listener, &handle)))
}

fn accept_loop(listener: &TcpListener, handle: &DaemonHandle) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let handle = handle.clone();
                thread::spawn(move || {
                    let _ = handle_connection(stream, &handle);
                });
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                if handle.shutdown_requested() {
                    return;
                }
                thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                if handle.shutdown_requested() {
                    return;
                }
                thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

fn handle_connection(stream: TcpStream, handle: &DaemonHandle) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut reader = BufReader::new(stream.try_clone()?.take(MAX_REQUEST_HEAD_BYTES));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    // Drain headers; the routes take no request body or header input.
    let mut line = String::new();
    let head_complete = loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            // End of input: the client stopped sending, or the cap cut it off.
            break reader.get_ref().limit() > 0;
        }
        if line == "\r\n" || line == "\n" {
            break true;
        }
    };
    let mut stream = reader.into_inner().into_inner();
    if !head_complete {
        respond(
            &mut stream,
            431,
            "application/json",
            "{\"error\":\"request head too large\"}",
        )?;
        drain_after_refusal(&stream);
        return Ok(());
    }
    match (method.as_str(), path.as_str()) {
        ("GET", "/status") => respond(&mut stream, 200, "application/json", &status_json(handle)),
        ("GET", "/metrics") => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4",
            &prometheus_text(handle),
        ),
        ("GET", "/alerts") => respond(&mut stream, 200, "application/json", &alerts_json(handle)),
        ("GET", "/events") => serve_events(stream, handle),
        ("POST", "/pause") => {
            handle.pause();
            respond(&mut stream, 200, "application/json", &status_json(handle))
        }
        ("POST", "/resume") => {
            handle.resume();
            respond(&mut stream, 200, "application/json", &status_json(handle))
        }
        ("POST", "/shutdown") => {
            handle.request_shutdown();
            respond(&mut stream, 200, "application/json", &status_json(handle))
        }
        _ => respond(
            &mut stream,
            404,
            "application/json",
            "{\"error\":\"unknown route\"}",
        ),
    }
}

/// Ends a refused connection: the answer is sent, so shut the write side
/// (the client sees the end of the answer) and read what the client still
/// sends, up to a bound in bytes and in time, before the socket closes.
fn drain_after_refusal(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + DRAIN_AFTER_REFUSAL;
    let mut rest = stream.take(DRAIN_AFTER_REFUSAL_BYTES);
    let mut buf = [0u8; 4096];
    while Instant::now() < deadline {
        match rest.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    stream.flush()
}

/// Streams daemon events as Server-Sent Events until the client hangs up
/// or shutdown is requested. Idle periods emit SSE comment keepalives.
fn serve_events(mut stream: TcpStream, handle: &DaemonHandle) -> std::io::Result<()> {
    let events = handle.subscribe();
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
         Cache-Control: no-cache\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    loop {
        match events.recv_timeout(SSE_POLL) {
            Ok(event) => {
                write!(stream, "data: {event}\n\n")?;
                stream.flush()?;
            }
            Err(RecvTimeoutError::Timeout) => {
                if handle.shutdown_requested() {
                    return Ok(());
                }
                write!(stream, ": keepalive\n\n")?;
                stream.flush()?;
            }
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

/// Renders the `/status` JSON body.
#[must_use]
fn status_json(handle: &DaemonHandle) -> String {
    let state = handle.state();
    handle.with_stats(|stats| {
        format!(
            concat!(
                "{{\"state\":\"{}\",\"job\":\"{}\",\"ticks_total\":{},",
                "\"window_ticks\":{},\"window\":{},\"iterations\":{},",
                "\"alerts_fired\":{},\"subscribers\":{}}}"
            ),
            state.name(),
            json_escape(&stats.current_job),
            stats.history.total_ticks(),
            stats.history.len(),
            stats.history.window(),
            stats.history.iterations_completed(),
            stats.alerts.fired_total(),
            handle.subscriber_count(),
        )
    })
}

/// Renders the `/alerts` JSON body: the bounded fired-alert log, oldest
/// first.
#[must_use]
fn alerts_json(handle: &DaemonHandle) -> String {
    handle.with_stats(|stats| {
        let entries: Vec<String> = stats
            .alerts
            .fired()
            .map(|a| {
                format!(
                    "{{\"rule\":\"{}\",\"at_tick\":{},\"message\":\"{}\"}}",
                    a.rule,
                    a.at_tick,
                    json_escape(&a.message),
                )
            })
            .collect();
        format!("[{}]", entries.join(","))
    })
}

/// Renders the `/metrics` body in the Prometheus text exposition format.
#[must_use]
fn prometheus_text(handle: &DaemonHandle) -> String {
    let paused = handle.is_paused();
    handle.with_stats(|stats| {
        let history = &stats.history;
        let gauge = |value: f64| format!("{value:.6}");
        // An unlabelled series is one sample with an empty label set.
        let one = |value: String| vec![(String::new(), value)];
        let count = |value: u64| one(value.to_string());
        let stage_means = history.windowed_stage_means();
        let per_stage = TickStageBreakdown::NAMES
            .iter()
            .zip(stage_means.as_array())
            .map(|(stage, ms)| (format!("{{stage=\"{stage}\"}}"), gauge(ms)))
            .collect();
        // The series table: name, help, type, samples as (labels, value).
        let series = [
            (
                "ticks_total",
                "Ticks observed since daemon start.",
                "counter",
                count(history.total_ticks()),
            ),
            (
                "overloaded_ticks_total",
                "Ticks over budget since daemon start.",
                "counter",
                count(history.total_overloaded()),
            ),
            (
                "iterations_total",
                "Completed iterations.",
                "counter",
                count(history.iterations_completed()),
            ),
            (
                "alerts_fired_total",
                "Alerts fired since daemon start.",
                "counter",
                count(stats.alerts.fired_total()),
            ),
            (
                "window_overload_ratio",
                "Overloaded fraction of the window.",
                "gauge",
                one(gauge(history.windowed_overload_ratio())),
            ),
            (
                "window_busy_ms_mean",
                "Mean tick busy time over the window.",
                "gauge",
                one(gauge(history.windowed_mean_busy_ms())),
            ),
            (
                "window_cov",
                "Coefficient of variation of windowed busy times.",
                "gauge",
                one(gauge(history.windowed_cov())),
            ),
            (
                "stage_busy_ms_mean",
                "Mean per-stage busy time over the window.",
                "gauge",
                per_stage,
            ),
            (
                "last_iteration_isr",
                "ISR of the last completed iteration.",
                "gauge",
                one(gauge(history.last_iteration_isr().unwrap_or(0.0))),
            ),
            (
                "paused",
                "Whether the tick loop is paused.",
                "gauge",
                count(u64::from(paused)),
            ),
        ];
        let mut out = String::with_capacity(1_536);
        for (name, help, kind, samples) in series {
            out.push_str(&format!(
                "# HELP meterstick_{name} {help}\n# TYPE meterstick_{name} {kind}\n"
            ));
            for (labels, value) in samples {
                out.push_str(&format!("meterstick_{name}{labels} {value}\n"));
            }
        }
        out
    })
}

/// Minimal blocking HTTP client for the smoke probe and tests: sends one
/// request to `addr` and returns `(status_line, body)`. For `/events`,
/// reads until `max_bytes` of the stream (or EOF) has arrived instead of
/// waiting for a complete body.
///
/// # Errors
///
/// Returns any socket I/O error.
pub fn fetch(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    max_bytes: usize,
) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "{method} {path} HTTP/1.1\r\nHost: daemon\r\n\r\n")?;
    stream.flush()?;
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                if raw.len() >= max_bytes {
                    break;
                }
            }
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut =>
            {
                break;
            }
            Err(err) => return Err(err),
        }
    }
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    let status = head.lines().next().unwrap_or("").to_string();
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonConfig};
    use meterstick::TickSample;

    /// A handle whose history saw six ticks through a four-tick window
    /// (two of the retained four over budget) and one finished iteration.
    fn fixed_history_handle() -> DaemonHandle {
        let handle = Daemon::new(DaemonConfig {
            window: 4,
            ..DaemonConfig::default()
        })
        .handle();
        handle.with_stats_mut(|stats| {
            for (tick, busy_ms) in [10.0, 80.0, 20.0, 60.0, 30.5, 70.25]
                .into_iter()
                .enumerate()
            {
                stats.history.push(&TickSample {
                    tick: tick as u64,
                    end_ms: 0.0,
                    busy_ms,
                    period_ms: busy_ms.max(50.0),
                    budget_ms: 50.0,
                    stages: TickStageBreakdown::from_array([
                        busy_ms * 0.5,
                        busy_ms * 0.25,
                        busy_ms * 0.125,
                        busy_ms * 0.0625,
                        busy_ms * 0.03125,
                        busy_ms * 0.03125,
                    ]),
                    entity_count: 0,
                    player_count: 0,
                });
            }
            stats.history.record_iteration(0.125);
        });
        handle
    }

    #[test]
    fn metrics_body_is_pinned_for_a_fixed_history() {
        let handle = fixed_history_handle();
        handle.pause();
        let expected = r#"# HELP meterstick_ticks_total Ticks observed since daemon start.
# TYPE meterstick_ticks_total counter
meterstick_ticks_total 6
# HELP meterstick_overloaded_ticks_total Ticks over budget since daemon start.
# TYPE meterstick_overloaded_ticks_total counter
meterstick_overloaded_ticks_total 3
# HELP meterstick_iterations_total Completed iterations.
# TYPE meterstick_iterations_total counter
meterstick_iterations_total 1
# HELP meterstick_alerts_fired_total Alerts fired since daemon start.
# TYPE meterstick_alerts_fired_total counter
meterstick_alerts_fired_total 0
# HELP meterstick_window_overload_ratio Overloaded fraction of the window.
# TYPE meterstick_window_overload_ratio gauge
meterstick_window_overload_ratio 0.500000
# HELP meterstick_window_busy_ms_mean Mean tick busy time over the window.
# TYPE meterstick_window_busy_ms_mean gauge
meterstick_window_busy_ms_mean 45.187500
# HELP meterstick_window_cov Coefficient of variation of windowed busy times.
# TYPE meterstick_window_cov gauge
meterstick_window_cov 0.455909
# HELP meterstick_stage_busy_ms_mean Mean per-stage busy time over the window.
# TYPE meterstick_stage_busy_ms_mean gauge
meterstick_stage_busy_ms_mean{stage="player"} 22.593750
meterstick_stage_busy_ms_mean{stage="terrain"} 11.296875
meterstick_stage_busy_ms_mean{stage="entity"} 5.648438
meterstick_stage_busy_ms_mean{stage="lighting"} 2.824219
meterstick_stage_busy_ms_mean{stage="dissemination"} 1.412109
meterstick_stage_busy_ms_mean{stage="other"} 1.412109
# HELP meterstick_last_iteration_isr ISR of the last completed iteration.
# TYPE meterstick_last_iteration_isr gauge
meterstick_last_iteration_isr 0.125000
# HELP meterstick_paused Whether the tick loop is paused.
# TYPE meterstick_paused gauge
meterstick_paused 1
"#;
        assert_eq!(prometheus_text(&handle), expected);
    }
}
