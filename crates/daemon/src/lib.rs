//! # Meterstick daemon
//!
//! Turns the batch benchmark into a *resident* service: a pausable,
//! resumable campaign loop with live metrics over HTTP.
//!
//! The batch binaries run a campaign, write CSV, and exit. The daemon
//! keeps the same campaign machinery resident and adds three things:
//!
//! * **a controllable loop** — [`Daemon::run_campaign`] executes
//!   iterations through the core's observed tick loop
//!   ([`meterstick::execute_iteration_observed`]); pause, resume and
//!   shutdown arrive through a [`DaemonHandle`] and take effect *between*
//!   ticks, so a paused-then-resumed run replays bit-identically to an
//!   uninterrupted one;
//! * **a rolling metrics history** — [`MetricsHistory`] windows the tick
//!   stream so daemon memory stays flat over arbitrarily long soaks, and
//!   an [`AlertEngine`] evaluates seeded rules (tick-overload,
//!   CoV-regression) against that window after every tick;
//! * **live sinks** — the HTTP surface in [`http`] serves per-stage
//!   busy-ms and ISR as Server-Sent Events (`/events`), Prometheus text
//!   (`/metrics`), status and the alert log, while the daemon feeds the
//!   very same [`meterstick::ResultSink`] stack (JSONL, CSV, progress)
//!   that batch campaigns use — one sink API for both worlds.
//!
//! Division of labour with the core crate: everything that blocks or
//! reads the host clock lives *here*. The core's tick loop stays inside
//! the tick determinism contract; detlint classifies this crate
//! wall-clock-exempt by table, not by per-line waivers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod alerts;
pub mod daemon;
pub mod history;
pub mod http;

pub use alerts::{seeded_rules, Alert, AlertEngine, AlertRule};
pub use daemon::{Daemon, DaemonConfig, DaemonHandle, DaemonState, DaemonStats};
pub use history::MetricsHistory;
