//! The resident daemon: a pausable/resumable campaign loop plus the shared
//! state the HTTP surface reads.
//!
//! The split with `meterstick::experiment` is deliberate: the core crate
//! stays inside the tick determinism contract (no wall-clock reads, no
//! blocking), while everything resident — pause blocking, wall-clock
//! pacing, event fan-out — lives here, behind the
//! [`TickObserver`] the core loop threads through
//! [`execute_iteration_observed`]. Pausing therefore never changes *what*
//! is simulated: the observer blocks between ticks, and a paused-then-
//! resumed iteration replays bit-identically to an uninterrupted one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use meterstick::campaign::{Campaign, IterationJob};
use meterstick::sink::{json_escape, tick_json};
use meterstick::{
    execute_iteration_observed, BenchmarkError, IterationResult, ResultSink, TickObserver,
    TickSample,
};

use crate::alerts::{seeded_rules, AlertEngine, AlertRule};
use crate::history::MetricsHistory;

/// Buffered events per SSE subscriber; a slow client drops events rather
/// than growing daemon memory.
const SUBSCRIBER_BUFFER: usize = 1024;

/// Configuration of a [`Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Ticks retained in the rolling metrics window.
    pub window: usize,
    /// Alert rules evaluated after every tick.
    pub rules: Vec<AlertRule>,
    /// Publish a tick event to subscribers every Nth tick (1 = every
    /// tick). State, alert and iteration events are always published.
    pub publish_every: u64,
    /// Throttle the loop to real time (one virtual tick per 50 wall-clock
    /// milliseconds) so live dashboards see the run unfold at game speed.
    /// Off by default: tests and soaks run at full speed.
    pub pace_to_real_time: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            window: 1024,
            rules: seeded_rules(),
            publish_every: 1,
            pace_to_real_time: false,
        }
    }
}

/// Lifecycle state as reported by [`DaemonHandle::state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonState {
    /// Executing ticks.
    Running,
    /// Blocked between two ticks, waiting for resume.
    Paused,
    /// Shutdown requested; the loop unwinds after the current tick.
    ShuttingDown,
    /// The campaign loop returned and sinks are drained.
    Finished,
}

impl DaemonState {
    /// The lowercase name used in `/status` and SSE state events.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DaemonState::Running => "running",
            DaemonState::Paused => "paused",
            DaemonState::ShuttingDown => "shutting-down",
            DaemonState::Finished => "finished",
        }
    }
}

/// Mutable statistics behind the handle's lock: the rolling history, the
/// alert engine and the current-job bookkeeping.
#[derive(Debug)]
pub struct DaemonStats {
    /// Rolling tick history.
    pub history: MetricsHistory,
    /// Alert rules and their fired log.
    pub alerts: AlertEngine,
    /// Label of the job currently executing (empty before the first).
    pub current_job: String,
    /// Whether the campaign loop has returned and drained its sinks.
    pub finished: bool,
}

#[derive(Debug)]
struct Shared {
    paused: AtomicBool,
    shutdown: AtomicBool,
    pause_lock: Mutex<()>,
    pause_cv: Condvar,
    stats: Mutex<DaemonStats>,
    subscribers: Mutex<Vec<SyncSender<String>>>,
}

/// Cloneable control handle onto a running daemon: pause/resume/shutdown,
/// event subscription and stats access. This is what the HTTP surface and
/// tests hold.
#[derive(Debug, Clone)]
pub struct DaemonHandle {
    shared: Arc<Shared>,
}

impl DaemonHandle {
    fn new(config: &DaemonConfig) -> Self {
        DaemonHandle {
            shared: Arc::new(Shared {
                paused: AtomicBool::new(false),
                shutdown: AtomicBool::new(false),
                pause_lock: Mutex::new(()),
                pause_cv: Condvar::new(),
                stats: Mutex::new(DaemonStats {
                    history: MetricsHistory::new(config.window),
                    alerts: AlertEngine::new(config.rules.clone()),
                    current_job: String::new(),
                    finished: false,
                }),
                subscribers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Requests a pause; the loop blocks before its next tick.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::SeqCst);
        self.publish_state();
    }

    /// Clears a pause and wakes the blocked loop.
    ///
    /// The flag store and notify happen under `pause_lock`: the loop
    /// re-checks the flag while holding that lock before it waits, so
    /// notifying without it could land in the gap between the re-check
    /// and the wait and be lost — leaving the loop paused forever.
    pub fn resume(&self) {
        {
            let _guard = self.shared.pause_lock.lock().expect("pause lock poisoned");
            self.shared.paused.store(false, Ordering::SeqCst);
            self.shared.pause_cv.notify_all();
        }
        self.publish_state();
    }

    /// Requests shutdown; wakes a paused loop so it can unwind. Holds
    /// `pause_lock` across store + notify for the same lost-wakeup
    /// reason as [`DaemonHandle::resume`].
    pub fn request_shutdown(&self) {
        {
            let _guard = self.shared.pause_lock.lock().expect("pause lock poisoned");
            self.shared.shutdown.store(true, Ordering::SeqCst);
            self.shared.pause_cv.notify_all();
        }
        self.publish_state();
    }

    /// Whether a pause is currently requested.
    #[must_use]
    pub fn is_paused(&self) -> bool {
        self.shared.paused.load(Ordering::SeqCst)
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Marks the daemon finished: the campaign loop has returned and its
    /// sinks are drained. Called by the loop's owner (not by
    /// [`Daemon::run_campaign`], since a resident daemon may run several
    /// campaign rounds back to back).
    pub fn mark_finished(&self) {
        self.with_stats_mut(|stats| stats.finished = true);
        self.publish_state();
    }

    /// The current lifecycle state.
    #[must_use]
    pub fn state(&self) -> DaemonState {
        let finished = self.with_stats(|stats| stats.finished);
        if finished {
            DaemonState::Finished
        } else if self.shutdown_requested() {
            DaemonState::ShuttingDown
        } else if self.is_paused() {
            DaemonState::Paused
        } else {
            DaemonState::Running
        }
    }

    /// Runs `f` under the stats lock and returns its result.
    pub fn with_stats<R>(&self, f: impl FnOnce(&DaemonStats) -> R) -> R {
        let stats = self.shared.stats.lock().expect("daemon stats poisoned");
        f(&stats)
    }

    pub(crate) fn with_stats_mut<R>(&self, f: impl FnOnce(&mut DaemonStats) -> R) -> R {
        let mut stats = self.shared.stats.lock().expect("daemon stats poisoned");
        f(&mut stats)
    }

    /// Subscribes to the daemon's event stream (tick, alert, iteration and
    /// state events as JSON lines). Each subscriber gets a bounded buffer;
    /// events beyond it are dropped for that subscriber, and disconnected
    /// subscribers are pruned on the next publish.
    #[must_use]
    pub fn subscribe(&self) -> Receiver<String> {
        let (tx, rx) = mpsc::sync_channel(SUBSCRIBER_BUFFER);
        self.shared
            .subscribers
            .lock()
            .expect("subscriber list poisoned")
            .push(tx);
        rx
    }

    /// Number of live subscribers (for tests and `/status`).
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.shared
            .subscribers
            .lock()
            .expect("subscriber list poisoned")
            .len()
    }

    /// Publishes one event line to every subscriber.
    pub fn publish(&self, event: &str) {
        let mut subs = self
            .shared
            .subscribers
            .lock()
            .expect("subscriber list poisoned");
        subs.retain(|tx| match tx.try_send(event.to_string()) {
            Ok(()) | Err(TrySendError::Full(_)) => true,
            Err(TrySendError::Disconnected(_)) => false,
        });
    }

    fn publish_state(&self) {
        let event = format!(
            "{{\"type\":\"state\",\"state\":\"{}\"}}",
            self.state().name()
        );
        self.publish(&event);
    }

    /// Blocks while paused; returns whether shutdown was requested. This
    /// is the only place the daemon sleeps with a lock-free loop around a
    /// condvar, and it runs *between* ticks — the simulation itself never
    /// observes the pause.
    fn block_while_paused(&self) -> bool {
        if self.is_paused() && !self.shutdown_requested() {
            let mut guard = self.shared.pause_lock.lock().expect("pause lock poisoned");
            while self.is_paused() && !self.shutdown_requested() {
                guard = self
                    .shared
                    .pause_cv
                    .wait(guard)
                    .expect("pause condvar poisoned");
            }
        }
        self.shutdown_requested()
    }
}

/// Paces the observed loop to real time: one 50 ms virtual tick per 50 ms
/// of wall clock. Host-clock use is deliberate and daemon-only — the
/// `daemon` crate is classified wall-clock-exempt in detlint's tables
/// because *presenting* a run live is exactly a wall-clock concern; the
/// simulated results remain wall-clock-free.
#[derive(Debug)]
struct Pacer {
    started: Option<Instant>,
}

impl Pacer {
    fn new() -> Self {
        Pacer { started: None }
    }

    fn pace(&mut self, virtual_ms: f64) {
        let started = *self.started.get_or_insert_with(Instant::now);
        let target = Duration::from_secs_f64(virtual_ms / 1_000.0);
        let elapsed = started.elapsed();
        if target > elapsed {
            std::thread::sleep(target - elapsed);
        }
    }
}

/// The daemon-side [`TickObserver`]: bridges every tick into the sink
/// stack, the rolling history, the alert engine and the SSE subscribers,
/// and implements pause/abort blocking.
struct DaemonObserver<'a> {
    handle: &'a DaemonHandle,
    sink: &'a mut dyn ResultSink,
    job: &'a IterationJob,
    publish_every: u64,
    pacer: Option<Pacer>,
}

impl TickObserver for DaemonObserver<'_> {
    fn should_abort(&mut self) -> bool {
        self.handle.block_while_paused()
    }

    fn on_tick(&mut self, sample: &TickSample) {
        if let Some(pacer) = &mut self.pacer {
            pacer.pace(sample.end_ms);
        }
        self.sink.on_tick(self.job, sample);
        let (newly_fired, total_ticks) = self.handle.with_stats_mut(|stats| {
            stats.history.push(sample);
            (
                stats.alerts.evaluate(&stats.history),
                stats.history.total_ticks(),
            )
        });
        for alert in &newly_fired {
            let event = format!(
                "{{\"type\":\"alert\",\"rule\":\"{}\",\"at_tick\":{},\"message\":\"{}\"}}",
                alert.rule,
                alert.at_tick,
                json_escape(&alert.message),
            );
            self.handle.publish(&event);
        }
        if self.publish_every > 0
            && total_ticks % self.publish_every == 0
            && self.handle.subscriber_count() > 0
        {
            self.handle.publish(&tick_json(self.job, sample));
        }
    }
}

/// The resident benchmark daemon.
///
/// Construction is cheap; the loop runs inside [`Daemon::run_campaign`],
/// which the caller drives (typically from a dedicated thread, with the
/// HTTP surface holding a [`DaemonHandle`]).
#[derive(Debug)]
pub struct Daemon {
    handle: DaemonHandle,
    publish_every: u64,
    pace_to_real_time: bool,
}

impl Daemon {
    /// Creates a daemon with the given configuration.
    #[must_use]
    pub fn new(config: DaemonConfig) -> Self {
        Daemon {
            handle: DaemonHandle::new(&config),
            publish_every: config.publish_every,
            pace_to_real_time: config.pace_to_real_time,
        }
    }

    /// The control handle shared with the HTTP surface and tests.
    #[must_use]
    pub fn handle(&self) -> DaemonHandle {
        self.handle.clone()
    }

    /// Runs one campaign under daemon control, streaming live ticks and
    /// finished iterations into `sink`.
    ///
    /// Lifecycle contract: `on_campaign_start` and `on_campaign_end` are
    /// called exactly once each, regardless of how many pause/resume
    /// cycles happen and whether shutdown aborts the run mid-iteration —
    /// a shutdown *drains* the sink stack, it never double-finalizes it.
    /// An iteration aborted by shutdown is partial and is not reported
    /// through `on_result`.
    ///
    /// # Errors
    ///
    /// Returns the campaign's planning errors (see [`Campaign::plan`]);
    /// execution itself is infallible.
    pub fn run_campaign(
        &self,
        campaign: &Campaign,
        sink: &mut dyn ResultSink,
    ) -> Result<Vec<IterationResult>, BenchmarkError> {
        let plan = campaign.plan()?;
        sink.on_campaign_start(&plan);
        let mut results = Vec::new();
        for job in plan.jobs() {
            if self.handle.shutdown_requested() {
                break;
            }
            self.handle
                .with_stats_mut(|stats| stats.current_job = job.label());
            let mut observer = DaemonObserver {
                handle: &self.handle,
                sink,
                job,
                publish_every: self.publish_every,
                pacer: self.pace_to_real_time.then(Pacer::new),
            };
            let result = execute_iteration_observed(
                &job.config,
                job.flavor,
                job.iteration,
                job.seed,
                &mut observer,
            );
            if self.handle.shutdown_requested() {
                // Aborted mid-iteration: the result is partial by
                // construction; drop it rather than report a short run.
                break;
            }
            self.handle
                .with_stats_mut(|stats| stats.history.record_iteration(result.instability_ratio));
            self.handle.publish(&format!(
                "{{\"type\":\"iteration\",\"job\":\"{}\",\"isr\":{:.6},\"ticks\":{}}}",
                json_escape(&job.label()),
                result.instability_ratio,
                result.ticks_executed,
            ));
            sink.on_result(job, &result);
            results.push(result);
        }
        sink.on_campaign_end();
        Ok(results)
    }
}
