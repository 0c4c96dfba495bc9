//! The persistent tick worker pool: long-lived parked workers that execute
//! every parallel phase of the tick path.
//!
//! # Why a persistent pool
//!
//! A tick has many parallel phases — terrain cascade rounds, random ticks,
//! frozen relighting, the sharded player handler, batched entities — and a
//! thread scope per phase would spawn and join OS threads once *per phase
//! per tick*. That substrate tax is pure runtime-environment overhead in
//! the sense of Reichelt et al. (arXiv:2411.05491): it inflates wall-clock
//! measurements without touching the modeled work, so benchmark deltas
//! between architectures get polluted by thread spawn/join noise.
//! [`TickWorkerPool`] instead keeps `tick_threads - 1` workers, spawned
//! once per tick pipeline and parked between phases (a blocking
//! `crossbeam::channel` receive), plus the calling thread itself, which
//! always participates as the final executor.
//!
//! # Design: owned jobs, no work stealing
//!
//! The workspace forbids `unsafe` code, so pool jobs cannot borrow the
//! tick's state the way scoped threads can — everything a phase needs is
//! packaged into an owned *context* value ([`PoolScope::run_tasks_ctx`])
//! that is shared behind an `Arc` for the duration of the phase and handed
//! back to the caller afterwards. How the world's chunks travel in such
//! tasks and contexts is the business of the two shard-phase protocols in
//! [`crate::shard`], the pool's only callers on the tick path.
//!
//! Jobs are claimed from one shared injector queue — there are no
//! per-worker deques and no work stealing. Claiming order is racy, but
//! every task is self-contained and results are re-ordered by index, so the
//! output is **bit-identical for any executor count** — a pipeline's pool,
//! a short-lived [`PoolScope::scoped`] pool, or fully inline. The determinism
//! contract of the sharded tick pipeline (canonical shard merge order; see
//! `docs/ARCHITECTURE.md`) is therefore unaffected by who executes the tasks.
//!
//! # Shutdown
//!
//! Dropping the pool hangs up the injector channel; parked workers observe
//! the disconnect, drain nothing (the queue is empty between phases by
//! construction) and exit, and `Drop` joins them. Each `TickPipeline` owns
//! its pool (clones share it), so a server dropping its pipeline reliably
//! reclaims its threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{self, Receiver, Sender};

/// A unit of work enqueued on the pool: fully owned, so it can outlive any
/// borrow of the tick's state.
type Job = Box<dyn FnOnce() + Send>;

/// Extracts a human-readable message from a panic payload so worker panics
/// can be re-raised on the calling thread.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// A long-lived pool of parked tick workers (see the [module docs](self)).
///
/// Created once per tick pipeline from its thread count and reused by
/// every parallel phase of every tick; `tick_threads - 1` threads are
/// spawned, because the thread calling [`TickWorkerPool::scope`] always
/// executes jobs too. The pool is execution infrastructure only: results
/// are bit-identical whether a phase runs here or inline on one thread.
pub struct TickWorkerPool {
    /// Job injector; `None` only during `Drop`, which hangs the channel up
    /// to release the parked workers before joining them.
    injector: Option<Sender<Job>>,
    /// The shared claim queue. Workers block on it between phases; the
    /// calling thread drains it non-blockingly while a phase is in flight.
    feed: Receiver<Job>,
    workers: Vec<JoinHandle<()>>,
    executors: u32,
}

impl std::fmt::Debug for TickWorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickWorkerPool")
            .field("executors", &self.executors)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl TickWorkerPool {
    /// Creates a pool sized for `tick_threads` total executors (clamped to
    /// at least 1): `tick_threads - 1` parked worker threads plus the
    /// calling thread. A pool for `tick_threads <= 1` spawns no threads at
    /// all and runs every phase inline.
    #[must_use]
    pub fn new(tick_threads: u32) -> Self {
        let executors = tick_threads.max(1);
        let (injector, feed) = channel::unbounded::<Job>();
        let workers = (1..executors)
            .map(|index| {
                let feed = feed.clone();
                std::thread::Builder::new()
                    .name(format!("mlg-tick-worker-{index}"))
                    .spawn(move || {
                        // Parked here between phases; `recv` fails only
                        // when the pool is dropped.
                        while let Ok(job) = feed.recv() {
                            job();
                        }
                    })
                    .expect("spawn tick worker")
            })
            .collect();
        TickWorkerPool {
            injector: Some(injector),
            feed,
            workers,
            executors,
        }
    }

    /// Total executor count (worker threads plus the calling thread).
    #[must_use]
    pub fn executors(&self) -> u32 {
        self.executors
    }

    /// A [`PoolScope`] dispatching onto this pool.
    #[must_use]
    pub fn scope(&self) -> PoolScope<'_> {
        PoolScope {
            kind: ScopeKind::Pool(self),
        }
    }

    /// Runs `f` over every task, fanning out across the pool, and returns
    /// the tasks in input order together with the context.
    fn run<T, C, F>(&self, mut tasks: Vec<T>, ctx: C, f: F) -> (Vec<T>, C)
    where
        T: Send + 'static,
        C: Send + Sync + 'static,
        F: Fn(usize, &mut T, &C) + Send + Sync + 'static,
    {
        let total = tasks.len();
        if total <= 1 || self.executors <= 1 {
            return run_inline(tasks, ctx, f);
        }

        let shared = Arc::new((ctx, f));
        let (done_tx, done_rx) = channel::unbounded::<(usize, Result<T, String>)>();
        let injector = self
            .injector
            .as_ref()
            .expect("injector present outside Drop");
        for (index, task) in tasks.drain(..).enumerate() {
            let shared = Arc::clone(&shared);
            let done_tx = done_tx.clone();
            let job: Job = Box::new(move || {
                let mut task = task;
                // A panicking job must still produce a completion message,
                // otherwise the collector below would wait forever.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    (shared.1)(index, &mut task, &shared.0);
                    task
                }))
                .map_err(panic_message);
                // Release the context *before* reporting completion: once
                // the caller has collected every message, its own Arc is
                // provably the last one and the context can be unwrapped.
                drop(shared);
                let _ = done_tx.send((index, outcome));
            });
            let _ = injector.send(job);
        }
        drop(done_tx);

        // The calling thread is an executor too: claim jobs until the
        // injector queue is drained, then wait for stragglers on workers.
        while let Ok(job) = self.feed.try_recv() {
            job();
        }

        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(total, || None);
        let mut first_panic: Option<String> = None;
        for _ in 0..total {
            let (index, outcome) = done_rx.recv().expect("one completion per job");
            match outcome {
                Ok(task) => slots[index] = Some(task),
                Err(message) => {
                    if first_panic.is_none() {
                        first_panic = Some(message);
                    }
                }
            }
        }
        if let Some(message) = first_panic {
            panic!("tick worker panicked: {message}");
        }
        let tasks = slots
            .into_iter()
            .map(|slot| slot.expect("every job completed"))
            .collect();
        let Ok((ctx, _)) = Arc::try_unwrap(shared) else {
            unreachable!("every job released its context before completing")
        };
        (tasks, ctx)
    }
}

/// Runs every task on the calling thread, in input order.
fn run_inline<T, C>(mut tasks: Vec<T>, ctx: C, f: impl Fn(usize, &mut T, &C)) -> (Vec<T>, C) {
    for (index, task) in tasks.iter_mut().enumerate() {
        f(index, task, &ctx);
    }
    (tasks, ctx)
}

impl Drop for TickWorkerPool {
    fn drop(&mut self) {
        // Hang up the injector so parked workers observe the disconnect…
        self.injector = None;
        // …and join them. Worker panics cannot reach here (jobs run under
        // `catch_unwind`), so a join error means the thread was killed
        // externally; nothing useful can be done with it during drop.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// How one parallel phase executes: on a persistent pool (what
/// `TickPipeline::scope()` hands out), or — for callers without a pipeline —
/// through [`PoolScope::scoped`].
///
/// Both variants expose the same task-list API and produce bit-identical
/// results for the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct PoolScope<'a> {
    kind: ScopeKind<'a>,
}

#[derive(Debug, Clone, Copy)]
enum ScopeKind<'a> {
    Pool(&'a TickWorkerPool),
    Scoped { threads: u32 },
}

impl<'a> PoolScope<'a> {
    /// A scope with no pool behind it: each call runs inline for
    /// `threads <= 1` — no pool, no channel, no allocation, which is what
    /// serial flavors pay on every relight — and on a short-lived
    /// [`TickWorkerPool`] of `threads` executors otherwise. The second case
    /// pays thread spawn/join per call; the tick path never reaches it
    /// (every pipeline owns a persistent pool).
    #[must_use]
    pub fn scoped(threads: u32) -> Self {
        PoolScope {
            kind: ScopeKind::Scoped {
                threads: threads.max(1),
            },
        }
    }

    /// Executor count this scope fans tasks over.
    #[must_use]
    pub fn threads(&self) -> u32 {
        match self.kind {
            ScopeKind::Pool(pool) => pool.executors(),
            ScopeKind::Scoped { threads } => threads,
        }
    }

    /// Runs independent tasks and returns them in input order — the
    /// context-free form of [`PoolScope::run_tasks_ctx`], for closures that
    /// need nothing beyond the task itself.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f`.
    pub fn run_tasks<T, F>(&self, tasks: Vec<T>, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize, &mut T) + Send + Sync + 'static,
    {
        self.run_tasks_ctx(tasks, (), move |index, task, ()| f(index, task))
            .0
    }

    /// Runs independent tasks against a shared phase context and returns
    /// `(tasks, context)`, tasks in input order.
    ///
    /// The context carries everything the phase needs beyond the per-task
    /// state — the shard map, a generator handle, the frozen chunks, RNG
    /// seeds — *by value*, because persistent pool workers cannot borrow
    /// the caller's stack. It is returned so callers can move expensive
    /// state (e.g. the world's chunks) back out; on the pool path the pool
    /// guarantees every worker released its reference before returning.
    ///
    /// Determinism: tasks are claimed in racy order but results re-order by
    /// index, so for a fixed `(tasks, ctx, f)` the output is bit-identical
    /// across every executor count and both scope variants.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f`.
    pub fn run_tasks_ctx<T, C, F>(&self, tasks: Vec<T>, ctx: C, f: F) -> (Vec<T>, C)
    where
        T: Send + 'static,
        C: Send + Sync + 'static,
        F: Fn(usize, &mut T, &C) + Send + Sync + 'static,
    {
        match self.kind {
            ScopeKind::Pool(pool) => pool.run(tasks, ctx, f),
            ScopeKind::Scoped { threads } if threads > 1 && tasks.len() > 1 => {
                TickWorkerPool::new(threads).run(tasks, ctx, f)
            }
            ScopeKind::Scoped { .. } => run_inline(tasks, ctx, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uneven, collision-prone work so claiming order actually varies.
    fn scramble(index: usize, task: &mut u64, salt: &u64) {
        let mut acc = *task ^ *salt;
        for i in 0..(*task % 7) * 1_000 {
            acc = acc.wrapping_mul(31).wrapping_add(i ^ index as u64);
        }
        *task = acc;
    }

    #[test]
    fn pool_matches_inline_and_scoped_results() {
        let input: Vec<u64> = (0..57).collect();
        let inline = PoolScope::scoped(1)
            .run_tasks_ctx(input.clone(), 7u64, scramble)
            .0;
        for executors in [2u32, 4, 8] {
            let scoped = PoolScope::scoped(executors)
                .run_tasks_ctx(input.clone(), 7u64, scramble)
                .0;
            assert_eq!(inline, scoped, "scoped({executors}) diverged");
            let pool = TickWorkerPool::new(executors);
            let pooled = pool.scope().run_tasks_ctx(input.clone(), 7u64, scramble).0;
            assert_eq!(inline, pooled, "{executors} executors diverged");
        }
    }

    #[test]
    fn context_round_trips_through_the_pool() {
        let pool = TickWorkerPool::new(4);
        let ctx = vec![1u64, 2, 3];
        let (tasks, ctx_back) =
            pool.scope()
                .run_tasks_ctx(vec![0u64; 16], ctx, |_, task, ctx: &Vec<u64>| {
                    *task = ctx.iter().sum();
                });
        assert_eq!(ctx_back, vec![1, 2, 3], "context must come back intact");
        assert!(tasks.iter().all(|&t| t == 6));
    }

    #[test]
    fn one_pool_survives_many_phases() {
        // The whole point: one spawn, thousands of phases.
        let pool = TickWorkerPool::new(4);
        let mut acc: Vec<u64> = (0..16).collect();
        for round in 0..500u64 {
            acc = pool.scope().run_tasks(acc, move |_, t| {
                *t = t.wrapping_mul(3).wrapping_add(round);
            });
        }
        let mut expected: Vec<u64> = (0..16).collect();
        for round in 0..500u64 {
            for t in &mut expected {
                *t = t.wrapping_mul(3).wrapping_add(round);
            }
        }
        assert_eq!(acc, expected);
    }

    #[test]
    fn empty_and_single_inputs_run_inline() {
        let pool = TickWorkerPool::new(4);
        for scope in [pool.scope(), PoolScope::scoped(4)] {
            assert!(scope.run_tasks(Vec::<u64>::new(), |_, _| {}).is_empty());
            assert_eq!(scope.run_tasks(vec![41u64], |_, t| *t += 1), vec![42]);
        }
    }

    #[test]
    fn degenerate_pool_runs_inline_without_workers() {
        let pool = TickWorkerPool::new(0);
        assert_eq!(pool.executors(), 1);
        assert_eq!(
            pool.scope().run_tasks(vec![1u64, 2, 3], |_, t| *t *= 2),
            vec![2, 4, 6]
        );
    }

    #[test]
    #[should_panic(expected = "tick worker panicked")]
    fn pool_propagates_job_panics() {
        let boom = |_, t: &mut u32| assert!(*t != 2, "boom");
        // A scoped fan-out re-raises on the caller like the pool does…
        let scoped = catch_unwind(|| PoolScope::scoped(2).run_tasks(vec![0u32, 1, 2, 3], boom));
        let message = panic_message(scoped.expect_err("scoped(2) must re-raise the panic"));
        assert!(message.contains("tick worker panicked: boom"), "{message}");
        // …and the pool's own panic is the one `should_panic` observes.
        let pool = TickWorkerPool::new(2);
        let _ = pool.scope().run_tasks(vec![0u32, 1, 2, 3], boom);
    }

    #[test]
    fn pool_is_reusable_after_a_panicking_phase() {
        let pool = TickWorkerPool::new(4);
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            pool.scope().run_tasks(vec![0u32, 1, 2, 3], |_, t| {
                assert!(*t != 2, "boom");
            })
        }));
        assert!(poisoned.is_err());
        assert_eq!(
            pool.scope().run_tasks(vec![10u32, 20], |_, t| *t += 1),
            vec![11, 21],
            "a panicking phase must not wedge the pool"
        );
    }

    #[test]
    fn drop_joins_all_workers() {
        // Must return promptly rather than hang on parked workers.
        let pool = TickWorkerPool::new(8);
        let _ = pool
            .scope()
            .run_tasks((0..64u64).collect(), |_, t| *t = t.wrapping_mul(7));
        drop(pool);
    }
}
