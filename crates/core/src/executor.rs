//! Pluggable campaign executors.
//!
//! An [`Executor`] turns a [`CampaignPlan`] into one [`IterationResult`]
//! per job. Jobs are independent and fully seeded, so execution order and
//! placement cannot affect the results: [`ParallelExecutor`] produces
//! bit-identical traces to [`SequentialExecutor`] for the same plan (there
//! is a test pinning this). Executors stream every result through a
//! callback as soon as it completes — that is what feeds the
//! [`ResultSink`](crate::sink::ResultSink)s — and return the full result
//! set in plan order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crossbeam::channel::unbounded;

use crate::campaign::{CampaignPlan, IterationJob};
use crate::error::BenchmarkError;
use crate::results::IterationResult;

/// Streaming observer invoked once per completed job, in completion order.
pub type ResultCallback<'a> = dyn FnMut(&IterationJob, &IterationResult) + 'a;

/// A strategy for executing the independent jobs of a campaign plan.
pub trait Executor {
    /// Short human-readable executor name (for logs and reports).
    fn name(&self) -> &'static str;

    /// Runs every job of `plan`, invoking `on_result` as each job
    /// completes, and returns the results in plan order.
    ///
    /// # Errors
    ///
    /// Returns [`BenchmarkError::WorkerPanicked`] when a job panicked
    /// instead of producing a result.
    fn execute(
        &self,
        plan: &CampaignPlan,
        on_result: &mut ResultCallback<'_>,
    ) -> Result<Vec<IterationResult>, BenchmarkError>;
}

/// Runs jobs one after another on the calling thread, in plan order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl Executor for SequentialExecutor {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn execute(
        &self,
        plan: &CampaignPlan,
        on_result: &mut ResultCallback<'_>,
    ) -> Result<Vec<IterationResult>, BenchmarkError> {
        let mut results = Vec::with_capacity(plan.jobs().len());
        for job in plan.jobs() {
            let result = run_job_caught(job)?;
            on_result(job, &result);
            results.push(result);
        }
        Ok(results)
    }
}

/// Runs jobs on a pool of OS threads.
///
/// Iterations derive all their randomness from their per-job seed and share
/// no mutable state, so fan-out is safe: the result set is bit-identical to
/// [`SequentialExecutor`]'s for the same plan, whatever the thread count or
/// scheduling. Results are streamed to the callback in completion order and
/// returned in plan order.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    threads: usize,
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        ParallelExecutor::with_available_parallelism()
    }
}

impl ParallelExecutor {
    /// Uses exactly `threads` worker threads (at least one).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        ParallelExecutor {
            threads: threads.max(1),
        }
    }

    /// Uses one worker per available CPU core.
    #[must_use]
    pub fn with_available_parallelism() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        ParallelExecutor::new(threads)
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Executor for ParallelExecutor {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn execute(
        &self,
        plan: &CampaignPlan,
        on_result: &mut ResultCallback<'_>,
    ) -> Result<Vec<IterationResult>, BenchmarkError> {
        let jobs = plan.jobs();
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        enum Message {
            // Boxed: an IterationResult is hundreds of bytes and the
            // channel otherwise pays that size for every WorkerExited too.
            Job(usize, Box<Result<IterationResult, BenchmarkError>>),
            WorkerExited,
        }
        let workers = self.threads.min(jobs.len());
        let next_job = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let (tx, rx) = unbounded::<Message>();

        let mut slots: Vec<Option<IterationResult>> = Vec::new();
        slots.resize_with(jobs.len(), || None);
        let mut first_error = None;

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let tx = tx.clone();
                let next_job = &next_job;
                let cancelled = &cancelled;
                handles.push(scope.spawn(move || {
                    // A failed job cancels the campaign: workers stop
                    // claiming new jobs instead of burning through the rest
                    // of the plan before the error surfaces.
                    while !cancelled.load(Ordering::Relaxed) {
                        let index = next_job.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else { break };
                        // `run_job_caught` converts panics into errors, so
                        // every claimed job sends exactly one message.
                        let outcome = run_job_caught(job);
                        if tx.send(Message::Job(index, Box::new(outcome))).is_err() {
                            break;
                        }
                    }
                    let _ = tx.send(Message::WorkerExited);
                }));
            }
            drop(tx);
            // Every worker sends exactly one WorkerExited on the way out,
            // so this loop always terminates — with or without cancellation.
            let mut workers_alive = workers;
            while workers_alive > 0 {
                match rx.recv().expect("workers announce their exit") {
                    Message::Job(index, outcome) => match *outcome {
                        Ok(result) => {
                            on_result(&jobs[index], &result);
                            slots[index] = Some(result);
                        }
                        Err(err) => {
                            cancelled.store(true, Ordering::Relaxed);
                            if first_error.is_none() {
                                first_error = Some(err);
                            }
                        }
                    },
                    Message::WorkerExited => workers_alive -= 1,
                }
            }
            // The scope alone waits for the workers' closures, not for the
            // threads to exit: an unjoined worker may still hold its
            // allocator arena when the next campaign's threads start, and
            // they then open new arenas, each of which keeps a dead world's
            // memory resident (peak RSS of a sweep grows by a world per
            // extra arena).
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });

        if let Some(err) = first_error {
            return Err(err);
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every job completed without error"))
            .collect())
    }
}

/// Runs one job, converting a panic inside the simulation into a
/// [`BenchmarkError::WorkerPanicked`] so executors never hang or abort the
/// whole campaign silently.
fn run_job_caught(job: &IterationJob) -> Result<IterationResult, BenchmarkError> {
    catch_unwind(AssertUnwindSafe(|| job.run())).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        BenchmarkError::WorkerPanicked {
            job: job.label(),
            message,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::sink::{NullSink, ResultSink};
    use cloud_sim::environment::Environment;
    use meterstick_workloads::WorkloadKind;
    use mlg_server::ServerFlavor;

    fn equivalence_campaign() -> Campaign {
        // Two workloads × two flavors × two iterations on a cloud
        // environment, so interference randomness is exercised too.
        Campaign::new()
            .workloads([WorkloadKind::Control, WorkloadKind::Players])
            .flavors([ServerFlavor::Vanilla, ServerFlavor::Paper])
            .environments([Environment::aws_default()])
            .iterations(2)
            .duration_secs(2)
            .seed(987_654_321)
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let campaign = equivalence_campaign();
        let sequential = campaign
            .run_with(&SequentialExecutor, &mut NullSink)
            .unwrap();
        let parallel = campaign
            .run_with(&ParallelExecutor::new(4), &mut NullSink)
            .unwrap();
        assert_eq!(sequential.iterations().len(), parallel.iterations().len());
        for (s, p) in sequential.iterations().iter().zip(parallel.iterations()) {
            assert_eq!(s.flavor, p.flavor);
            assert_eq!(s.workload, p.workload);
            assert_eq!(s.iteration, p.iteration);
            // Bit-identical traces: every busy duration equal, not just
            // close.
            assert_eq!(s.trace.busy_durations(), p.trace.busy_durations());
            assert_eq!(s.instability_ratio, p.instability_ratio);
            assert_eq!(s.response_samples, p.response_samples);
            assert_eq!(s.ticks_executed, p.ticks_executed);
        }
    }

    #[test]
    fn parallel_streams_every_job_exactly_once() {
        struct CountingSink {
            seen: Vec<usize>,
        }
        impl ResultSink for CountingSink {
            fn on_result(
                &mut self,
                job: &crate::campaign::IterationJob,
                _result: &crate::results::IterationResult,
            ) {
                self.seen.push(job.index);
            }
        }
        let campaign = equivalence_campaign();
        let mut sink = CountingSink { seen: Vec::new() };
        let results = campaign
            .run_with(&ParallelExecutor::new(3), &mut sink)
            .unwrap();
        assert_eq!(sink.seen.len(), results.iterations().len());
        sink.seen.sort_unstable();
        assert_eq!(
            sink.seen,
            (0..results.iterations().len()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[ignore = "wall-clock timing assertion; flaky on loaded/shared runners — run explicitly \
                with `cargo test -p meterstick -- --ignored` on a quiet >=4-core host"]
    fn parallel_is_measurably_faster_on_multicore_hosts() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        if cores < 4 {
            // The speedup claim only holds with real hardware parallelism;
            // correctness (bit-identical results) is covered above.
            // detlint: allow(no-debug-output) -- skip diagnostic of an ignored, manually-run test
            eprintln!("skipping speedup check: only {cores} core(s) available");
            return;
        }
        let campaign = Campaign::new()
            .workloads([WorkloadKind::Players])
            .flavors([
                ServerFlavor::Vanilla,
                ServerFlavor::Paper,
                ServerFlavor::Forge,
            ])
            .environments([Environment::aws_default()])
            .iterations(4)
            .duration_secs(3);
        // detlint: allow(no-wall-clock) -- substrate timing: the test measures real executor speedup
        let start = std::time::Instant::now();
        let sequential = campaign
            .run_with(&SequentialExecutor, &mut NullSink)
            .unwrap();
        let sequential_elapsed = start.elapsed();
        // detlint: allow(no-wall-clock) -- substrate timing: the test measures real executor speedup
        let start = std::time::Instant::now();
        let parallel = campaign
            .run_with(&ParallelExecutor::new(4), &mut NullSink)
            .unwrap();
        let parallel_elapsed = start.elapsed();
        assert_eq!(sequential.iterations().len(), parallel.iterations().len());
        assert!(
            parallel_elapsed < sequential_elapsed.mul_f64(0.8),
            "expected ≥1.25x speedup on {cores} cores: sequential {sequential_elapsed:?}, parallel {parallel_elapsed:?}"
        );
    }

    #[test]
    fn executor_names_are_stable() {
        assert_eq!(SequentialExecutor.name(), "sequential");
        assert_eq!(ParallelExecutor::new(2).name(), "parallel");
        assert_eq!(
            ParallelExecutor::new(0).threads(),
            1,
            "thread count is clamped"
        );
    }
}
