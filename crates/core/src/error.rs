//! Non-panicking error type for benchmark orchestration.
//!
//! Everything reachable from [`crate::campaign::Campaign::run`] reports
//! invalid configuration and execution failures through [`BenchmarkError`]
//! instead of panicking.

/// An error raised while planning or executing a benchmark campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchmarkError {
    /// One of the sweep dimensions is empty, so the factorial plan would
    /// contain no jobs.
    EmptyDimension {
        /// Which dimension was empty: an
        /// [`Axis::name`](crate::campaign::Axis::name) or `"iterations"`.
        dimension: &'static str,
    },
    /// A scalar configuration parameter is out of its valid range.
    InvalidParameter {
        /// The offending parameter, e.g. `"duration_secs"`.
        parameter: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// A worker thread of a parallel executor panicked while running a job.
    WorkerPanicked {
        /// Human-readable label of the job that was running.
        job: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for BenchmarkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchmarkError::EmptyDimension { dimension } => {
                write!(f, "campaign sweep dimension {dimension:?} is empty")
            }
            BenchmarkError::InvalidParameter { parameter, reason } => {
                write!(f, "invalid {parameter}: {reason}")
            }
            BenchmarkError::WorkerPanicked { job, message } => {
                write!(f, "worker panicked while running {job}: {message}")
            }
        }
    }
}

impl std::error::Error for BenchmarkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let err = BenchmarkError::EmptyDimension {
            dimension: "workloads",
        };
        assert!(err.to_string().contains("workloads"));
        let err = BenchmarkError::InvalidParameter {
            parameter: "duration_secs",
            reason: "must be at least 1".into(),
        };
        assert!(err.to_string().contains("duration_secs"));
    }
}
