//! # Meterstick
//!
//! A benchmark for **performance variability** in cloud and self-hosted
//! Minecraft-like games (MLGs), reproducing the ISPASS 2022 paper
//! *"Meterstick: Benchmarking Performance Variability in Cloud and
//! Self-hosted Minecraft-like Games"* (Eickhoff, Donkervliet, Iosup) on top
//! of a fully simulated substrate: an MLG server, player emulation, and
//! deployment-environment models for AWS, Azure and dedicated hardware.
//!
//! The crate orchestrates everything the paper's benchmark does:
//!
//! * [`campaign`] — the one way to declare an experiment: factorial sweeps
//!   over the axes of [`campaign::Axis`] (workloads × environments ×
//!   flavors × …) × iterations, expanded into independent, seeded jobs;
//! * [`executor`] — pluggable execution strategies: sequential or
//!   thread-based parallel fan-out with bit-identical results;
//! * [`sink`] — streaming observers that consume results as they complete
//!   (CSV rows, progress lines) instead of materializing everything;
//! * [`error`] — the non-panicking [`BenchmarkError`] every orchestration
//!   path reports through;
//! * [`config`] — the per-job configuration record a plan produces
//!   (Table 4);
//! * [`experiment`] — single-iteration execution;
//! * [`results`] — per-iteration and aggregate results, including the
//!   Instability Ratio;
//! * [`report`] — plain-text tables and CSV output for every figure and
//!   table in the paper's evaluation.
//!
//! # Quickstart
//!
//! The paper's evaluation is a *matrix* of experiments; a [`Campaign`]
//! declares the whole matrix and runs it in one call:
//!
//! ```
//! use meterstick::campaign::Campaign;
//! use meterstick_workloads::WorkloadKind;
//! use mlg_server::ServerFlavor;
//! use cloud_sim::environment::Environment;
//!
//! // Two workloads × two flavors × one environment × two iterations.
//! let results = Campaign::new()
//!     .workloads([WorkloadKind::Control, WorkloadKind::Players])
//!     .flavors([ServerFlavor::Vanilla, ServerFlavor::Paper])
//!     .environments([Environment::das5(2)])
//!     .duration_secs(3)
//!     .iterations(2)
//!     .run()
//!     .expect("the campaign configuration is valid");
//! assert_eq!(results.iterations().len(), 8);
//! for cell in results.cell_summaries() {
//!     assert!(cell.mean_isr >= 0.0 && cell.mean_isr <= 1.0);
//! }
//! ```
//!
//! Iterations are seed-deterministic and independent, so the same campaign
//! can fan out across threads — and stream results as they complete:
//!
//! ```
//! use meterstick::campaign::Campaign;
//! use meterstick::executor::ParallelExecutor;
//! use meterstick::sink::CsvSink;
//! use meterstick_workloads::WorkloadKind;
//! use mlg_server::ServerFlavor;
//! use cloud_sim::environment::Environment;
//!
//! let campaign = Campaign::new()
//!     .workloads([WorkloadKind::Control])
//!     .flavors([ServerFlavor::Vanilla])
//!     .environments([Environment::das5(2)])
//!     .duration_secs(2);
//! let mut csv = CsvSink::new(Vec::new());
//! let results = campaign
//!     .run_with(&ParallelExecutor::default(), &mut csv)
//!     .expect("valid campaign");
//! let rows = String::from_utf8(csv.into_inner()).unwrap();
//! assert_eq!(rows.lines().count(), 1 + results.iterations().len());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod config;
pub mod error;
pub mod executor;
pub mod experiment;
pub mod report;
pub mod results;
pub mod sink;

pub use campaign::{Campaign, CampaignPlan, CampaignResults, IterationJob};
pub use config::BenchmarkConfig;
pub use error::BenchmarkError;
pub use executor::{Executor, ParallelExecutor, SequentialExecutor};
pub use experiment::{execute_iteration_observed, NoopTickObserver, TickObserver};
pub use results::IterationResult;
pub use sink::{CsvSink, JsonlSink, NullSink, ProgressSink, ResultSink, TickSample};
