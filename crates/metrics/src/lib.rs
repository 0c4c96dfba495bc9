//! Performance-variability metrics for Minecraft-like games.
//!
//! This crate implements the metric layer of the Meterstick benchmark
//! (Sections 3.5 and 4 of the paper):
//!
//! * the novel **Instability Ratio (ISR)** — a normalized sum of
//!   cycle-to-cycle jitter over a trace of game ticks ([`isr`]), together
//!   with the closed-form analytical model used in the paper's Figure 6;
//! * **tick traces** and their summary statistics ([`trace`], [`stats`]);
//! * the **comparison metrics** of Table 6 — standard deviation, Allan
//!   variance and RFC 3550 smoothed jitter ([`compare`]);
//! * **game response time** with the Noticeable-Delay and Unplayable-Game
//!   thresholds ([`response`]);
//! * the **tick-time distribution** across workload operations
//!   ([`distribution`]), used by Figure 11;
//! * **windowed streaming aggregation** for long-horizon campaigns
//!   ([`windowed`]): per-window mean/CoV/percentiles plus horizon-wide
//!   cumulative aggregates, memory flat with horizon.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod distribution;
pub mod isr;
pub mod response;
pub mod stats;
pub mod trace;
pub mod windowed;

pub use distribution::{TickDistribution, TickOperation};
pub use isr::{analytical_isr, instability_ratio, IsrParams};
pub use response::{ResponseTimeSummary, NOTICEABLE_DELAY_MS, UNPLAYABLE_MS};
pub use stats::{BoxplotSummary, Percentiles};
pub use trace::{TickRecord, TickTrace};
pub use windowed::{WindowSummary, WindowedAggregator, WindowedReport};
