//! Deployment-environment simulator for the Meterstick reproduction.
//!
//! The paper runs its experiments on two commercial clouds (AWS T3 and Azure
//! Dv3 instances) and on DAS-5, a dedicated compute cluster. Since real cloud
//! accounts are outside the scope of this reproduction, this crate models the
//! *performance-relevant* behaviour of those environments:
//!
//! * [`node`] — node types (vCPU count, clock speed, burstable CPU credits)
//!   matching the instance sizes used in the paper (t3.large/xlarge/2xlarge,
//!   Standard_D2_v3, DAS-5 nodes);
//! * [`interference`] — stochastic interference: CPU-steal bursts, noisy
//!   neighbour episodes, per-iteration placement heterogeneity, scheduler
//!   jitter, and burstable-credit throttling;
//! * [`environment`] — named environments (AWS, Azure, DAS-5) combining a node
//!   with an interference profile;
//! * [`engine`] — the virtual-time compute engine converting abstract work
//!   units produced by the game server into milliseconds of tick time;
//! * [`metrics_collector`] — the system-level metrics sampler (Table 5);
//! * [`recommendations`] — the hosting-provider hardware recommendations of
//!   Table 7;
//! * [`temporal`] — non-stationary (diurnal + day-of-week) tenancy: the
//!   seeded noisy-neighbour point process and the `start_time` dimension.
//!
//! The cloud models are calibrated to reproduce the *shape* of the paper's
//! findings (clouds are more variable than self-hosting; 2-vCPU nodes are
//! insufficient; larger nodes tame variability) rather than absolute numbers,
//! as documented in `DESIGN.md`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod environment;
pub mod interference;
pub mod metrics_collector;
pub mod node;
pub mod recommendations;
pub mod temporal;

pub use engine::ComputeEngine;
pub use environment::{Environment, EnvironmentInstance, Provider};
pub use interference::{InterferenceProfile, InterferenceState};
pub use node::NodeType;
pub use temporal::{StartTime, TemporalProfile, TenancyProcess};
