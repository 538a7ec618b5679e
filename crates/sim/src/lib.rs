//! Full-system simulator for the Mellow Writes reproduction.
//!
//! Wires together the trace-driven core (`mellow-cpu`), the three-level
//! cache hierarchy (`mellow-cache`), the resistive memory controller
//! (`mellow-memctrl`), and the synthetic workloads
//! (`mellow-workloads`), and runs the paper's warm-up-then-measure
//! methodology to produce a [`Metrics`] row per `(workload, policy)`
//! pair — the atoms every table and figure of the evaluation is built
//! from.
//!
//! # Examples
//!
//! ```no_run
//! use mellow_core::WritePolicy;
//! use mellow_sim::Experiment;
//!
//! let metrics = Experiment::try_new("stream", WritePolicy::be_mellow_sc())
//!     .unwrap()
//!     .instructions(200_000)
//!     .warmup(50_000)
//!     .run();
//! println!("IPC {:.3}, lifetime {:.1} years", metrics.ipc, metrics.lifetime_years);
//! ```

mod config;
mod experiment;
mod metrics;
mod system;

pub use config::SystemConfig;
pub use experiment::Experiment;
pub use mellow_workloads::UnknownWorkload;
pub use metrics::Metrics;
pub use system::{SimStats, System};
