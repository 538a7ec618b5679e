//! Host-performance benchmark of the Mellow Writes simulator.
//!
//! The `mellow-perfbench` binary runs one named workload for a fixed
//! host-time budget, checks every simulated result against the
//! cycle-loop oracle, and prints the end-to-end metrics (untraced) or
//! the per-layer metrics (traced replica). See `README.md` beside this
//! package for the workloads, the metrics and the layer each one
//! belongs to.

pub mod metrics;
pub mod replica;
pub mod stats;
pub mod workload;
