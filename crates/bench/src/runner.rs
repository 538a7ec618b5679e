//! Scale-aware experiment construction.

use mellow_core::WritePolicy;
use mellow_sim::Experiment;
use mellow_workloads::{UnknownWorkload, WorkloadSpec};

/// How much simulation to spend per `(workload, policy)` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Instructions in the measured window.
    pub measure: u64,
    /// Minimum warm-up instructions.
    pub min_warmup: u64,
    /// Warm-up is extended so the workload misses the LLC at least this
    /// many times its line count (the LLC must fill before dirty
    /// evictions — i.e. memory writes — reach steady state).
    pub llc_fills: f64,
    /// Wear-Quota / utility-monitor sample period, scaled down with the
    /// instruction window so quota dynamics span many periods.
    pub sample_period: mellow_engine::Duration,
}

impl Scale {
    /// The default scale: quick enough for a laptop-class sweep while
    /// past warm-up transients.
    pub fn quick() -> Self {
        Scale {
            measure: 400_000,
            min_warmup: 200_000,
            llc_fills: 1.2,
            sample_period: mellow_engine::Duration::from_us(40),
        }
    }

    /// The publication scale used for EXPERIMENTS.md numbers.
    pub fn full() -> Self {
        Scale {
            measure: 2_000_000,
            min_warmup: 500_000,
            llc_fills: 1.5,
            sample_period: mellow_engine::Duration::from_us(100),
        }
    }

    /// A smoke-test scale for CI: just enough simulation to exercise
    /// every code path in seconds. Not meaningful for paper artifacts.
    pub fn tiny() -> Self {
        Scale {
            measure: 60_000,
            min_warmup: 30_000,
            llc_fills: 0.05,
            sample_period: mellow_engine::Duration::from_us(10),
        }
    }
}

/// Builds the standard paper-configuration experiment for `(workload,
/// policy)` at `scale`, with MPKI-aware warm-up, or returns an
/// [`UnknownWorkload`] error listing the valid Table IV names.
pub fn try_experiment_for(
    workload: &str,
    policy: WritePolicy,
    scale: Scale,
) -> Result<Experiment, UnknownWorkload> {
    let spec = WorkloadSpec::try_by_name(workload)?;
    Ok(Experiment::with_spec(spec, policy)
        .warmup(scale.min_warmup)
        .warmup_llc_fills(scale.llc_fills)
        .instructions(scale.measure)
        .configure(|c| {
            c.mem.sample_period = scale.sample_period;
        }))
}

/// Identifies one cell of a run matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixKey {
    /// Workload name.
    pub workload: String,
    /// Policy (display form is used for report lookups).
    pub policy: WritePolicy,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_builder_wires_policy() {
        let e = try_experiment_for("stream", WritePolicy::be_mellow_sc(), Scale::quick()).unwrap();
        assert_eq!(e.config().policy, WritePolicy::be_mellow_sc());
        assert_eq!(e.workload().name, "stream");
    }

    #[test]
    fn unknown_workload_lists_presets() {
        let err = try_experiment_for("nope", WritePolicy::norm(), Scale::quick()).unwrap_err();
        assert_eq!(err.requested, "nope");
        assert!(err.to_string().contains("lbm"));
    }
}
