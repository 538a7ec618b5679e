//! The benchmark's workloads: which Table IV cells each one simulates,
//! on how many threads, and which stored keys its warm replay reads.
//!
//! Every workload is a small sweep. The three simulation workloads run
//! one cell on one thread and replay their own row of the `figures
//! main` matrix; `sweep-matrix` runs a cold multi-cell [`Sweep`] and
//! replays the whole `figures main` key set.

use mellow_bench::figures::main_cells;
use mellow_bench::{try_experiment_for, Cell, Scale};
use mellow_core::WritePolicy;
use mellow_engine::Duration;
use mellow_sim::{Experiment, SystemConfig};

/// One simulated cell: a Table IV workload under a policy, with an
/// optional configuration edit.
#[derive(Debug, Clone, Copy)]
pub struct SimCell {
    /// Table IV workload name.
    pub workload: &'static str,
    /// Write policy.
    pub policy: WritePolicy,
    /// Configuration edit applied after the scale defaults.
    pub edit: Option<fn(&mut SystemConfig)>,
}

impl SimCell {
    const fn new(workload: &'static str, policy: WritePolicy) -> SimCell {
        SimCell {
            workload,
            policy,
            edit: None,
        }
    }

    /// The experiment this cell runs at `scale` under `seed`, built the
    /// way `Sweep` builds a cell.
    ///
    /// # Panics
    ///
    /// Panics if the workload is not a Table IV name.
    pub fn experiment(&self, scale: Scale, seed: u64) -> Experiment {
        let mut e = try_experiment_for(self.workload, self.policy, scale)
            .expect("benchmark cells use Table IV names")
            .seed(seed);
        if let Some(edit) = self.edit {
            e = e.configure(edit);
        }
        e
    }

    /// The same cell as a [`Sweep`] cell.
    pub fn sweep_cell(&self, seed: u64) -> Cell {
        let cell = Cell::new(self.workload, self.policy).with_seed(seed);
        match self.edit {
            Some(edit) => cell.with_edit(edit),
            None => cell,
        }
    }
}

/// A named benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Cells of the cold run, simulated on every repetition.
    pub cells: Vec<SimCell>,
    /// Scale of the cold run.
    pub scale: Scale,
    /// Worker threads of the cold run.
    pub threads: usize,
    /// The cell the traced replica runs.
    pub replica_cell: usize,
}

impl Workload {
    /// Whether the cold run is a multi-cell [`Sweep`].
    pub fn is_sweep(&self) -> bool {
        self.cells.len() > 1
    }

    /// The cells the warm replay reads back, at the `figures main`
    /// default (quick) scale: the whole matrix for a sweep, else the
    /// row of the simulated workload.
    pub fn replay_cells(&self) -> Vec<Cell> {
        let all = main_cells();
        if self.is_sweep() {
            return all;
        }
        let w = self.cells[0].workload;
        all.into_iter().filter(|c| c.workload == w).collect()
    }
}

/// Every workload name, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["gups-mellow", "lbm-quota", "hmmer-resident", "sweep-matrix"];

/// Wear, fault and retention settings of the sweep's scrub cell, after
/// `figures retention` (1 MiB device so the scrubber revisits blocks).
fn retention_and_scrub(c: &mut SystemConfig) {
    c.mem.capacity_bytes = 1 << 20;
    c.mem.retention.enabled = true;
    c.mem.retention.base_retention = Duration::from_us(10);
    c.mem.retention.drift_sigma = 0.3;
    c.mem.retention.slow_write_boost = 2.0;
    c.mem.retention.wear_sensitivity = 1.0;
    c.mem.scrub_interval = Duration::from_ns(200);
    c.mem.fault.enabled = true;
    c.mem.fault.endurance_sigma = 0.25;
    c.mem.fault.transient_rate = 0.02;
    c.mem.max_write_retries = 1;
    c.mem.set_spares_per_bank(4);
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    let single = |name, cell, scale| Workload {
        name,
        cells: vec![cell],
        scale,
        threads: 1,
        replica_cell: 0,
    };
    match name {
        // A full LLC fill of warm-up at quick scale: ~4.8 M instructions.
        "gups-mellow" => Some(single(
            "gups-mellow",
            SimCell::new("gups", WritePolicy::be_mellow_sc()),
            Scale::quick(),
        )),
        "lbm-quota" => Some(single(
            "lbm-quota",
            SimCell::new("lbm", WritePolicy::be_mellow_sc().with_wear_quota()),
            Scale::quick(),
        )),
        // hmmer's working set stays in L1, so a full LLC fill (~24 M
        // instructions at MPKI 1.35) would only lengthen the run; a
        // tenth of one keeps a repetition near the others' length.
        "hmmer-resident" => Some(single(
            "hmmer-resident",
            SimCell::new("hmmer", WritePolicy::be_mellow_sc()),
            Scale {
                llc_fills: 0.1,
                ..Scale::quick()
            },
        )),
        "sweep-matrix" => {
            let mut cells = Vec::new();
            for w in ["stream", "mcf", "milc", "libquantum"] {
                for p in [
                    WritePolicy::norm(),
                    WritePolicy::be_mellow_sc().with_wear_quota(),
                ] {
                    cells.push(SimCell::new(w, p));
                }
            }
            cells.push(SimCell {
                edit: Some(retention_and_scrub),
                ..SimCell::new("gups", WritePolicy::be_mellow_sc())
            });
            Some(Workload {
                name: "sweep-matrix",
                replica_cell: cells.len() - 1,
                cells,
                scale: Scale::tiny(),
                threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            })
        }
        _ => None,
    }
}
