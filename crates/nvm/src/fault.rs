//! Cell-failure modeling: per-block endurance variation, injectable
//! fault sources, and spare-pool accounting.
//!
//! The paper projects lifetime from mean wear rates; nothing in that
//! model ever *fails*. This module supplies the failure substrate the
//! memory controller's write-verify → retry → remap path runs against:
//!
//! * every physical block gets a deterministic endurance limit sampled
//!   lognormally around [`EnduranceModel::base_endurance`] (process
//!   variation), derived lazily from the configured seed so a 16 GiB
//!   memory costs nothing until a block is actually written;
//! * **stuck-at blocks** fail every write from cycle zero (hard faults);
//! * **transient write failures** fire at a configurable per-write rate
//!   (thermal noise / incomplete switching), independent of wear;
//! * a remapped block is backed by a **spare** with a freshly sampled
//!   limit; when a bank's spares run out the block's data is lost and
//!   the bank's usable capacity shrinks.
//!
//! With [`FaultConfig::disabled`] (the default) no [`FaultState`] is
//! ever constructed and the simulator is bit-identical to a build
//! without this module — the additivity guarantee the equivalence
//! oracles assert.

use crate::EnduranceModel;
use mellow_engine::DetRng;
use std::collections::HashMap;

/// Stream ids for [`DetRng::derive`], so fault draws never perturb any
/// other component's sequence.
const STREAM_STUCK: u64 = 0x57_0C_4A;
const STREAM_TRANSIENT: u64 = 0x7_4A_45;
const STREAM_LIMIT: u64 = 0x1_14_17;

/// Configuration of the fault-injection layer.
///
/// Lives in `MemConfig` so every construction path (experiments, sweep
/// cells, direct controller tests) can switch faults on per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master switch. `false` (the default) constructs no fault state
    /// at all: the controller's completion path is bit-identical to a
    /// faultless build.
    pub enabled: bool,
    /// Lognormal sigma of per-block endurance variation around
    /// [`EnduranceModel::base_endurance`]. `0.0` gives every block
    /// exactly the base endurance (no variation).
    pub endurance_sigma: f64,
    /// Probability that any single completed write fails verify for
    /// transient (non-wear) reasons.
    pub transient_rate: f64,
    /// Hard-faulted blocks injected per bank at construction; every
    /// write to one fails verify until it is remapped to a spare.
    pub stuck_at_per_bank: u64,
    /// Seed for all fault-layer draws (limits, stuck-at placement,
    /// transient failures), independent of the system seed.
    pub seed: u64,
}

impl FaultConfig {
    /// The default: no fault layer at all.
    pub fn disabled() -> Self {
        FaultConfig {
            enabled: false,
            endurance_sigma: 0.0,
            transient_rate: 0.0,
            stuck_at_per_bank: 0,
            seed: 0,
        }
    }

    /// Panics on out-of-range parameters.
    ///
    /// # Panics
    ///
    /// Panics if `transient_rate` is outside `[0, 1]` or
    /// `endurance_sigma` is negative or non-finite.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.transient_rate),
            "transient_rate must be in [0, 1], got {}",
            self.transient_rate
        );
        assert!(
            self.endurance_sigma.is_finite() && self.endurance_sigma >= 0.0,
            "endurance_sigma must be finite and non-negative, got {}",
            self.endurance_sigma
        );
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// Verdict of the write-verify step for one completed write pulse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteVerify {
    /// The data latched correctly.
    Ok,
    /// Verify failed (stuck-at, worn out, or transient); the
    /// controller may retry or remap.
    Failed,
    /// The block was already declared lost — its spare pool is
    /// exhausted, so the write is uncorrectable.
    Lost,
}

/// Per-block fault record; created lazily on first write to the block.
#[derive(Debug, Clone, Copy)]
struct BlockFault {
    /// Wear accumulated by the current physical cell group (resets on
    /// remap — the spare is fresh).
    wear: f64,
    /// Sampled endurance limit of the current cell group.
    limit: f64,
    /// Which cell group backs the block: 0 = original, then one per
    /// consumed spare. Part of the limit-sampling stream so spares get
    /// independent limits.
    generation: u64,
    /// Hard fault: every write fails verify regardless of wear.
    stuck: bool,
    /// Spares exhausted; the block's data is lost for good.
    lost: bool,
}

#[derive(Debug, Clone)]
struct BankFaults {
    /// Touched blocks only, keyed by physical block index. Accessed
    /// strictly by key (never iterated) so hash order cannot leak into
    /// simulated behaviour; the aggregate counters below are maintained
    /// incrementally instead.
    blocks: HashMap<u64, BlockFault>,
    spares_remaining: u64,
    lost: u64,
}

/// The fault table: per-bank block health, spare pools, and loss
/// accounting. Owned by the memory controller when faults are enabled.
#[derive(Debug, Clone)]
pub struct FaultState {
    cfg: FaultConfig,
    base_endurance: f64,
    blocks_per_bank: u64,
    spares_per_bank: u64,
    banks: Vec<BankFaults>,
    /// Root of the per-block limit streams (never advanced; children
    /// are derived per `(bank, block, generation)`).
    limit_root: DetRng,
    /// Sequential stream for transient-failure draws, advanced once per
    /// verified write while `transient_rate > 0`.
    transient: DetRng,
}

impl FaultState {
    /// Builds the fault table for `banks` banks of `blocks_per_bank`
    /// physical blocks each, injecting the configured stuck-at faults.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`FaultConfig::validate`], or either
    /// dimension is zero.
    pub fn new(
        cfg: FaultConfig,
        endurance: &EnduranceModel,
        banks: usize,
        blocks_per_bank: u64,
        spares_per_bank: u64,
    ) -> Self {
        cfg.validate();
        assert!(banks > 0, "bank count must be non-zero");
        assert!(blocks_per_bank > 0, "blocks per bank must be non-zero");
        let mut state = FaultState {
            cfg,
            base_endurance: endurance.base_endurance(),
            blocks_per_bank,
            spares_per_bank,
            banks: vec![
                BankFaults {
                    blocks: HashMap::new(),
                    spares_remaining: spares_per_bank,
                    lost: 0,
                };
                banks
            ],
            // `derive` never advances its parent, so deriving each stream
            // from a fresh `seed_from(cfg.seed)` is bit-identical to the
            // former shared root generator.
            limit_root: DetRng::seed_from(cfg.seed).derive(STREAM_LIMIT),
            transient: DetRng::seed_from(cfg.seed).derive(STREAM_TRANSIENT),
        };
        let stuck_per_bank = cfg.stuck_at_per_bank.min(blocks_per_bank);
        let mut stuck_rng = DetRng::seed_from(cfg.seed).derive(STREAM_STUCK);
        for bank in 0..banks {
            let mut placed = 0;
            while placed < stuck_per_bank {
                let block = stuck_rng.below(blocks_per_bank);
                let entry = state.entry(bank, block);
                if !entry.stuck {
                    entry.stuck = true;
                    placed += 1;
                }
            }
        }
        state
    }

    /// The configuration this table was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Physical blocks per bank (including any wear-leveling spare the
    /// caller counts into the space).
    pub fn blocks_per_bank(&self) -> u64 {
        self.blocks_per_bank
    }

    /// Spare blocks each bank's pool started with.
    pub fn spares_per_bank(&self) -> u64 {
        self.spares_per_bank
    }

    /// Unconsumed spares in `bank`'s pool.
    pub fn spares_remaining(&self, bank: usize) -> u64 {
        self.banks[bank].spares_remaining
    }

    /// Unconsumed spares across all banks.
    pub fn total_spares_remaining(&self) -> u64 {
        self.banks.iter().map(|b| b.spares_remaining).sum()
    }

    /// Blocks declared lost (spares exhausted) across all banks.
    pub fn lost_blocks(&self) -> u64 {
        self.banks.iter().map(|b| b.lost).sum()
    }

    /// Fraction of the block space still holding data: `1.0` until the
    /// first uncorrectable loss, shrinking by `1 / total_blocks` per
    /// lost block.
    pub fn usable_fraction(&self) -> f64 {
        let total = self.blocks_per_bank * self.banks.len() as u64;
        1.0 - self.lost_blocks() as f64 / total as f64
    }

    /// Fraction of the block's current cell group's endurance already
    /// consumed, in `[0, 1]`; `0.0` for untouched blocks. The
    /// retention layer uses this to narrow worn cells' drift margins.
    pub fn wear_fraction(&self, bank: usize, block: u64) -> f64 {
        self.banks[bank]
            .blocks
            .get(&block)
            .map_or(0.0, |b| (b.wear / b.limit).clamp(0.0, 1.0))
    }

    /// Records one completed write pulse of `wear` normal-write
    /// equivalents against the block and verifies it.
    ///
    /// Failed attempts wear the cell exactly like successful ones — a
    /// pulse is a pulse — so retry storms age the block they hammer.
    ///
    /// # Panics
    ///
    /// Panics if `block` is outside the bank's block space.
    pub fn verify_write(&mut self, bank: usize, block: u64, wear: f64) -> WriteVerify {
        assert!(
            block < self.blocks_per_bank,
            "block {block} outside bank block space {}",
            self.blocks_per_bank
        );
        let transient_rate = self.cfg.transient_rate;
        let entry = self.entry(bank, block);
        entry.wear += wear;
        if entry.lost {
            return WriteVerify::Lost;
        }
        if entry.stuck || entry.wear >= entry.limit {
            return WriteVerify::Failed;
        }
        if transient_rate > 0.0 && self.transient.chance(transient_rate) {
            return WriteVerify::Failed;
        }
        WriteVerify::Ok
    }

    /// Retires the block's current cell group after verify failure:
    /// consumes a spare (fresh wear, fresh limit, stuck-at cleared) and
    /// returns `true`, or — with the pool empty — declares the block
    /// lost and returns `false`.
    pub fn remap(&mut self, bank: usize, block: u64) -> bool {
        let next_generation = self.banks[bank]
            .blocks
            .get(&block)
            .map_or(1, |b| b.generation + 1);
        let limit = self.sample_limit(bank, block, next_generation);
        let bf = &mut self.banks[bank];
        let entry = bf
            .blocks
            .get_mut(&block)
            .expect("remap only follows a verify failure, which creates the entry");
        if entry.lost {
            return false;
        }
        if bf.spares_remaining == 0 {
            entry.lost = true;
            bf.lost += 1;
            return false;
        }
        bf.spares_remaining -= 1;
        entry.generation = next_generation;
        entry.wear = 0.0;
        entry.limit = limit;
        entry.stuck = false;
        true
    }

    fn entry(&mut self, bank: usize, block: u64) -> &mut BlockFault {
        // Split the sampling out of the closure: the limit stream hangs
        // off `self`, which the entry borrow holds.
        if !self.banks[bank].blocks.contains_key(&block) {
            let limit = self.sample_limit(bank, block, 0);
            self.banks[bank].blocks.insert(
                block,
                BlockFault {
                    wear: 0.0,
                    limit,
                    generation: 0,
                    stuck: false,
                    lost: false,
                },
            );
        }
        self.banks[bank]
            .blocks
            .get_mut(&block)
            .expect("entry inserted above")
    }

    /// The deterministic endurance limit of cell group `generation` at
    /// `(bank, block)`: lognormal around the base endurance,
    /// `exp(sigma·z)` with `z` standard normal. Derivation depends only
    /// on the seed and the coordinates, never on touch order.
    fn sample_limit(&self, bank: usize, block: u64, generation: u64) -> f64 {
        if self.cfg.endurance_sigma == 0.0 {
            return self.base_endurance;
        }
        let mut rng = self
            .limit_root
            .derive(bank as u64)
            .derive(block)
            .derive(generation);
        // Box-Muller; `1 - u` keeps the log argument in (0, 1].
        let u1 = 1.0 - rng.unit_f64();
        let u2 = rng.unit_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.base_endurance * (self.cfg.endurance_sigma * z).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(sigma: f64, transient: f64, stuck: u64) -> FaultConfig {
        FaultConfig {
            enabled: true,
            endurance_sigma: sigma,
            transient_rate: transient,
            stuck_at_per_bank: stuck,
            seed: 0xFA_17,
        }
    }

    fn state(cfg: FaultConfig, spares: u64) -> FaultState {
        FaultState::new(cfg, &EnduranceModel::reram_default(), 4, 64, spares)
    }

    #[test]
    fn disabled_is_the_default() {
        assert_eq!(FaultConfig::default(), FaultConfig::disabled());
        assert!(!FaultConfig::default().enabled);
    }

    #[test]
    #[should_panic(expected = "transient_rate")]
    fn validate_rejects_bad_rate() {
        FaultConfig {
            transient_rate: 1.5,
            ..FaultConfig::disabled()
        }
        .validate();
    }

    #[test]
    fn limits_are_deterministic_and_touch_order_independent() {
        let mut a = state(cfg(0.3, 0.0, 0), 4);
        let mut b = state(cfg(0.3, 0.0, 0), 4);
        // Touch the same blocks in different orders; sampled limits agree.
        for &blk in &[5u64, 17, 3] {
            a.verify_write(0, blk, 1.0);
        }
        for &blk in &[3u64, 5, 17] {
            b.verify_write(0, blk, 1.0);
        }
        for &blk in &[3u64, 5, 17] {
            let la = a.banks[0].blocks[&blk].limit;
            let lb = b.banks[0].blocks[&blk].limit;
            assert_eq!(la, lb, "block {blk}");
        }
    }

    #[test]
    fn sigma_zero_limit_is_exactly_base_endurance() {
        let mut s = state(cfg(0.0, 0.0, 0), 4);
        s.verify_write(1, 9, 1.0);
        assert_eq!(
            s.banks[1].blocks[&9].limit,
            EnduranceModel::reram_default().base_endurance()
        );
    }

    #[test]
    fn lognormal_limits_center_on_base_endurance() {
        let s = state(cfg(0.25, 0.0, 0), 4);
        let base = EnduranceModel::reram_default().base_endurance();
        let mut log_sum = 0.0;
        let n = 2000;
        for block in 0..n {
            log_sum += (s.sample_limit(0, block, 0) / base).ln();
        }
        let mean_log = log_sum / n as f64;
        // E[ln(limit/base)] = 0; sigma/sqrt(n) ~ 0.0056.
        assert!(mean_log.abs() < 0.03, "mean log ratio {mean_log}");
    }

    #[test]
    fn wear_crossing_the_limit_fails_verify() {
        let tiny = EnduranceModel::new(
            mellow_engine::Duration::from_ns(150),
            4.0,
            crate::ExpoFactor::QUADRATIC,
        );
        let mut s = FaultState::new(cfg(0.0, 0.0, 0), &tiny, 1, 8, 2);
        for _ in 0..3 {
            assert_eq!(s.verify_write(0, 0, 1.0), WriteVerify::Ok);
        }
        // The fourth unit of wear reaches the limit of 4.0.
        assert_eq!(s.verify_write(0, 0, 1.0), WriteVerify::Failed);
        assert_eq!(s.verify_write(0, 0, 1.0), WriteVerify::Failed);
    }

    #[test]
    fn stuck_at_blocks_fail_until_remapped() {
        let s = state(cfg(0.0, 0.0, 3), 4);
        for bank in 0..4 {
            let stuck: u64 = (0..64)
                .filter(|b| s.banks[bank].blocks.get(b).is_some_and(|e| e.stuck))
                .count() as u64;
            assert_eq!(stuck, 3, "bank {bank}");
        }
        let mut s = s;
        let block = (0..64)
            .find(|b| s.banks[0].blocks.get(b).is_some_and(|e| e.stuck))
            .expect("bank 0 has stuck blocks");
        assert_eq!(s.verify_write(0, block, 1.0), WriteVerify::Failed);
        assert!(s.remap(0, block));
        assert_eq!(s.verify_write(0, block, 1.0), WriteVerify::Ok);
    }

    #[test]
    fn remap_consumes_spares_then_loses_the_block() {
        let mut s = state(cfg(0.0, 0.0, 1), 2);
        let block = (0..64)
            .find(|b| s.banks[2].blocks.get(b).is_some_and(|e| e.stuck))
            .expect("bank 2 has a stuck block");
        assert_eq!(s.spares_remaining(2), 2);
        assert!(s.remap(2, block));
        assert_eq!(s.spares_remaining(2), 1);
        // Wear the spare out artificially and remap again.
        s.banks[2]
            .blocks
            .get_mut(&block)
            .expect("entry exists")
            .stuck = true;
        assert!(s.remap(2, block));
        assert_eq!(s.spares_remaining(2), 0);
        s.banks[2]
            .blocks
            .get_mut(&block)
            .expect("entry exists")
            .stuck = true;
        assert!(!s.remap(2, block));
        assert!(s.banks[2].blocks[&block].lost, "the block is declared lost");
        assert_eq!(s.lost_blocks(), 1);
        assert_eq!(s.verify_write(2, block, 1.0), WriteVerify::Lost);
        // A second out-of-spares remap cannot double-count the loss.
        assert!(!s.remap(2, block));
        assert_eq!(s.lost_blocks(), 1);
        assert!((s.usable_fraction() - (1.0 - 1.0 / 256.0)).abs() < 1e-12);
    }

    #[test]
    fn spare_generations_get_independent_limits() {
        let s = state(cfg(0.4, 0.0, 0), 4);
        let g0 = s.sample_limit(0, 7, 0);
        let g1 = s.sample_limit(0, 7, 1);
        assert_ne!(g0, g1);
        assert_eq!(g1, s.sample_limit(0, 7, 1));
    }

    #[test]
    fn transient_failures_fire_at_roughly_the_configured_rate() {
        let mut s = state(cfg(0.0, 0.2, 0), 4);
        let mut failures = 0;
        for i in 0..5000u64 {
            if s.verify_write((i % 4) as usize, i % 64, 1e-9) == WriteVerify::Failed {
                failures += 1;
            }
        }
        // 1000 expected; generous band.
        assert!((700..1300).contains(&failures), "failures = {failures}");
    }

    #[test]
    fn wear_fraction_tracks_consumed_endurance() {
        let tiny = EnduranceModel::new(
            mellow_engine::Duration::from_ns(150),
            4.0,
            crate::ExpoFactor::QUADRATIC,
        );
        let mut s = FaultState::new(cfg(0.0, 0.0, 0), &tiny, 1, 8, 2);
        assert_eq!(s.wear_fraction(0, 3), 0.0, "untouched block");
        s.verify_write(0, 3, 1.0);
        assert!((s.wear_fraction(0, 3) - 0.25).abs() < 1e-12);
        for _ in 0..10 {
            s.verify_write(0, 3, 1.0);
        }
        assert_eq!(s.wear_fraction(0, 3), 1.0, "clamped at full wear");
    }

    #[test]
    fn zero_transient_rate_draws_nothing() {
        let mut a = state(cfg(0.0, 0.0, 0), 4);
        let before = a.transient.clone().next_u64();
        for i in 0..100 {
            a.verify_write(0, i % 64, 1e-9);
        }
        assert_eq!(a.transient.clone().next_u64(), before);
    }
}
