//! Property-based tests over the core data structures and invariants.

use mellow_writes::core::{
    decide_write, wear_bound_per_period, BankQueueView, UtilityMonitor, WearQuota, WriteDecision,
    WritePolicy,
};
use mellow_writes::engine::{Clock, Duration, SimTime};
use mellow_writes::nvm::{CancelWear, EnduranceModel, ExpoFactor, StartGap, WearLedger};
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_policy() -> impl Strategy<Value = WritePolicy> {
    (
        0usize..6,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        1.0f64..4.0,
    )
        .prop_map(|(base, nc, sc, wq, factor)| {
            use mellow_writes::core::BasePolicy::*;
            let base = [Norm, Slow, BMellow, BEMellow, ENorm, ESlow][base];
            let mut p = WritePolicy::new(base).with_slow_factor(factor);
            if nc {
                p = p.with_cancel_normal();
            }
            if sc {
                p = p.with_cancel_slow();
            }
            if wq {
                p = p.with_wear_quota();
            }
            p
        })
}

proptest! {
    /// Start-Gap's mapping is a permutation of the logical lines into
    /// the physical lines for every reachable register state.
    #[test]
    fn startgap_remap_is_injective(n in 1u64..200, moves in 0u32..500) {
        let mut sg = StartGap::new(n, 1);
        for _ in 0..moves {
            sg.move_gap();
        }
        let mut seen = HashSet::new();
        for l in 0..n {
            let p = sg.remap(l);
            prop_assert!(p < sg.physical_lines());
            prop_assert!(seen.insert(p), "collision at logical {l}");
        }
    }

    /// The moved (physically written) line reported by a gap move is
    /// always a valid physical index, and overhead accounting counts
    /// exactly the moves.
    #[test]
    fn startgap_overhead_counts_moves(n in 2u64..100, writes in 0u32..5_000) {
        let mut sg = StartGap::new(n, 100);
        for _ in 0..writes {
            if let Some(written) = sg.note_write() {
                prop_assert!(written < sg.physical_lines());
            }
        }
        prop_assert_eq!(sg.overhead_writes(), (writes / 100) as u64);
    }

    /// The Figure 9 decision tree is total and consistent: demand
    /// decisions appear exactly when demand writes wait; eager decisions
    /// only for an idle bank with eager work; quota forces slow.
    #[test]
    fn decision_tree_total_and_quota_forces_slow(
        policy in arb_policy(),
        reads in 0usize..5,
        writes in 0usize..5,
        eager in 0usize..5,
        quota in any::<bool>(),
    ) {
        let view = BankQueueView {
            reads_waiting: reads,
            writes_waiting: writes,
            eager_waiting: eager,
            quota_exceeded: quota,
        };
        match decide_write(&policy, view) {
            WriteDecision::Demand(speed) => {
                prop_assert!(writes > 0);
                if quota {
                    prop_assert_eq!(speed, mellow_writes::core::WriteSpeed::Slow);
                }
            }
            WriteDecision::Eager(speed) => {
                prop_assert_eq!(writes, 0);
                prop_assert_eq!(reads, 0);
                prop_assert!(eager > 0);
                if quota {
                    prop_assert_eq!(speed, mellow_writes::core::WriteSpeed::Slow);
                }
            }
            WriteDecision::Idle => {
                prop_assert!(writes == 0);
                prop_assert!(eager == 0 || reads > 0);
            }
        }
    }

    /// Endurance model: wear x endurance-gain = 1 for any valid factor
    /// and exponent (they are exact reciprocals by Eq. 2).
    #[test]
    fn endurance_wear_reciprocity(factor in 1.0f64..10.0, expo in 1.0f64..3.0) {
        let m = EnduranceModel::reram_default()
            .with_expo_factor(ExpoFactor::new(expo).unwrap());
        let product = m.wear_per_write(factor) * m.endurance_at_factor(factor)
            / m.base_endurance();
        prop_assert!((product - 1.0).abs() < 1e-9);
    }

    /// Slower writes never wear more, and endurance never decreases
    /// with latency (monotonicity of Eq. 2).
    #[test]
    fn endurance_monotone(f1 in 1.0f64..10.0, f2 in 1.0f64..10.0) {
        let m = EnduranceModel::reram_default();
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(m.wear_per_write(hi) <= m.wear_per_write(lo) + 1e-12);
        prop_assert!(m.endurance_at_factor(hi) + 1e-9 >= m.endurance_at_factor(lo));
    }

    /// Ledger wear equals the sum of per-write wear contributions.
    #[test]
    fn ledger_wear_additive(ops in proptest::collection::vec((0usize..4, 1.0f64..4.0), 0..200)) {
        let model = EnduranceModel::reram_default();
        let mut ledger = WearLedger::new(4, model, CancelWear::Prorated);
        let mut expect = [0.0f64; 4];
        for (bank, factor) in ops {
            ledger.record_write(bank, None, factor);
            expect[bank] += model.wear_per_write(factor);
        }
        for (bank, want) in expect.iter().enumerate() {
            prop_assert!((ledger.bank(bank).total_wear - want).abs() < 1e-9);
        }
    }

    /// Wear-ledger invariants under arbitrary interleavings of
    /// completed writes, cancelled attempts, slow writes, and leveling
    /// writes: per-bank wear is monotone non-decreasing, the per-block
    /// table always sums back to the bank totals, and prorated cancel
    /// charges never exceed what the pessimistic full-pulse policy
    /// would charge (nor undercut the optimistic free policy).
    #[test]
    fn ledger_sequences_keep_wear_invariants(
        ops in proptest::collection::vec(
            (0u8..4, 0usize..4, 0u64..8, 1.0f64..4.0, 0.0f64..1.0),
            0..200,
        ),
    ) {
        const BLOCKS: u64 = 8;
        let model = EnduranceModel::reram_default();
        let mk = |cw: CancelWear| {
            WearLedger::new(4, model, cw).with_block_tracking(BLOCKS)
        };
        let mut prorated = mk(CancelWear::Prorated);
        let mut full = mk(CancelWear::Full);
        let mut free = mk(CancelWear::None);
        let mut prev = [0.0f64; 4];
        for (op, bank, block, factor, fraction) in ops {
            for l in [&mut prorated, &mut full, &mut free] {
                match op {
                    0 => l.record_write(bank, Some(block), 1.0),
                    1 => l.record_write(bank, Some(block), factor),
                    2 => l.record_cancelled(bank, Some(block), factor, fraction),
                    _ => l.record_leveling_write(bank, Some(block)),
                }
            }

            // Monotonicity: no operation may ever reduce a bank's wear.
            for (b, p) in prev.iter_mut().enumerate() {
                let now = prorated.bank(b).total_wear;
                prop_assert!(now + 1e-12 >= *p, "bank {b} wear decreased");
                *p = now;
            }

            // The block table is a refinement of the bank totals.
            let table = prorated.block_table().unwrap();
            for b in 0..4 {
                let sum: f64 = (0..BLOCKS).map(|blk| table.get(b, blk)).sum();
                prop_assert!(
                    (sum - prorated.bank(b).total_wear).abs() < 1e-9,
                    "bank {b}: block sum {sum} != total {}",
                    prorated.bank(b).total_wear
                );
            }

            // Prorated cancels are bracketed by the Full and None policies.
            for b in 0..4 {
                prop_assert!(
                    prorated.bank(b).total_wear <= full.bank(b).total_wear + 1e-12,
                    "bank {b}: prorated charged more than a full pulse"
                );
                prop_assert!(
                    free.bank(b).total_wear <= prorated.bank(b).total_wear + 1e-12,
                    "bank {b}: prorated charged less than a free cancel"
                );
            }
        }
    }

    /// A bank that never exceeds its cumulative allowance is never
    /// restricted; one that does is restricted until it falls back
    /// under.
    #[test]
    fn quota_restriction_matches_cumulative_allowance(
        increments in proptest::collection::vec(0.0f64..30.0, 1..60),
    ) {
        let bound = wear_bound_per_period(5e6, 1 << 20, Duration::from_us(500), 0.9);
        let mut q = WearQuota::new(bound, 1);
        let mut cum = 0.0;
        for inc in increments {
            cum += inc;
            q.start_period(&[cum]);
            let allowance = bound * q.periods() as f64;
            prop_assert_eq!(q.exceeded(0), cum > allowance);
        }
    }

    /// The utility monitor's eager position is the *smallest* position
    /// whose tail contributes under the threshold.
    #[test]
    fn monitor_eager_position_is_minimal(
        hits in proptest::collection::vec(0u64..200, 1..16),
        misses in 0u64..500,
    ) {
        let assoc = hits.len();
        let mut m = UtilityMonitor::new(assoc);
        for (pos, &n) in hits.iter().enumerate() {
            for _ in 0..n {
                m.record_hit(pos);
            }
        }
        for _ in 0..misses {
            m.record_miss();
        }
        let total: u64 = hits.iter().sum::<u64>() + misses;
        prop_assume!(total > 0);
        let p = m.sample();
        let tail = |from: usize| hits[from..].iter().sum::<u64>();
        if p < assoc {
            prop_assert!(tail(p) * 32 < total);
        }
        if p > 0 && p <= assoc {
            // One position earlier would break the threshold (or p == assoc
            // and even the empty tail... p == assoc means hits[assoc..] = 0
            // which trivially satisfies; minimality then requires that
            // tail(assoc-1) fails the threshold.)
            let q = p - 1;
            if q < assoc {
                prop_assert!(tail(q) * 32 >= total);
            }
        }
    }

    /// Duration scaling round-trips with the latency factors used by the
    /// policies (within one picosecond of rounding).
    #[test]
    fn duration_scale_consistent(ns in 1u64..1_000_000, factor in 1.0f64..4.0) {
        let d = Duration::from_ns(ns);
        let scaled = d.scale(factor);
        let expect = (ns as f64 * 1000.0 * factor).round();
        prop_assert!((scaled.as_ps() as f64 - expect).abs() <= 1.0);
    }

    /// The memory controller's indexed per-bank queues issue in exactly
    /// the order of the legacy shared-FIFO scan layout: for any policy,
    /// bank count and request stream, every counter, the wear total, and
    /// the final queue occupancies agree bit for bit. The indexed layout
    /// visits only the banks its masks mark; the scan layout visits every
    /// bank, so this also checks the masks against a full visit, up to
    /// the 64-bank limit of a `u64` mask.
    #[test]
    fn controller_queue_layouts_equivalent(
        policy in arb_policy(),
        shape in 0usize..4,
        ops in proptest::collection::vec((0u8..12, 0u64..1024), 0..300),
    ) {
        use mellow_writes::memctrl::{Controller, MemConfig};

        let (banks, ranks) = [(4, 1), (8, 2), (16, 4), (64, 16)][shape];
        let run = |scan: bool| {
            let mut cfg = MemConfig::paper_default().with_banks(banks, ranks);
            cfg.capacity_bytes = 1 << 22; // small: dense bank/line collisions
            cfg.sample_period = Duration::from_us(2);
            cfg.use_scan_queues = scan;
            let mut c = Controller::new(
                cfg,
                policy,
                EnduranceModel::reram_default(),
                CancelWear::Prorated,
            );
            let mut cyc = 1u64;
            let tick = |c: &mut Controller, cyc: &mut u64| {
                c.tick(SimTime::from_ps(*cyc * 2500));
                *cyc += 1;
            };
            for &(op, line) in &ops {
                for _ in 0..op % 4 {
                    tick(&mut c, &mut cyc);
                }
                let now = SimTime::from_ps(cyc * 2500);
                match op % 3 {
                    0 => {
                        c.try_read(line, now);
                    }
                    1 => {
                        c.try_write(line, now);
                    }
                    _ => {
                        if c.eager_has_room() {
                            c.try_eager(line, now);
                        }
                    }
                }
            }
            // Drain: long enough for every queued request to retire.
            for _ in 0..4_000 {
                tick(&mut c, &mut cyc);
            }
            (
                c.stats().clone(),
                c.queue_depths(),
                format!("{:?} {:?}", c.ledger().total_wear(), c.energy()),
            )
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// The jump loop reproduces the cycle loop bit for bit for any Table IV workload, policy, and
    /// seed (`SystemConfig::use_cycle_loop` is the oracle).
    #[test]
    fn system_tick_loops_equivalent(
        policy in arb_policy(),
        wl in 0usize..16,
        seed in any::<u64>(),
    ) {
        use mellow_writes::sim::Experiment;
        use mellow_writes::workloads::WorkloadSpec;

        let names = WorkloadSpec::names();
        let name = names[wl % names.len()].clone();
        let run = |cycle_loop: bool| {
            let mut spec = WorkloadSpec::by_name(&name).unwrap();
            spec.avg_interval = (spec.avg_interval / 8.0).max(2.0);
            spec.working_set_bytes = spec.working_set_bytes.min(8 << 20);
            let (metrics, work) = Experiment::with_spec(spec, policy)
                .warmup(2_000)
                .instructions(4_000)
                .seed(seed)
                .configure(move |c| {
                    c.l1.size_bytes = 4 << 10;
                    c.l2.size_bytes = 16 << 10;
                    c.llc.size_bytes = 64 << 10;
                    c.mem.capacity_bytes = 1 << 24;
                    c.mem.sample_period = Duration::from_us(2);
                    c.use_cycle_loop = cycle_loop;
                })
                .run_with_work();
            // The loops also agree on the eager stream's position and on
            // the controller edges that did work.
            (metrics.to_json().to_string(), work.eager_probes, work.ctrl_worked_edges)
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// The jump loop reproduces the cycle-loop oracle bit for bit under
    /// randomized system shapes: controller queue depths (and drain
    /// thresholds derived from them), eager policies, the memory-clock
    /// divisor, and the utility-monitor sample period. This is the
    /// 256-case sweep guarding the jump decision (controller-edge
    /// alignment, sample-boundary clamping, and the draw-by-draw
    /// eager-probe RNG replay).
    #[test]
    fn jump_loop_equivalent_under_random_configs(
        policy in arb_policy(),
        wl in 0usize..16,
        seed in any::<u64>(),
        read_cap in 4usize..24,
        write_cap in 8usize..40,
        eager_cap in 2usize..20,
        div_idx in 0usize..5,
        sample_us in 1u64..5,
    ) {
        use mellow_writes::sim::Experiment;
        use mellow_writes::workloads::WorkloadSpec;

        let names = WorkloadSpec::names();
        let name = names[wl % names.len()].clone();
        // Memory clocks that divide the 2 GHz core clock evenly.
        let mem_mhz = [1000u64, 500, 400, 250, 200][div_idx];
        let run = |cycle_loop: bool| {
            let mut spec = WorkloadSpec::by_name(&name).unwrap();
            spec.avg_interval = (spec.avg_interval / 8.0).max(2.0);
            spec.working_set_bytes = spec.working_set_bytes.min(8 << 20);
            Experiment::with_spec(spec, policy)
                .warmup(2_000)
                .instructions(4_000)
                .seed(seed)
                .configure(move |c| {
                    c.l1.size_bytes = 4 << 10;
                    c.l2.size_bytes = 16 << 10;
                    c.llc.size_bytes = 64 << 10;
                    c.mem.capacity_bytes = 1 << 24;
                    c.mem.clock = Clock::from_mhz(mem_mhz);
                    c.mem.sample_period = Duration::from_us(sample_us);
                    c.mem.read_queue_cap = read_cap;
                    c.mem.write_queue_cap = write_cap;
                    c.mem.eager_queue_cap = eager_cap;
                    c.mem.drain_high = write_cap;
                    c.mem.drain_low = write_cap / 2;
                    c.use_cycle_loop = cycle_loop;
                })
                .run()
                .to_json()
                .to_string()
        };
        prop_assert_eq!(run(true), run(false));
    }
}
