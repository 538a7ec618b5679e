//! Criterion micro-benchmarks for the simulator's hot paths.
//!
//! These measure the cost of the data structures the cycle loop leans
//! on (LRU stacks, the LLC's eager probe, Start-Gap remapping, the
//! utility monitor, the controller tick and its worked edge, the core
//! tick). End-to-end throughput of the wired system and the sweep's
//! per-cell key cost are perfbench's (`perfbench/`), measured with
//! repeats. These guard the simulator's own performance, not the
//! paper's results — those come from the `figures` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use mellow_core::{UtilityMonitor, WritePolicy};
use mellow_engine::{DetRng, SimTime};
use mellow_memctrl::{Controller, MemConfig};
use mellow_nvm::{CancelWear, EnduranceModel, StartGap};
use mellow_workloads::{SyntheticWorkload, WorkloadSpec};
use std::hint::black_box;

fn bench_lru(c: &mut Criterion) {
    use mellow_cache::LruSet;
    c.bench_function("lru_set_probe_touch_16way", |b| {
        let mut set = LruSet::new(16);
        for t in 0..16 {
            set.insert(t);
        }
        let mut i = 0u64;
        b.iter(|| {
            let tag = i % 16;
            i += 1;
            if set.probe(tag).is_some() {
                set.touch(tag);
            }
            black_box(set.len())
        });
    });
}

/// Ticks `llc` until its input queue is empty, filling every miss at
/// once and discarding what it sends up or down.
fn settle(llc: &mut mellow_cache::Cache, now: &mut SimTime) {
    while !llc.input_idle() {
        *now += mellow_engine::Duration::from_ps(500);
        llc.tick(*now);
        while let Some(line) = llc.pop_miss_down() {
            llc.deliver_fill(line, *now);
        }
        while llc.pop_fill_up().is_some() {}
        while llc.pop_writeback_down().is_some() {}
    }
}

fn bench_llc_eager_probe(c: &mut Criterion) {
    use mellow_cache::{Cache, CacheConfig};
    // The common idle-LLC probe: the drawn set holds dirty lines, but
    // none at or below the monitor's useless-position cut, so the probe
    // rejects. Every set of a Table I LLC holds 8 dirty lines at
    // positions 0..8 over 8 clean ones, and the cut sits at 8.
    c.bench_function("llc_eager_probe_reject", |b| {
        let mut llc = Cache::new(CacheConfig::llc());
        llc.enable_eager();
        let sets = llc.config().num_sets();
        let mut now = SimTime::ZERO;
        for set in 0..sets {
            for tag in 0..8 {
                assert!(llc.try_fetch(tag * sets + set, now));
            }
            settle(&mut llc, &mut now);
            for tag in 8..16 {
                assert!(llc.try_writeback(tag * sets + set, now));
            }
            settle(&mut llc, &mut now);
        }
        llc.sample_utility();
        // Rewriting the dirty lines oldest first hits each at position 7
        // and restores the order: no hits past 7 puts the cut at 8.
        for set in 0..sets {
            for tag in 8..16 {
                assert!(llc.try_writeback(tag * sets + set, now));
            }
            settle(&mut llc, &mut now);
        }
        assert_eq!(llc.sample_utility(), Some(8));
        let mut rng = DetRng::seed_from(4);
        b.iter(|| black_box(llc.eager_candidate(&mut rng)));
        assert_eq!(llc.stats().eager_issued, 0, "every probe rejects");
    });
}

fn bench_startgap(c: &mut Criterion) {
    c.bench_function("startgap_remap", |b| {
        let mut sg = StartGap::new(1 << 24, 100);
        for _ in 0..5000 {
            sg.note_write();
        }
        let mut l = 0u64;
        b.iter(|| {
            l = (l + 977) % (1 << 24);
            black_box(sg.remap(l))
        });
    });
}

fn bench_monitor(c: &mut Criterion) {
    c.bench_function("utility_monitor_record_and_sample", |b| {
        let mut m = UtilityMonitor::new(16);
        let mut i = 0usize;
        b.iter(|| {
            m.record_hit(i % 16);
            i += 1;
            if i.is_multiple_of(1000) {
                black_box(m.sample());
            }
        });
    });
}

fn bench_endurance(c: &mut Criterion) {
    c.bench_function("endurance_wear_per_write", |b| {
        let m = EnduranceModel::reram_default();
        let mut f = 1.0f64;
        b.iter(|| {
            f = if f > 2.9 { 1.0 } else { f + 0.1 };
            black_box(m.wear_per_write(f))
        });
    });
}

fn traffic_controller(scan: bool) -> Controller {
    let mut cfg = MemConfig::paper_default();
    cfg.capacity_bytes = 1 << 26;
    cfg.use_scan_queues = scan;
    Controller::new(
        cfg,
        WritePolicy::be_mellow_sc(),
        EnduranceModel::reram_default(),
        CancelWear::Prorated,
    )
}

fn bench_controller_tick(c: &mut Criterion) {
    // Same request stream against both queue layouts: `_scan` is the
    // legacy shared-FIFO baseline, the unsuffixed bench the indexed
    // per-bank layout the controller now defaults to.
    for (name, scan) in [
        ("controller_tick_with_traffic", false),
        ("controller_tick_with_traffic_scan", true),
    ] {
        c.bench_function(name, |b| {
            let mut ctrl = traffic_controller(scan);
            let mut rng = DetRng::seed_from(3);
            let mut cycle = 0u64;
            b.iter(|| {
                cycle += 1;
                let now = SimTime::from_ps(cycle * 2500);
                if cycle.is_multiple_of(4) {
                    let _ = ctrl.try_read(rng.below(1 << 18), now);
                }
                if cycle.is_multiple_of(16) {
                    let _ = ctrl.try_write(rng.below(1 << 18), now);
                }
                ctrl.tick(now);
                black_box(ctrl.pop_read_done())
            });
        });
    }
    // Ticks with nothing queued or in flight: the indexed path's
    // next-actionable skip should make these near-free, which is what
    // lets the system loop coast through memory-idle stretches.
    c.bench_function("controller_tick_idle", |b| {
        let mut ctrl = traffic_controller(false);
        let mut cycle = 0u64;
        b.iter(|| {
            cycle += 1;
            ctrl.tick(SimTime::from_ps(cycle * 2500));
            black_box(ctrl.pop_read_done())
        });
    });
}

fn bench_controller_worked_edge(c: &mut Criterion) {
    // Only edges on which the controller works: a 16-bank controller is
    // kept loaded by a deterministic stream (a read whenever fewer than
    // 8 wait, a demand write whenever fewer than 12, an eager write
    // whenever fewer than 4), and each iteration ticks the first edge
    // at or past `next_event()`, as the jump loop does. Perfbench's
    // `memctrl.tick_ns_per_edge` averages these with fast-path edges.
    const EDGE_PS: u64 = 2500;
    c.bench_function("controller_worked_edge", |b| {
        let mut ctrl = traffic_controller(false);
        let mut rng = DetRng::seed_from(5);
        let mut cycle = 0u64;
        b.iter(|| {
            let now = SimTime::from_ps(cycle * EDGE_PS);
            let (reads, writes, eager) = ctrl.queue_depths();
            if reads < 8 {
                ctrl.try_read(rng.below(1 << 18), now);
            }
            if writes < 12 {
                ctrl.try_write(rng.below(1 << 18), now);
            }
            if eager < 4 && ctrl.eager_has_room() {
                ctrl.try_eager(rng.below(1 << 18), now);
            }
            let due = ctrl.next_event().map_or(0, |t| t.as_ps().div_ceil(EDGE_PS));
            cycle = due.max(cycle + 1);
            ctrl.tick(SimTime::from_ps(cycle * EDGE_PS));
            while ctrl.pop_read_done().is_some() {}
            black_box(ctrl.worked_edges())
        });
        assert_eq!(ctrl.fast_path_edges(), 0, "every timed edge is worked");
    });
}

fn bench_core_tick(c: &mut Criterion) {
    use mellow_cpu::{Core, CoreConfig, ReqId};
    // A bare core on hmmer's trace, whose hot set stays in the L1: each
    // accepted access completes two ticks after the one that issued it,
    // so this times the core's own retire/dispatch/issue/complete work
    // per tick with no hierarchy behind it.
    c.bench_function("core_tick_hot_l1", |b| {
        let spec = WorkloadSpec::try_by_name("hmmer").unwrap();
        let trace = SyntheticWorkload::new(spec, 1);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        // Slot `t % 2` holds the accesses issued at tick `t - 2`.
        let mut issued: [Vec<ReqId>; 2] = Default::default();
        let mut t = 0usize;
        b.iter(|| {
            let slot = &mut issued[t % 2];
            for id in slot.drain(..) {
                core.complete(id);
            }
            core.tick(|access| {
                slot.push(access.id);
                true
            });
            t += 1;
            black_box(core.rob_occupancy())
        });
    });
}

criterion_group!(
    benches,
    bench_lru,
    bench_llc_eager_probe,
    bench_startgap,
    bench_monitor,
    bench_endurance,
    bench_controller_tick,
    bench_controller_worked_edge,
    bench_core_tick,
);
criterion_main!(benches);
