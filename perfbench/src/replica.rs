//! A cycle-loop replica of `System`, built from the layers' public
//! APIs, that can time every layer call.
//!
//! Each replica cycle calls the core, the three caches, the controller,
//! the response and drain paths, the eager probe and the utility
//! sampler in exactly the order `System::tick` does, so a replica run
//! must reproduce a `System` built with `use_cycle_loop` bit for bit.
//! [`guard`] checks that after every traced run: a replica that drifts
//! from the simulator measures nothing.
//!
//! Timing every call would cost more than the calls (one
//! `Instant::now` is about the size of a whole `Cache::tick`), so a
//! traced replica times one cycle in [`SAMPLE_STRIDE`], times an empty
//! span on each of those cycles, and takes that probe cost off every
//! span it reports.

use crate::stats::ratio;
use mellow_cache::{line_of, AccessId, Cache, CacheStats};
use mellow_cpu::{Core, CoreStats, ReqId, TraceRecord, TraceSource};
use mellow_engine::{CoreCycles, DetRng, SimTime};
use mellow_memctrl::{Controller, CtrlStats};
use mellow_sim::{Experiment, System, SystemConfig};
use mellow_workloads::SyntheticWorkload;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Traced replicas time one cycle in this many. Coprime with the
/// memory-clock divisor (5), so sampled cycles cover every phase of it.
pub const SAMPLE_STRIDE: u64 = 16;

/// The eager-probe RNG stream `System::new` derives from the seed.
const EAGER_STREAM: u64 = 0x000E_A6EE;

/// Host nanoseconds per layer summed over the timed cycles, as read.
/// Every span also reads one clock call long; [`Spans::layer_times`]
/// takes that off using the empty span timed on each cycle.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Cycles that were timed.
    pub cycles: u64,
    /// Timed cycles that were memory-clock edges.
    pub edges: u64,
    /// One empty span per timed cycle: the cost of the probe itself.
    pub empty: f64,
    /// `Core::tick`, nested L1 issues and trace records included.
    pub core_tick: f64,
    /// `Cache::try_demand` calls the core made on timed cycles.
    pub try_demand: f64,
    /// Number of those calls.
    pub try_demand_calls: u64,
    /// `TraceSource::next_record` on timed cycles.
    pub trace_next: f64,
    /// Number of those records.
    pub trace_calls: u64,
    /// `Cache::tick` of L1, L2 and LLC.
    pub cache_tick: [f64; 3],
    /// `Controller::tick` on timed edges (`nvm` and policy time folded in).
    pub ctrl_tick: f64,
    /// The upward response path.
    pub respond: f64,
    /// The six downward drains.
    pub drain: f64,
    /// The Eager Mellow probe block.
    pub eager: f64,
    /// Utility sampling, timed on every cycle that crosses a boundary.
    pub sample: f64,
    /// Number of those timed spans.
    pub sample_spans: u64,
    /// `Cache::sample_utility` calls inside them.
    pub sample_calls: u64,
}

impl Spans {
    /// Host nanoseconds of one empty span.
    pub fn probe_ns(&self) -> f64 {
        ratio(self.empty, self.cycles as f64)
    }

    /// Host time per unit of work of each traced layer, with the probe
    /// cost taken off every span. The core's self time also excludes
    /// its nested spans and the two clock reads each adds inside it.
    pub fn layer_times(&self) -> [(&'static str, f64); 11] {
        let p = self.probe_ns();
        // A layer cheaper than the probe's resolution can read below
        // zero once the probe cost is off; it reads as zero instead.
        let per =
            |sum: f64, spans: u64, units: u64| ratio(sum - spans as f64 * p, units as f64).max(0.0);
        let (c, e) = (self.cycles, self.edges);
        let nested = self.try_demand_calls + self.trace_calls;
        let core_self =
            self.core_tick - self.try_demand - self.trace_next - (nested + c) as f64 * p;
        [
            ("sim.respond_ns_per_cycle", per(self.respond, c, c)),
            ("sim.drain_ns_per_cycle", per(self.drain, c, c)),
            ("memctrl.tick_ns_per_edge", per(self.ctrl_tick, e, e)),
            ("cache.l1.tick_ns_per_cycle", per(self.cache_tick[0], c, c)),
            ("cache.l2.tick_ns_per_cycle", per(self.cache_tick[1], c, c)),
            ("cache.llc.tick_ns_per_cycle", per(self.cache_tick[2], c, c)),
            (
                "cache.l1.try_demand_ns",
                per(
                    self.try_demand,
                    self.try_demand_calls,
                    self.try_demand_calls,
                ),
            ),
            ("cache.llc.eager_probe_ns_per_cycle", per(self.eager, c, c)),
            (
                "cache.llc.sample_ns",
                per(self.sample, self.sample_spans, self.sample_calls),
            ),
            ("cpu.self_ns_per_cycle", ratio(core_self, c as f64).max(0.0)),
            (
                "workloads.next_ns",
                per(self.trace_next, self.trace_calls, self.trace_calls),
            ),
        ]
    }
}

/// The counters the guard compares, from a replica or from `System`.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Core cycles over the measured window.
    pub cycle: CoreCycles,
    /// Simulated time reached.
    pub now: SimTime,
    /// Core counters over the measured window.
    pub core: CoreStats,
    /// L1, L2 and LLC counters over the measured window.
    pub caches: [CacheStats; 3],
    /// Controller counters over the measured window.
    pub ctrl: CtrlStats,
}

impl Snapshot {
    /// Reads the counters of a `System`.
    pub fn of_system(sys: &System) -> Snapshot {
        Snapshot {
            cycle: sys.core().cycles(),
            now: sys.now(),
            core: *sys.core().stats(),
            caches: [*sys.l1().stats(), *sys.l2().stats(), *sys.llc().stats()],
            ctrl: sys.controller().stats().clone(),
        }
    }
}

/// Trace records served, and those timed with their host nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
struct TraceCount {
    records: u64,
    timed: u64,
    ns: f64,
}

/// A `TraceSource` wrapper that counts records and times them while
/// the shared `timing` flag is up.
struct TimedTrace {
    inner: SyntheticWorkload,
    timing: Rc<Cell<bool>>,
    count: Rc<Cell<TraceCount>>,
}

impl TraceSource for TimedTrace {
    fn next_record(&mut self) -> TraceRecord {
        let mut n = self.count.get();
        n.records += 1;
        let r = if self.timing.get() {
            let t = Instant::now();
            let r = self.inner.next_record();
            n.ns += t.elapsed().as_nanos() as f64;
            n.timed += 1;
            r
        } else {
            self.inner.next_record()
        };
        self.count.set(n);
        r
    }
}

/// The wired replica: the same components `System::new` builds.
pub struct Replica {
    cfg: SystemConfig,
    core: Core,
    l1: Cache,
    l2: Cache,
    llc: Cache,
    ctrl: Controller,
    eager_rng: DetRng,
    cycle: CoreCycles,
    now: SimTime,
    next_sample_at: SimTime,
    mem_divisor: u64,
    /// Time one cycle in this many; `None` runs untraced.
    stride: Option<u64>,
    timing: Rc<Cell<bool>>,
    trace_count: Rc<Cell<TraceCount>>,
    spans: Spans,
}

impl Replica {
    /// Wires a replica of `e.build()`. `stride` selects a traced
    /// (`Some`) or untraced (`None`) run.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration, as `System::new` does.
    pub fn new(e: &Experiment, stride: Option<u64>) -> Replica {
        let cfg = e.config().clone();
        cfg.validate();
        let core_ps = cfg.core_clock.period().as_ps();
        let mem_ps = cfg.mem.clock.period().as_ps();
        assert_eq!(mem_ps % core_ps, 0, "memory clock must divide core cycles");
        let timing = Rc::new(Cell::new(false));
        let trace_count = Rc::new(Cell::new(TraceCount::default()));
        let trace = TimedTrace {
            inner: SyntheticWorkload::new(e.workload().clone(), cfg.seed),
            timing: Rc::clone(&timing),
            count: Rc::clone(&trace_count),
        };
        let mut llc = Cache::new(cfg.llc.clone());
        if cfg.policy.base.uses_eager() {
            llc.enable_eager();
        }
        let mut ctrl = Controller::new(cfg.mem.clone(), cfg.policy, cfg.endurance, cfg.cancel_wear);
        if cfg.track_block_wear {
            ctrl.enable_block_tracking();
        }
        Replica {
            core: Core::new(cfg.core, Box::new(trace)),
            l1: Cache::new(cfg.l1.clone()),
            l2: Cache::new(cfg.l2.clone()),
            llc,
            ctrl,
            eager_rng: DetRng::seed_from(cfg.seed).derive(EAGER_STREAM),
            cycle: CoreCycles::ZERO,
            now: SimTime::ZERO,
            next_sample_at: SimTime::ZERO + cfg.sample_period(),
            mem_divisor: mem_ps / core_ps,
            stride,
            timing,
            trace_count,
            spans: Spans::default(),
            cfg,
        }
    }

    /// Runs the experiment's warm-up and measured window, as
    /// `Experiment::run` does.
    pub fn run(&mut self, e: &Experiment) {
        if e.warmup_instructions() > 0 {
            self.run_instructions(e.warmup_instructions());
        }
        self.begin_measurement();
        self.run_instructions(e.measure_instructions());
    }

    /// Ticks until `n` more instructions retire (`System`'s cycle loop).
    ///
    /// # Panics
    ///
    /// Panics past the same no-progress cap as `System::run_instructions`.
    fn run_instructions(&mut self, n: u64) {
        let target = self.core.retired_instructions() + n;
        let cap = self.cycle + CoreCycles::new(400 * n + 10_000_000);
        while self.core.retired_instructions() < target {
            let next = self.cycle + CoreCycles::ONE;
            match self.stride {
                Some(k) if next.count().is_multiple_of(k) => self.tick_timed(),
                _ => self.tick(),
            }
            assert!(self.cycle < cap, "no forward progress after {}", self.cycle);
        }
    }

    /// `System::begin_measurement`.
    fn begin_measurement(&mut self) {
        self.core.reset_stats();
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.ctrl.reset_stats(self.now);
    }

    /// The counters the guard compares.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cycle: self.core.cycles(),
            now: self.now,
            core: *self.core.stats(),
            caches: [*self.l1.stats(), *self.l2.stats(), *self.llc.stats()],
            ctrl: self.ctrl.stats().clone(),
        }
    }

    /// The accumulated layer spans, trace records included.
    pub fn spans(&self) -> Spans {
        let n = self.trace_count.get();
        Spans {
            trace_next: n.ns,
            trace_calls: n.timed,
            ..self.spans.clone()
        }
    }

    /// Core cycles ticked since construction, warm-up included.
    pub fn total_cycles(&self) -> u64 {
        self.cycle.count()
    }

    /// Trace records consumed since construction.
    pub fn records(&self) -> u64 {
        self.trace_count.get().records
    }

    fn advance_clock(&mut self) -> SimTime {
        self.cycle += CoreCycles::ONE;
        self.now = self.cycle.edge(&self.cfg.core_clock);
        self.now
    }

    fn issue(&mut self) {
        let now = self.now;
        let line_bytes = self.cfg.l1.line_bytes;
        let l1 = &mut self.l1;
        self.core.tick(|acc| {
            l1.try_demand(
                AccessId(acc.id.0),
                line_of(acc.addr, line_bytes),
                acc.is_store,
                now,
            )
        });
    }

    fn respond(&mut self) {
        let now = self.now;
        while let Some(id) = self.l1.pop_completion() {
            self.core.complete(ReqId(id.0));
        }
        while let Some(line) = self.l2.pop_fill_up() {
            self.l1.deliver_fill(line, now);
        }
        while let Some(line) = self.llc.pop_fill_up() {
            self.l2.deliver_fill(line, now);
        }
        while let Some(line) = self.ctrl.pop_read_done() {
            self.llc.deliver_fill(line, now);
        }
    }

    fn drain(&mut self) {
        let now = self.now;
        let Self {
            l1, l2, llc, ctrl, ..
        } = self;
        // Writebacks before fetches, level by level, as `System::tick`.
        drain(
            l1,
            Cache::peek_writeback_down,
            Cache::pop_writeback_down,
            |l| l2.try_writeback(l, now),
        );
        drain(l1, Cache::peek_miss_down, Cache::pop_miss_down, |l| {
            l2.try_fetch(l, now)
        });
        drain(
            l2,
            Cache::peek_writeback_down,
            Cache::pop_writeback_down,
            |l| llc.try_writeback(l, now),
        );
        drain(l2, Cache::peek_miss_down, Cache::pop_miss_down, |l| {
            llc.try_fetch(l, now)
        });
        drain(
            llc,
            Cache::peek_writeback_down,
            Cache::pop_writeback_down,
            |l| ctrl.try_write(l, now),
        );
        drain(llc, Cache::peek_miss_down, Cache::pop_miss_down, |l| {
            ctrl.try_read(l, now)
        });
    }

    fn eager(&mut self) {
        if self.cfg.policy.base.uses_eager() && self.llc.input_idle() && self.ctrl.eager_has_room()
        {
            if let Some(line) = self.llc.eager_candidate(&mut self.eager_rng) {
                self.ctrl.try_eager(line, self.now);
            }
        }
    }

    fn sample(&mut self) {
        while self.now >= self.next_sample_at {
            self.llc.sample_utility();
            self.next_sample_at += self.cfg.sample_period();
        }
    }

    /// One untimed cycle, in `System::tick` order. A traced replica
    /// still times the (rare) utility samples.
    fn tick(&mut self) {
        let now = self.advance_clock();
        self.issue();
        self.l1.tick(now);
        self.l2.tick(now);
        self.llc.tick(now);
        if self.cycle.is_multiple_of(self.mem_divisor) {
            self.ctrl.tick(now);
        }
        self.respond();
        self.drain();
        self.eager();
        if self.stride.is_some() {
            self.timed_sample();
        } else {
            self.sample();
        }
    }

    fn timed_sample(&mut self) {
        if self.now >= self.next_sample_at {
            let period = self.cfg.sample_period().as_ps();
            let calls = (self.now.as_ps() - self.next_sample_at.as_ps()) / period + 1;
            let t = Instant::now();
            self.sample();
            self.spans.sample += t.elapsed().as_nanos() as f64;
            self.spans.sample_spans += 1;
            self.spans.sample_calls += calls;
        }
    }

    /// One cycle with every layer call timed. Consecutive clock reads
    /// bound consecutive spans, the first pair bounding nothing.
    fn tick_timed(&mut self) {
        let now = self.advance_clock();
        let line_bytes = self.cfg.l1.line_bytes;
        let l1 = &mut self.l1;
        let (mut demand_ns, mut demand_calls) = (0.0, 0);
        self.timing.set(true);
        let t0 = Instant::now();
        let t1 = Instant::now();
        self.core.tick(|acc| {
            let t = Instant::now();
            let ok = l1.try_demand(
                AccessId(acc.id.0),
                line_of(acc.addr, line_bytes),
                acc.is_store,
                now,
            );
            demand_ns += t.elapsed().as_nanos() as f64;
            demand_calls += 1;
            ok
        });
        let t2 = Instant::now();
        self.timing.set(false);
        self.l1.tick(now);
        let t3 = Instant::now();
        self.l2.tick(now);
        let t4 = Instant::now();
        self.llc.tick(now);
        let t5 = Instant::now();
        let edge = self.cycle.is_multiple_of(self.mem_divisor);
        if edge {
            self.ctrl.tick(now);
        }
        let t6 = Instant::now();
        self.respond();
        let t7 = Instant::now();
        self.drain();
        let t8 = Instant::now();
        self.eager();
        let t9 = Instant::now();

        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
        let s = &mut self.spans;
        s.cycles += 1;
        s.empty += ns(t0, t1);
        s.core_tick += ns(t1, t2);
        s.try_demand += demand_ns;
        s.try_demand_calls += demand_calls;
        s.cache_tick[0] += ns(t2, t3);
        s.cache_tick[1] += ns(t3, t4);
        s.cache_tick[2] += ns(t4, t5);
        if edge {
            s.ctrl_tick += ns(t5, t6);
            s.edges += 1;
        }
        s.respond += ns(t6, t7);
        s.drain += ns(t7, t8);
        s.eager += ns(t8, t9);
        self.timed_sample();
    }
}

/// Drains one output queue into a consumer until it refuses an item.
fn drain(
    src: &mut Cache,
    peek: fn(&Cache) -> Option<u64>,
    pop: fn(&mut Cache) -> Option<u64>,
    mut accept: impl FnMut(u64) -> bool,
) {
    while let Some(item) = peek(src) {
        if !accept(item) {
            break;
        }
        pop(src);
    }
}

/// Builds the cycle-loop oracle for `e` and runs it to completion.
pub fn oracle(e: &Experiment) -> System {
    let e = e.clone().configure(|c| c.use_cycle_loop = true);
    let mut sys = e.build();
    if e.warmup_instructions() > 0 {
        sys.run_instructions(e.warmup_instructions());
    }
    sys.begin_measurement();
    sys.run_instructions(e.measure_instructions());
    sys
}

/// Compares a replica against the oracle and names the first
/// differing counter group.
pub fn guard(replica: &Snapshot, oracle: &Snapshot) -> Result<(), String> {
    let groups: [(&str, bool); 5] = [
        (
            "clock",
            replica.cycle == oracle.cycle && replica.now == oracle.now,
        ),
        ("CoreStats", replica.core == oracle.core),
        ("L1 CacheStats", replica.caches[0] == oracle.caches[0]),
        (
            "L2/LLC CacheStats",
            replica.caches[1..] == oracle.caches[1..],
        ),
        ("CtrlStats", replica.ctrl == oracle.ctrl),
    ];
    match groups.iter().find(|(_, same)| !same) {
        None => Ok(()),
        Some((name, _)) => Err(format!(
            "replica diverged from the cycle-loop oracle in {name}"
        )),
    }
}
