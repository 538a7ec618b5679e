//! The wired full system and its tick loop.

use crate::{Metrics, SystemConfig};
use mellow_cache::{line_of, AccessId, Cache};
use mellow_cpu::{Core, CoreStall, ReqId, TraceSource};
use mellow_engine::{CoreCycles, DetRng, SimTime};
use mellow_memctrl::Controller;

/// Drains one output queue into a consumer: items transfer in order
/// until `try_accept` reports the consumer full (backpressure). `peek`
/// and `pop` describe the queue on `src`; `pop` must remove the item
/// `peek` returned.
///
/// Every inter-level transfer in [`System::tick`] is an instance of
/// this loop, so the two tick loops share a single drain
/// implementation.
fn drain<S, T>(
    src: &mut S,
    peek: impl Fn(&S) -> Option<T>,
    pop: impl Fn(&mut S) -> Option<T>,
    mut try_accept: impl FnMut(T) -> bool,
) {
    while let Some(item) = peek(src) {
        if !try_accept(item) {
            break;
        }
        pop(src);
    }
}

/// Deterministic work counters of the tick loops, from construction or
/// the last [`System::begin_measurement`]: what the simulator did, not
/// what the simulated hardware did. They sit outside [`Metrics`]
/// because the two loops do different work for bit-identical results.
///
/// [`Metrics`]: crate::Metrics
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// [`System::tick`] calls: core cycles simulated one at a time.
    pub executed_ticks: u64,
    /// Jumps over provably idle spans.
    pub jumps: u64,
    /// Core cycles those jumps covered without a tick. With
    /// `executed_ticks` they add up to the core's cycle count.
    pub skipped_cycles: CoreCycles,
    /// RNG draws made by LLC eager probes, whether ticked or replayed
    /// by a jump ([`Cache::eager_probes`]). The same under both loops:
    /// it is the eager stream's position.
    pub eager_probes: u64,
    /// Ticked memory-clock edges on which the controller ran past its
    /// fast path ([`Controller::worked_edges`]). The same under both
    /// loops, since a jump only skips edges the fast path would take.
    pub ctrl_worked_edges: u64,
    /// Ticked memory-clock edges that took the controller's fast path
    /// ([`Controller::fast_path_edges`]); jumped edges are not ticked.
    pub ctrl_fast_path_edges: u64,
}

/// The complete simulated system: core → L1 → L2 → LLC → memory
/// controller → ReRAM banks.
///
/// Construction wires the components; [`tick`](Self::tick) advances one
/// core cycle (500 ps), moving requests down the hierarchy and
/// responses back up, ticking the memory controller on every fifth core
/// cycle (400 MHz), probing for Eager Mellow Write candidates while the
/// LLC is idle, and sampling the utility monitor every `T_sample`.
/// [`run_instructions`](Self::run_instructions) additionally jumps
/// over provably idle spans (see DESIGN.md §5), producing
/// bit-identical results to the pure cycle loop.
///
/// Most users should drive it through
/// [`Experiment`](crate::Experiment), which adds the paper's
/// warm-up/measure protocol.
pub struct System {
    cfg: SystemConfig,
    core: Core,
    l1: Cache,
    l2: Cache,
    llc: Cache,
    ctrl: Controller,
    eager_rng: DetRng,
    cycle: CoreCycles,
    now: SimTime,
    measure_start: SimTime,
    next_sample_at: SimTime,
    /// Core cycles per memory cycle (5 for 2 GHz / 400 MHz).
    mem_divisor: u64,
    sim_stats: SimStats,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cycle", &self.cycle)
            .field("now", &self.now)
            .field("policy", &self.cfg.policy)
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a system running `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent (see
    /// [`SystemConfig::validate`]) or the memory clock period is not a
    /// multiple of the core clock period.
    pub fn new(cfg: SystemConfig, trace: Box<dyn TraceSource>) -> Self {
        cfg.validate();
        let core_ps = cfg.core_clock.period().as_ps();
        let mem_ps = cfg.mem.clock.period().as_ps();
        assert_eq!(
            mem_ps % core_ps,
            0,
            "memory clock must divide evenly into core cycles"
        );
        let core = Core::new(cfg.core, trace);
        let l1 = Cache::new(cfg.l1.clone());
        let l2 = Cache::new(cfg.l2.clone());
        let mut llc = Cache::new(cfg.llc.clone());
        if cfg.policy.base.uses_eager() {
            llc.enable_eager();
        }
        let mut ctrl = Controller::new(cfg.mem.clone(), cfg.policy, cfg.endurance, cfg.cancel_wear);
        if cfg.track_block_wear {
            ctrl.enable_block_tracking();
        }
        let eager_rng = DetRng::seed_from(cfg.seed).derive(0x000E_A6EE);
        let next_sample_at = SimTime::ZERO + cfg.sample_period();
        System {
            core,
            l1,
            l2,
            llc,
            ctrl,
            eager_rng,
            cycle: CoreCycles::ZERO,
            now: SimTime::ZERO,
            measure_start: SimTime::ZERO,
            next_sample_at,
            mem_divisor: mem_ps / core_ps,
            sim_stats: SimStats::default(),
            cfg,
        }
    }

    /// Returns the current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Returns the core (for inspection).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Returns the LLC (for inspection).
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// Returns the L1 data cache (for inspection).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// Returns the L2 cache (for inspection).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Returns the memory controller (for inspection).
    pub fn controller(&self) -> &Controller {
        &self.ctrl
    }

    /// Returns the tick loops' work counters (see [`SimStats`]).
    pub fn sim_stats(&self) -> SimStats {
        SimStats {
            eager_probes: self.llc.eager_probes(),
            ctrl_worked_edges: self.ctrl.worked_edges(),
            ctrl_fast_path_edges: self.ctrl.fast_path_edges(),
            ..self.sim_stats
        }
    }

    /// Advances the system by one core cycle.
    pub fn tick(&mut self) {
        self.sim_stats.executed_ticks += 1;
        self.cycle += CoreCycles::ONE;
        self.now = self.cycle.edge(&self.cfg.core_clock);
        let now = self.now;

        // Core: retire, dispatch, and issue memory ops into the L1.
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

        self.l1.tick(now);
        self.l2.tick(now);
        self.llc.tick(now);
        if self.cycle.is_multiple_of(self.mem_divisor) {
            self.ctrl.tick(now);
        }

        // Responses upward.
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

        // Requests downward. Writebacks drain before fetches so that an
        // eviction of line X followed by a re-fetch of X observes the
        // write.
        let Self {
            l1, l2, llc, ctrl, ..
        } = self;
        let (wb, miss) = (Cache::peek_writeback_down, Cache::peek_miss_down);
        let (pop_wb, pop_miss) = (Cache::pop_writeback_down, Cache::pop_miss_down);
        drain(l1, wb, pop_wb, |line| l2.try_writeback(line, now));
        drain(l1, miss, pop_miss, |line| l2.try_fetch(line, now));
        drain(l2, wb, pop_wb, |line| llc.try_writeback(line, now));
        drain(l2, miss, pop_miss, |line| llc.try_fetch(line, now));
        drain(llc, wb, pop_wb, |line| ctrl.try_write(line, now));
        drain(llc, miss, pop_miss, |line| ctrl.try_read(line, now));

        // Eager Mellow Writes: any idle-LLC cycle with room in the Eager
        // Mellow queue, probe one random set for a useless dirty line.
        if self.cfg.policy.base.uses_eager() && self.llc.input_idle() && self.ctrl.eager_has_room()
        {
            if let Some(line) = self.llc.eager_candidate(&mut self.eager_rng) {
                self.ctrl.try_eager(line, now);
            }
        }

        // Utility-monitor sampling every T_sample. A `while`, not an
        // `if`: should one tick ever cross two boundaries (a sub-cycle
        // sample period, or a fast-forward landing past one), every
        // elapsed period still gets its sample.
        while self.now >= self.next_sample_at {
            self.llc.sample_utility();
            self.next_sample_at += self.cfg.sample_period();
        }
    }

    /// Jumps `cycle`/`now` to one cycle before the earliest next event,
    /// replaying the per-cycle side effects the skipped no-op ticks
    /// would have had. Called after a completed [`tick`](Self::tick);
    /// does nothing unless every component is provably idle past the
    /// next cycle.
    ///
    /// The skipped span is a no-op by construction — each component's
    /// `next_event` hook promises it cannot act before the jump target,
    /// new input can only originate from a component that acts, and the
    /// remaining per-cycle effects are replayed exactly: the blocked
    /// core's cycle/stall counters (and its one doomed issue attempt
    /// per cycle against a full L1), MSHR-stall ticks, the controller's
    /// round-robin rotation on skipped memory-clock edges, and one
    /// eager-probe RNG draw per idle-LLC cycle. Sampling boundaries
    /// clamp the jump, so no `T_sample` period is merged or skipped.
    fn fast_forward(&mut self) {
        let stall = self.core.stall();
        match stall {
            CoreStall::Active => return,
            CoreStall::Blocked => {}
            // The blocked core re-attempts one issue per cycle; that is
            // only a batchable no-op (one L1 input rejection per cycle)
            // while the L1 input queue stays full.
            CoreStall::BlockedWantsIssue => {
                if !self.l1.input_full() {
                    return;
                }
            }
        }
        // In-flight inter-level transfers retry every cycle.
        if self.l1.has_pending_transfers()
            || self.l2.has_pending_transfers()
            || self.llc.has_pending_transfers()
        {
            return;
        }

        let clock = self.cfg.core_clock;
        // First core cycle whose edge is at or past `t`.
        let cycle_at = |t: SimTime| CoreCycles::at_or_after(t, &clock);

        // The jump clamps at the next utility-monitor sample boundary.
        let mut next = cycle_at(self.next_sample_at);
        for cache in [&self.l1, &self.l2, &self.llc] {
            if let Some(t) = cache.next_event(self.now) {
                next = next.min(cycle_at(t));
            }
        }
        if let Some(t) = self.ctrl.next_event() {
            // The controller acts on the first memory-clock edge at or
            // past its horizon (and no earlier than the next cycle).
            let c = cycle_at(t).max(self.cycle + CoreCycles::ONE);
            next = next.min(c.next_multiple_of(self.mem_divisor));
        }
        if next <= self.cycle + CoreCycles::ONE {
            return; // something acts on the very next cycle
        }
        let skip_to = next - CoreCycles::ONE;

        let start = self.cycle;
        let mut c = skip_to;
        // An idle LLC probes one random set per cycle for an eager
        // writeback candidate. Replay the skipped probes draw for draw;
        // a successful probe enqueues the eager write — which re-arms
        // the controller — so it truncates the jump at that cycle.
        if self.cfg.policy.base.uses_eager()
            && self.llc.input_idle()
            && self.ctrl.eager_has_room()
            && self
                .llc
                .eager_position()
                .is_some_and(|p| p < self.cfg.llc.assoc)
        {
            c = start;
            while c < skip_to {
                c += CoreCycles::ONE;
                if let Some(line) = self.llc.eager_candidate(&mut self.eager_rng) {
                    self.ctrl.try_eager(line, c.edge(&clock));
                    break;
                }
            }
        }
        let skipped = c - start;
        self.core.fast_forward(skipped);
        if stall == CoreStall::BlockedWantsIssue {
            self.l1.fast_forward_rejected_inputs(skipped);
        }
        for cache in [&mut self.l1, &mut self.l2, &mut self.llc] {
            if cache.head_stalled_on_mshrs(self.now) {
                cache.fast_forward_stalled(skipped);
            }
        }
        self.ctrl
            .fast_forward_idle(c.to_mem(self.mem_divisor) - start.to_mem(self.mem_divisor));
        self.cycle = c;
        self.now = c.edge(&clock);
        self.sim_stats.jumps += 1;
        self.sim_stats.skipped_cycles += skipped;
    }

    /// Runs until `n` more instructions retire.
    ///
    /// By default, after each tick, provably idle spans are jumped
    /// directly to one cycle before the earliest next event — a cache
    /// input head coming due, the controller's actionable memory-clock
    /// edge, or the utility-monitor sample boundary — batch-replaying
    /// the skipped ticks' side effects (the jump loop,
    /// `System::fast_forward`).
    /// [`SystemConfig::use_cycle_loop`] selects the oracle that ticks
    /// every cycle instead; it produces bit-identical results and
    /// survives for the equivalence tests.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to retire them within `400 × n + 10⁷`
    /// cycles (a deadlock would otherwise spin forever).
    pub fn run_instructions(&mut self, n: u64) {
        let jump = !self.cfg.use_cycle_loop;
        let target = self.core.retired_instructions() + n;
        let cycle_cap = self.cycle + CoreCycles::new(400 * n + 10_000_000);
        while self.core.retired_instructions() < target {
            self.tick();
            // Never jump past the tick that retires the final
            // instruction: the loops must exit at the same cycle.
            if jump && self.core.retired_instructions() < target {
                self.fast_forward();
            }
            assert!(
                self.cycle < cycle_cap,
                "no forward progress: {} of {} instructions after {}",
                self.core.retired_instructions(),
                target,
                self.cycle
            );
        }
    }

    /// Marks the end of warm-up: zeroes every counter while keeping all
    /// microarchitectural state (cache contents, queues, monitor
    /// decisions, Start-Gap registers).
    pub fn begin_measurement(&mut self) {
        self.core.reset_stats();
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.ctrl.reset_stats(self.now);
        self.sim_stats = SimStats::default();
        self.measure_start = self.now;
    }

    /// Builds the metrics row for the measured window.
    pub fn metrics(&self, workload: &str) -> Metrics {
        Metrics::collect(
            workload,
            &self.cfg,
            &self.core,
            &self.llc,
            &self.ctrl,
            self.now,
            self.now.saturating_since(self.measure_start),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mellow_core::WritePolicy;
    use mellow_cpu::{MemOp, TraceRecord};
    use mellow_engine::Duration;

    /// A deterministic random-access trace (GUPS-like when `stride` is
    /// 0: independent loads over a large working set).
    struct Synth {
        lcg: u64,
        store_every: u64,
        n: u64,
    }

    impl Synth {
        fn new(seed: u64, store_every: u64) -> Box<Self> {
            Box::new(Synth {
                lcg: seed | 1,
                store_every,
                n: 0,
            })
        }
    }

    impl TraceSource for Synth {
        fn next_record(&mut self) -> TraceRecord {
            self.lcg = self
                .lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.n += 1;
            let addr = (self.lcg >> 11) % (64 << 20);
            let op = if self.store_every > 0 && self.n.is_multiple_of(self.store_every) {
                MemOp::store(addr)
            } else {
                MemOp::load(addr)
            };
            TraceRecord {
                nonmem: (self.lcg >> 7) as u32 % 3,
                op: Some(op),
            }
        }
    }

    fn nonmem_trace() -> Box<dyn TraceSource> {
        struct Compute;
        impl TraceSource for Compute {
            fn next_record(&mut self) -> TraceRecord {
                TraceRecord {
                    nonmem: 8,
                    op: None,
                }
            }
        }
        Box::new(Compute)
    }

    /// Small caches and memory so the loop-equivalence tests stress
    /// misses, MSHR stalls, and backpressure in few instructions.
    fn scaled_config(policy: WritePolicy) -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(policy);
        cfg.l1.size_bytes = 4 << 10;
        cfg.l2.size_bytes = 16 << 10;
        cfg.llc.size_bytes = 64 << 10;
        cfg.mem.capacity_bytes = 1 << 26;
        cfg.mem.sample_period = Duration::from_us(2);
        cfg
    }

    #[test]
    fn sampling_catches_up_when_a_tick_crosses_two_boundaries() {
        // A 300 ps sample period makes every 500 ps tick cross at least
        // one boundary and some ticks cross two; the `while` loop must
        // fire once per elapsed period with no drift.
        let mut cfg = SystemConfig::paper_default(WritePolicy::norm());
        cfg.mem.sample_period = Duration::from_ps(300);
        let mut sys = System::new(cfg, nonmem_trace());
        for _ in 0..3 {
            sys.tick();
        }
        // now = 1500 ps: boundaries at 300/600/900/1200/1500 have all
        // fired, so the next one is 1800 ps.
        assert_eq!(sys.next_sample_at, SimTime::from_ps(1800));
    }

    /// Runs the same trace under both loops (cycle oracle, jump loop)
    /// and asserts bit-identical metrics and internal clocks.
    fn assert_loops_identical(policy: WritePolicy, store_every: u64, instructions: u64) {
        let run = |cycle_loop: bool| {
            let mut cfg = scaled_config(policy);
            cfg.use_cycle_loop = cycle_loop;
            let mut sys = System::new(cfg, Synth::new(0xDECAF, store_every));
            sys.run_instructions(instructions / 2);
            sys.begin_measurement();
            sys.run_instructions(instructions / 2);
            (
                sys.cycle,
                sys.now,
                sys.metrics("synth").to_json().to_string(),
            )
        };
        let (slow_cycle, slow_now, slow) = run(true);
        let (ff_cycle, ff_now, ff) = run(false);
        assert_eq!(slow_cycle, ff_cycle, "fast-forward diverged in cycles");
        assert_eq!(slow_now, ff_now);
        assert_eq!(slow, ff, "fast-forward diverged in metrics");
    }

    #[test]
    fn fast_forward_matches_cycle_loop_on_stalling_loads() {
        assert_loops_identical(WritePolicy::norm(), 0, 30_000);
    }

    #[test]
    fn fast_forward_matches_cycle_loop_with_stores_and_cancellation() {
        assert_loops_identical(WritePolicy::be_mellow_sc().with_wear_quota(), 4, 30_000);
    }

    #[test]
    fn fast_forward_matches_cycle_loop_under_eager_probing() {
        // `BEMellow` bases probe the LLC every idle cycle, drawing one
        // RNG value each — the batch replay must reproduce the stream.
        use mellow_core::BasePolicy;
        assert_loops_identical(WritePolicy::new(BasePolicy::BEMellow), 6, 30_000);
    }

    #[test]
    fn fast_forward_skips_cycles_on_a_stall_heavy_trace() {
        // On independent random loads the core is head-blocked most
        // cycles, so the jump loop must cover more cycles by jumping
        // than by ticking.
        let mut cfg = scaled_config(WritePolicy::norm());
        cfg.use_cycle_loop = false;
        let mut sys = System::new(cfg, Synth::new(0xDECAF, 0));
        sys.run_instructions(20_000);
        let work = sys.sim_stats();
        assert!(
            work.skipped_cycles > CoreCycles::new(work.executed_ticks),
            "random loads should be mostly jumped: {work:?}"
        );
    }

    #[test]
    fn executed_and_skipped_cycles_add_up_to_core_cycles() {
        for cycle_loop in [true, false] {
            let mut cfg = scaled_config(WritePolicy::be_mellow_sc());
            cfg.use_cycle_loop = cycle_loop;
            let mut sys = System::new(cfg, Synth::new(0xBEEF, 5));
            sys.run_instructions(5_000);
            sys.begin_measurement();
            assert_eq!(sys.sim_stats(), SimStats::default());
            sys.run_instructions(10_000);
            let work = sys.sim_stats();
            assert_eq!(
                CoreCycles::new(work.executed_ticks) + work.skipped_cycles,
                sys.core().stats().cycles,
                "cycle loop: {cycle_loop}, {work:?}"
            );
            if cycle_loop {
                assert_eq!(work.jumps, 0);
                assert_eq!(work.skipped_cycles, CoreCycles::ZERO);
            } else {
                assert!(work.jumps > 0, "{work:?}");
            }
        }
    }

    #[test]
    fn eager_probes_and_worked_edges_match_across_loops() {
        // The jump loop replays skipped probes draw for draw and skips
        // only edges the controller would fast-path, so both counts pin
        // the loops to the same eager stream and the same controller work.
        use mellow_core::BasePolicy;
        let run = |cycle_loop: bool| {
            let mut cfg = scaled_config(WritePolicy::new(BasePolicy::BEMellow));
            cfg.use_cycle_loop = cycle_loop;
            let mut sys = System::new(cfg, Synth::new(0xF00D, 6));
            sys.run_instructions(10_000);
            sys.begin_measurement();
            sys.run_instructions(20_000);
            sys.sim_stats()
        };
        let (ticked, jumped) = (run(true), run(false));
        assert!(ticked.eager_probes > 0, "{ticked:?}");
        assert_eq!(ticked.eager_probes, jumped.eager_probes);
        assert!(ticked.ctrl_worked_edges > 0, "{ticked:?}");
        assert_eq!(ticked.ctrl_worked_edges, jumped.ctrl_worked_edges);
        assert!(
            jumped.ctrl_fast_path_edges < ticked.ctrl_fast_path_edges,
            "jumps skip fast-path edges: {ticked:?} vs {jumped:?}"
        );
    }
}
