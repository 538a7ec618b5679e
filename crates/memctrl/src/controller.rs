//! The resistive-memory controller: queues, bank state machines, write
//! drains, write cancellation, and the Mellow Writes issue logic.

use crate::bankmask;
use crate::queues::{QueuedReq, ReadPick, RequestQueues};
use crate::{LineMapping, MemConfig};
use mellow_core::{
    decide_write, demand_speed, wear_bound_per_period, BankQueueView, WearQuota, WriteDecision,
    WritePolicy, WriteSpeed,
};
use mellow_engine::stats::{BusyTracker, Histogram};
use mellow_engine::{Duration, MemCycles, SimTime};
use mellow_nvm::energy::EnergyAccount;
use mellow_nvm::{
    CancelWear, EnduranceModel, FaultState, LevelerStats, LifetimeModel, LifetimeProjection,
    ReadVerify, RemapOutcome, RetentionState, WearLedger, WearLeveler, WriteVerify,
};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Counters exposed by the controller (the raw material of Figs. 2–3 and
/// 10–18).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CtrlStats {
    /// Reads accepted into the read queue.
    pub reads_accepted: u64,
    /// Reads serviced by forwarding from a pending (queued or in-flight)
    /// write.
    pub reads_forwarded: u64,
    /// The subset of `reads_forwarded` whose write was in flight at its
    /// bank when the read arrived. Before forwarding covered in-flight
    /// writes, these reads entered the read queue and could cancel the
    /// very write holding their data.
    pub reads_forwarded_in_flight: u64,
    /// Reads rejected because the read queue was full.
    pub read_rejects: u64,
    /// Demand writes accepted into the write queue.
    pub demand_writes_accepted: u64,
    /// Demand writes rejected because the write queue was full.
    pub write_rejects: u64,
    /// Eager writes accepted into the Eager Mellow queue.
    pub eager_writes_accepted: u64,
    /// Row-buffer-hit reads issued to banks.
    pub rb_hit_reads: u64,
    /// Row-buffer-miss reads (array activations) issued to banks.
    pub rb_miss_reads: u64,
    /// Normal-speed write issues to banks (including later-cancelled).
    pub writes_issued_normal: u64,
    /// Slow-speed write issues to banks (including later-cancelled).
    pub writes_issued_slow: u64,
    /// Completed normal-speed demand writes.
    pub writes_completed_normal: u64,
    /// Completed slow-speed demand writes.
    pub writes_completed_slow: u64,
    /// Completed eager writes (any speed).
    pub eager_completed: u64,
    /// Write attempts cancelled by an incoming read.
    pub writes_cancelled: u64,
    /// Write attempts paused (and later resumed) for an incoming read
    /// (`+WP` policies).
    pub writes_paused: u64,
    /// Cancels/pauses that struck before the write pulse began (the
    /// line was still bursting over the bus): no data reached the bank,
    /// so the retry must re-transfer, and the aborted bus slot is
    /// released.
    pub pre_pulse_cancels: u64,
    /// Write-drain episodes entered.
    pub write_drains: u64,
    /// Read latency from enqueue to data return, in nanoseconds.
    pub read_latency_ns: Histogram,
}

impl mellow_engine::json::JsonField for CtrlStats {
    fn to_json(&self) -> mellow_engine::json::Json {
        mellow_engine::json_fields_to!(
            self,
            reads_accepted,
            reads_forwarded,
            reads_forwarded_in_flight,
            read_rejects,
            demand_writes_accepted,
            write_rejects,
            eager_writes_accepted,
            rb_hit_reads,
            rb_miss_reads,
            writes_issued_normal,
            writes_issued_slow,
            writes_completed_normal,
            writes_completed_slow,
            eager_completed,
            writes_cancelled,
            writes_paused,
            pre_pulse_cancels,
            write_drains,
            read_latency_ns,
        )
    }

    fn from_json(v: &mellow_engine::json::Json) -> Option<CtrlStats> {
        mellow_engine::json_fields_from!(
            v,
            CtrlStats {
                reads_accepted,
                reads_forwarded,
                reads_forwarded_in_flight,
                read_rejects,
                demand_writes_accepted,
                write_rejects,
                eager_writes_accepted,
                rb_hit_reads,
                rb_miss_reads,
                writes_issued_normal,
                writes_issued_slow,
                writes_completed_normal,
                writes_completed_slow,
                eager_completed,
                writes_cancelled,
                writes_paused,
                pre_pulse_cancels,
                write_drains,
                read_latency_ns,
            }
        )
    }
}

impl CtrlStats {
    /// Total requests issued to banks (Fig. 15's metric): reads plus
    /// every write issue attempt.
    pub fn issued_to_banks(&self) -> u64 {
        self.rb_hit_reads + self.rb_miss_reads + self.writes_issued_normal + self.writes_issued_slow
    }
}

/// Counters for the fault layer's write-verify → retry → remap path.
///
/// `spares_remaining` is a gauge (the current unallocated spare-pool
/// size, summed over banks); the other fields are monotone counters.
/// Every verify failure is resolved exactly one way, so
/// `verify_failures == retries + remaps + uncorrectable` at any drain
/// point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Write completions whose verify step failed (stuck-at block,
    /// endurance exhaustion, or a transient fault).
    pub verify_failures: u64,
    /// Failed writes re-queued for another attempt within the
    /// [`MemConfig::max_write_retries`] budget.
    pub retries: u64,
    /// Blocks remapped to a per-bank spare after exhausting their retry
    /// budget.
    pub remaps: u64,
    /// Spare blocks still unallocated, summed over banks.
    pub spares_remaining: u64,
    /// Writes dropped with data loss: the retry budget and the bank's
    /// spare pool were both exhausted.
    pub uncorrectable: u64,
}

impl mellow_engine::json::JsonField for FaultStats {
    fn to_json(&self) -> mellow_engine::json::Json {
        mellow_engine::json_fields_to!(
            self,
            verify_failures,
            retries,
            remaps,
            spares_remaining,
            uncorrectable,
        )
    }

    fn from_json(v: &mellow_engine::json::Json) -> Option<FaultStats> {
        mellow_engine::json_fields_from!(
            v,
            FaultStats {
                verify_failures,
                retries,
                remaps,
                spares_remaining,
                uncorrectable,
            }
        )
    }
}

/// Counters for the retention layer's detect → repair → degrade path.
///
/// Every detected drift failure — a demand read or a scrub visit
/// finding a block past its deadline — is resolved exactly one way:
/// repaired by a rewrite, or declared uncorrectable once the retry
/// budget and spare pool both run out. So at any drain point
/// `demand_verify_failures + ScrubStats::scrub_rewrites == repairs +
/// retention_uncorrectable` (the retention analogue of the fault
/// layer's resolution invariant).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RetentionStats {
    /// Demand reads that found their block past its drift deadline
    /// (served through ECC; a repair rewrite was enqueued).
    pub demand_verify_failures: u64,
    /// Repair rewrites that completed with a clean verify, restamping
    /// the block's drift clock (from either detection path).
    pub repairs: u64,
    /// Detected drift failures whose repair could not be completed:
    /// the rewrite kept failing verify and the remap path found no
    /// spare, so the block's data is lost and capacity shrinks —
    /// exactly the fault layer's `uncorrectable` ending, never a
    /// silent loss.
    pub retention_uncorrectable: u64,
}

impl mellow_engine::json::JsonField for RetentionStats {
    fn to_json(&self) -> mellow_engine::json::Json {
        mellow_engine::json_fields_to!(
            self,
            demand_verify_failures,
            repairs,
            retention_uncorrectable,
        )
    }

    fn from_json(v: &mellow_engine::json::Json) -> Option<RetentionStats> {
        mellow_engine::json_fields_from!(
            v,
            RetentionStats {
                demand_verify_failures,
                repairs,
                retention_uncorrectable,
            }
        )
    }
}

/// Background scrub engine activity counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScrubStats {
    /// Blocks the scrubber visited (one verify read each).
    pub scrub_reads: u64,
    /// Scrub visits that found the block past its drift deadline and
    /// enqueued a repair rewrite (the scrub-detected failures of the
    /// retention resolution invariant).
    pub scrub_rewrites: u64,
    /// Idle-bank windows a due scrub visit lost to foreground work
    /// (a read, a demand write or an eager write).
    pub scrub_bank_conflicts: u64,
}

impl mellow_engine::json::JsonField for ScrubStats {
    fn to_json(&self) -> mellow_engine::json::Json {
        mellow_engine::json_fields_to!(self, scrub_reads, scrub_rewrites, scrub_bank_conflicts,)
    }

    fn from_json(v: &mellow_engine::json::Json) -> Option<ScrubStats> {
        mellow_engine::json_fields_from!(
            v,
            ScrubStats {
                scrub_reads,
                scrub_rewrites,
                scrub_bank_conflicts,
            }
        )
    }
}

// The one shared fold for the controller's counter blocks: saturating
// adds for monotone counters, minimum for the shrinking spare-pool
// gauge (see `mellow_nvm::SaturatingMerge`).
mellow_nvm::impl_saturating_merge!(FaultStats {
    counters: [verify_failures, retries, remaps, uncorrectable],
    gauges_min: [spares_remaining],
});
mellow_nvm::impl_saturating_merge!(RetentionStats {
    counters: [demand_verify_failures, repairs, retention_uncorrectable],
});
mellow_nvm::impl_saturating_merge!(ScrubStats {
    counters: [scrub_reads, scrub_rewrites, scrub_bank_conflicts],
});

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    DemandWrite,
    EagerWrite,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    serial: u64,
    kind: OpKind,
    line: u64,
    mapping: LineMapping,
    speed: WriteSpeed,
    /// Actual latency factor driven (1.0 normal; the policy's slow
    /// factor, or a graded level under `+GR`).
    factor: f64,
    cancels: u32,
    /// Verify-retry attempts this write has already consumed (fault
    /// layer); carried from the queue entry so cancels preserve it.
    retries: u32,
    /// Whether this write is a retention-repair rewrite (scrub or
    /// demand-read detected); see [`QueuedReq::repair`].
    repair: bool,
    enq: SimTime,
    /// Fraction of the pulse outstanding when this segment started.
    remaining_at_start: f64,
    /// When the write pulse begins (after the bus transfer).
    pulse_start: SimTime,
    end: SimTime,
}

impl InFlight {
    /// The queue entry that retries this write after a verify failure:
    /// the data is still latched at the bank (no bus transfer), the
    /// original enqueue time keeps its age priority, and the full pulse
    /// is driven again. A cancel or pause overrides the fields it moves.
    fn requeued(&self, retries: u32) -> QueuedReq {
        QueuedReq {
            data_resident: true,
            cancels: self.cancels,
            retries,
            repair: self.repair,
            ..QueuedReq::new(self.line, self.mapping, self.enq)
        }
    }
}

/// Per-bank state in struct-of-arrays layout, plus two bank masks.
///
/// The hot loops ([`Controller::issue`]'s round-robin pass, the
/// completion poll, [`Controller::cancel_writes_for_reads`] and
/// [`Controller::compute_next_actionable`]) read one field
/// (`busy_until` or `op_end`) of the banks a mask selects, so each
/// field lives in its own dense lane instead of a strided struct array.
/// `busy` selects the banks the completion poll and the next-event
/// minimum visit; `writing` together with the queues' read mask selects
/// the cancel candidates.
#[derive(Debug)]
struct Banks {
    open_row: Vec<Option<u64>>,
    busy_until: Vec<SimTime>,
    /// End time of the bank's in-flight op (`in_flight[b]`'s `end`), or
    /// `SimTime::MAX` when it has none: the lane completions are polled
    /// from. Written only by [`set_in_flight`](Self::set_in_flight).
    op_end: Vec<SimTime>,
    in_flight: Vec<Option<InFlight>>,
    busy_time: Vec<Duration>,
    /// Bit `b` set while bank `b` has an op in flight (`op_end[b]` is
    /// not `MAX`). Written only by `set_in_flight`.
    busy: u64,
    /// Bit `b` set while bank `b`'s in-flight op is a (demand or eager)
    /// write. Written only by `set_in_flight`.
    writing: u64,
}

impl Banks {
    fn new(n: usize) -> Self {
        Banks {
            open_row: vec![None; n],
            busy_until: vec![SimTime::ZERO; n],
            op_end: vec![SimTime::MAX; n],
            in_flight: vec![None; n],
            busy_time: vec![Duration::ZERO; n],
            busy: 0,
            writing: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.busy_until.len()
    }

    /// Starts (`Some`) or retires (`None`) the bank's in-flight op. The
    /// one writer of `in_flight`, `op_end`, `busy` and `writing`, so they
    /// never diverge.
    #[inline]
    fn set_in_flight(&mut self, bank: usize, op: Option<InFlight>) {
        let bit = 1u64 << bank;
        self.busy &= !bit;
        self.writing &= !bit;
        if let Some(op) = &op {
            self.busy |= bit;
            if op.kind != OpKind::Read {
                self.writing |= bit;
            }
        }
        self.op_end[bank] = op.map_or(SimTime::MAX, |op| op.end);
        self.in_flight[bank] = op;
    }

    /// The busy bank whose in-flight op is due by `now` with the
    /// smallest `(end, serial)`: completions retire in end-time order,
    /// and ops ending on the same picosecond retire in issue order.
    fn next_due(&self, now: SimTime) -> Option<usize> {
        let serial = |bank: usize| {
            self.in_flight[bank]
                .as_ref()
                .map_or(u64::MAX, |op| op.serial)
        };
        let mut due: Option<usize> = None;
        for bank in bankmask::banks(self.busy) {
            let end = self.op_end[bank];
            if end > now {
                continue;
            }
            let first = match due {
                None => true,
                Some(d) => {
                    end < self.op_end[d] || (end == self.op_end[d] && serial(bank) < serial(d))
                }
            };
            if first {
                due = Some(bank);
            }
        }
        due
    }
}

/// The cycle-level memory controller for a resistive main memory.
///
/// The controller owns three request queues (read > write > eager, in
/// priority), per-bank state machines with open-page row buffers, a
/// shared data bus, tFAW activation throttling, write drains, write
/// cancellation, Start-Gap wear leveling, and the wear/energy ledgers.
/// Write speeds follow the configured [`WritePolicy`] through the
/// Figure 9 decision tree.
///
/// The queues are held in per-bank indexed form (see the `queues`
/// module) so bank arbitration never scans a shared FIFO, a line index
/// answers read-forwarding lookups in O(1), and [`tick`](Self::tick)
/// fast-paths any cycle provably before the next actionable event.
/// Setting [`MemConfig::use_scan_queues`] reverts to the legacy
/// shared-FIFO scan implementation, which produces bit-identical
/// results and anchors the equivalence tests.
///
/// Drive it by calling [`tick`](Self::tick) once per memory-clock cycle;
/// offer work with [`try_read`](Self::try_read) /
/// [`try_write`](Self::try_write) / [`try_eager`](Self::try_eager) and
/// collect read data with [`pop_read_done`](Self::pop_read_done).
///
/// # Examples
///
/// ```
/// use mellow_core::WritePolicy;
/// use mellow_engine::SimTime;
/// use mellow_memctrl::{Controller, MemConfig};
/// use mellow_nvm::{CancelWear, EnduranceModel};
///
/// let mut ctrl = Controller::new(
///     MemConfig::paper_default(),
///     WritePolicy::be_mellow_sc(),
///     EnduranceModel::reram_default(),
///     CancelWear::Prorated,
/// );
/// assert!(ctrl.try_read(42, SimTime::ZERO));
/// // Tick until the read returns (row miss: ~142.5 ns).
/// let mut done = None;
/// for c in 1..100 {
///     let now = SimTime::from_ps(c * 2500);
///     ctrl.tick(now);
///     if let Some(line) = ctrl.pop_read_done() {
///         done = Some(line);
///         break;
///     }
/// }
/// assert_eq!(done, Some(42));
/// ```
#[derive(Debug)]
pub struct Controller {
    cfg: MemConfig,
    policy: WritePolicy,
    endurance: EnduranceModel,
    cancel_wear: CancelWear,
    queues: RequestQueues,
    /// Pending demand/eager writes per raw line address (queued plus
    /// in-flight), for O(1) read-forwarding lookups. Counted, because
    /// the same line can be written back repeatedly. Membership is
    /// unchanged by issue and cancel (the write stays pending either
    /// way); only acceptance and completion move the count.
    pending_line_writes: HashMap<u64, u32>,
    banks: Banks,
    /// Recent activation times per rank, for tFAW.
    rank_acts: Vec<VecDeque<SimTime>>,
    bus_free_at: SimTime,
    /// Forwarded reads awaiting their (bank-free) completion time.
    forwarded_pending: VecDeque<(SimTime, u64)>,
    read_done: VecDeque<u64>,
    ledger: WearLedger,
    /// The wear-leveling scheme: every logical→physical translation,
    /// rotation event, and verify-failure remap routes through this
    /// trait object (selected by `cfg.leveler`).
    leveler: Box<dyn WearLeveler>,
    /// Leveler counters at the last `reset_stats`, so reported leveling
    /// stats cover the measurement window only (registers and tables
    /// persist as device state, like Start-Gap's did).
    leveler_base: LevelerStats,
    quota: Option<WearQuota>,
    next_period_at: SimTime,
    draining: bool,
    drain_tracker: BusyTracker,
    energy: EnergyAccount,
    stats: CtrlStats,
    /// Fault-injection state; `None` whenever `cfg.fault.enabled` is
    /// false, so a disabled controller runs zero fault branches and
    /// draws no fault randomness (the additivity guarantee).
    faults: Option<FaultState>,
    fault_stats: FaultStats,
    /// Retention-drift state; `None` whenever `cfg.retention.enabled`
    /// is false, so a disabled controller runs zero retention branches
    /// and draws no drift randomness (the same additivity guarantee as
    /// the fault layer).
    retention: Option<RetentionState>,
    retention_stats: RetentionStats,
    scrub_stats: ScrubStats,
    /// Per-bank scrub cursor: the next logical block the background
    /// scrubber will verify-read at that bank.
    scrub_ptr: Vec<u64>,
    /// Per-bank earliest time the next scrub visit is due; the visit
    /// itself waits for an idle-bank window (see [`Self::issue`]).
    next_scrub_at: Vec<SimTime>,
    /// Repair rewrites waiting out their verify-retry backoff, with
    /// their release times (see [`REPAIR_BACKOFF`]). Few
    /// entries, FIFO per release time; scanned in insertion order.
    deferred_repairs: VecDeque<(SimTime, QueuedReq)>,
    next_serial: u64,
    rr_start: usize,
    /// No tick strictly before this time can act (see
    /// [`compute_next_actionable`](Self::compute_next_actionable));
    /// `tick` fast-paths such cycles. Reset to `ZERO` whenever a request
    /// is accepted.
    next_actionable: SimTime,
    /// `tick` calls that ran past the fast path, and calls that took it,
    /// since construction or the last `reset_stats`. Simulator work, not
    /// simulated behaviour, so they stay out of [`CtrlStats`].
    worked_edges: u64,
    fast_path_edges: u64,
}

/// Base backoff a verify-failed repair rewrite waits before re-entering
/// its queue, doubling per consumed retry, so retry storms spread across
/// memory-clock edges instead of hammering the same ones.
const REPAIR_BACKOFF: Duration = Duration::from_ns(20);

/// Fresh Wear Quota state for `cfg`'s banks: the §IV-C bound from the
/// device's block endurance, with the leveling efficiency as
/// `Ratio_quota`.
fn new_quota(cfg: &MemConfig, endurance: &EnduranceModel) -> WearQuota {
    let bound = wear_bound_per_period(
        endurance.base_endurance(),
        cfg.blocks_per_bank(),
        cfg.sample_period,
        cfg.leveling_efficiency,
    );
    WearQuota::new(bound, cfg.num_banks)
}

impl Controller {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent (see [`MemConfig::validate`]).
    pub fn new(
        cfg: MemConfig,
        policy: WritePolicy,
        endurance: EnduranceModel,
        cancel_wear: CancelWear,
    ) -> Self {
        cfg.validate();
        let banks = cfg.num_banks;
        let quota = policy.wear_quota.then(|| new_quota(&cfg, &endurance));
        let sample_period = cfg.sample_period;
        let leveler = cfg
            .leveler
            .build(banks, cfg.blocks_per_bank(), cfg.spares_per_bank);
        // The fault layer covers the leveler's whole physical space
        // (e.g. Start-Gap's gap spare) and owns only the spares the
        // leveler delegates (zero for pool-owning levelers).
        let faults = cfg.fault.enabled.then(|| {
            FaultState::new(
                cfg.fault,
                &endurance,
                banks,
                leveler.physical_blocks_per_bank(),
                leveler.fault_pool_spares(),
            )
        });
        // The drift clock is keyed by *logical* block: leveling moves
        // the data but conservatively keeps the old deadline (the cells
        // under it changed, but a fresh stamp would optimistically
        // extend retention without a write having happened).
        let retention = cfg
            .retention
            .enabled
            .then(|| RetentionState::new(cfg.retention, banks, cfg.blocks_per_bank()));
        Controller {
            queues: RequestQueues::new(banks, cfg.use_scan_queues),
            pending_line_writes: HashMap::new(),
            banks: Banks::new(banks),
            rank_acts: (0..cfg.num_ranks).map(|_| VecDeque::new()).collect(),
            bus_free_at: SimTime::ZERO,
            forwarded_pending: VecDeque::new(),
            read_done: VecDeque::new(),
            ledger: WearLedger::new(banks, endurance, cancel_wear),
            leveler,
            leveler_base: LevelerStats::default(),
            quota,
            next_period_at: SimTime::ZERO + sample_period,
            draining: false,
            drain_tracker: BusyTracker::new(),
            energy: EnergyAccount::default(),
            stats: CtrlStats::default(),
            faults,
            fault_stats: FaultStats::default(),
            retention,
            retention_stats: RetentionStats::default(),
            scrub_stats: ScrubStats::default(),
            scrub_ptr: vec![0; banks],
            next_scrub_at: vec![SimTime::ZERO + cfg.scrub_interval; banks],
            deferred_repairs: VecDeque::new(),
            next_serial: 0,
            rr_start: 0,
            next_actionable: SimTime::ZERO,
            worked_edges: 0,
            fast_path_edges: 0,
            policy,
            endurance,
            cancel_wear,
            cfg,
        }
    }

    /// Enables per-block wear tracking (small configurations only: the
    /// table holds one `f64` per memory block).
    pub fn enable_block_tracking(&mut self) {
        // The leveler's full physical space (e.g. Start-Gap's gap spare).
        let blocks = self.leveler.physical_blocks_per_bank();
        // Rebuild the ledger with tracking; only valid before any wear.
        assert!(
            self.ledger.total_wear() == 0.0,
            "enable block tracking before simulating"
        );
        self.ledger = WearLedger::new(self.cfg.num_banks, self.endurance, self.cancel_wear)
            .with_block_tracking(blocks);
    }

    /// Returns the configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Returns the active write policy.
    pub fn policy(&self) -> &WritePolicy {
        &self.policy
    }

    /// Returns the counters.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Memory-clock edges on which [`tick`](Self::tick) ran past its
    /// fast path, since construction or the last
    /// [`reset_stats`](Self::reset_stats).
    pub fn worked_edges(&self) -> u64 {
        self.worked_edges
    }

    /// Memory-clock edges on which [`tick`](Self::tick) took its fast
    /// path (nothing could act), over the same window. Edges replayed by
    /// [`fast_forward_idle`](Self::fast_forward_idle) are not counted.
    pub fn fast_path_edges(&self) -> u64 {
        self.fast_path_edges
    }

    /// Returns the wear ledger.
    pub fn ledger(&self) -> &WearLedger {
        &self.ledger
    }

    /// Returns the energy account.
    pub fn energy(&self) -> &EnergyAccount {
        &self.energy
    }

    /// Whether a demand/eager write for `line` is in flight at `bank`.
    fn write_in_flight_at(&self, line: u64, bank: usize) -> bool {
        self.banks.in_flight[bank].is_some_and(|op| op.line == line && op.kind != OpKind::Read)
    }

    /// Offers a read for `line`. Returns `false` when the read queue is
    /// full. Reads of lines with a pending write — queued *or* already
    /// in flight at the bank — are serviced by forwarding without
    /// touching the banks. (Were in-flight writes not forwarded, such a
    /// read would enter the read queue and could cancel the very write
    /// holding the only copy of its data.)
    pub fn try_read(&mut self, line: u64, now: SimTime) -> bool {
        let bank = self.cfg.map_line(line).bank;
        let pending_write = if self.queues.is_scan() {
            self.queues.has_queued_write(line, bank) || self.write_in_flight_at(line, bank)
        } else {
            self.pending_line_writes.contains_key(&line)
        };
        if pending_write {
            // Forward from the pending write: data returns after the
            // column + bus latency without disturbing the banks.
            self.stats.reads_forwarded += 1;
            if self.write_in_flight_at(line, bank) {
                self.stats.reads_forwarded_in_flight += 1;
            }
            let end = now + self.cfg.t_cas + self.cfg.t_bus;
            self.stats
                .read_latency_ns
                .record(end.saturating_since(now).as_ns());
            self.forwarded_pending.push_back((end, line));
            self.next_actionable = SimTime::ZERO;
            return true;
        }
        if self.queues.read_len() >= self.cfg.read_queue_cap {
            self.stats.read_rejects += 1;
            return false;
        }
        self.queues
            .push_read(QueuedReq::new(line, self.cfg.map_line(line), now));
        self.stats.reads_accepted += 1;
        self.next_actionable = SimTime::ZERO;
        true
    }

    /// Offers a demand write (LLC dirty eviction) for `line`. Returns
    /// `false` when the write queue is full.
    pub fn try_write(&mut self, line: u64, now: SimTime) -> bool {
        if self.queues.write_len() >= self.cfg.write_queue_cap {
            self.stats.write_rejects += 1;
            return false;
        }
        self.queues
            .push_write(QueuedReq::new(line, self.cfg.map_line(line), now));
        *self.pending_line_writes.entry(line).or_insert(0) += 1;
        self.stats.demand_writes_accepted += 1;
        self.next_actionable = SimTime::ZERO;
        true
    }

    /// Returns `true` when the Eager Mellow queue can accept another
    /// entry (the LLC checks before probing for a candidate).
    pub fn eager_has_room(&self) -> bool {
        self.queues.eager_len() < self.cfg.eager_queue_cap
    }

    /// Offers an eager writeback for `line`.
    ///
    /// # Panics
    ///
    /// Panics if the eager queue is full — callers must check
    /// [`eager_has_room`](Self::eager_has_room) first, because the LLC
    /// has already marked the line clean by the time it calls this.
    pub fn try_eager(&mut self, line: u64, now: SimTime) {
        assert!(self.eager_has_room(), "eager queue overflow");
        self.queues
            .push_eager(QueuedReq::new(line, self.cfg.map_line(line), now));
        *self.pending_line_writes.entry(line).or_insert(0) += 1;
        self.stats.eager_writes_accepted += 1;
        self.next_actionable = SimTime::ZERO;
    }

    /// The controller's next-event hook for the system's fast-forward
    /// loop: the earliest time a future [`tick`](Self::tick) could do
    /// more than rotate the round-robin origin, or `None` when no
    /// future tick can act without new input (every `try_read`/
    /// `try_write`/`try_eager` resets the horizon to `ZERO`).
    ///
    /// A returned time at or before `now` — including `ZERO` while
    /// completed reads await draining — means the controller must be
    /// ticked at every memory-clock edge. Skipped idle edges must be
    /// replayed with [`fast_forward_idle`](Self::fast_forward_idle).
    pub fn next_event(&self) -> Option<SimTime> {
        if !self.read_done.is_empty() {
            return Some(SimTime::ZERO);
        }
        if self.next_actionable == SimTime::MAX {
            None
        } else {
            Some(self.next_actionable)
        }
    }

    /// Batch-applies `edges` skipped memory-clock edges on which
    /// `tick`'s fast path would have run: each rotates the round-robin
    /// origin once and changes nothing else.
    pub fn fast_forward_idle(&mut self, edges: MemCycles) {
        let n = self.banks.len() as u64;
        self.rr_start = ((self.rr_start as u64 + edges.count() % n) % n) as usize;
    }

    /// Removes and returns the next completed read's line address.
    pub fn pop_read_done(&mut self) -> Option<u64> {
        self.read_done.pop_front()
    }

    fn alloc_serial(&mut self) -> u64 {
        let s = self.next_serial;
        self.next_serial += 1;
        s
    }

    /// Advances the controller to memory-clock edge `now`.
    pub fn tick(&mut self, now: SimTime) {
        if now < self.next_actionable {
            // Nothing can act yet. Keep round-robin fairness identical
            // to a full tick (`issue` advances it once per call).
            self.rr_start = (self.rr_start + 1) % self.banks.len();
            self.fast_path_edges += 1;
            return;
        }
        self.worked_edges += 1;
        self.drain_forwarded(now);
        self.release_deferred_repairs(now);
        self.process_completions(now);
        self.roll_periods(now);
        self.update_drain_state(now);
        self.cancel_writes_for_reads(now);
        let tfaw_blocked = self.issue(now);
        self.next_actionable = self.compute_next_actionable(now, tfaw_blocked);
    }

    /// The earliest time a future tick could act given current state —
    /// the license for `tick`'s fast path.
    ///
    /// Exactness: every event that could make an earlier tick act either
    /// (a) is scheduled and included in the minimum below — completions,
    /// pending forwarded reads, quota period boundaries, busy banks with
    /// issueable work, due-or-busy scrub visits, deferred repair
    /// releases; (b) arrives through `try_read`/`try_write`/
    /// `try_eager`, each of which resets `next_actionable` to `ZERO`; or
    /// (c) is due immediately, in which case `ZERO` is returned — a
    /// pending drain transition, a tFAW-blocked activation, a free bank
    /// with issueable work. Cancel/pause decisions need no entry of
    /// their own: a declined cancel stays declined (pulse progress only
    /// grows and the cancel budget never refills), and every state
    /// change that *creates* a cancel candidate — a read arrival or a
    /// write issue — already runs through (a)–(c). A write-issue
    /// decision that is `Idle` now likewise stays `Idle` until one of
    /// those same events changes the bank's queue view.
    ///
    /// Cost: the completion minimum visits only the `busy` banks and the
    /// free-bank check only the banks the queues' masks mark issueable;
    /// only an active scrubber, which can visit any bank, costs a pass
    /// over all of them.
    fn compute_next_actionable(&self, now: SimTime, tfaw_blocked: bool) -> SimTime {
        if self.queues.is_scan() || tfaw_blocked {
            // Scan mode is the always-full-tick reference implementation.
            return SimTime::ZERO;
        }
        let wq = self.queues.write_len();
        let transition_pending = if self.draining {
            wq <= self.cfg.drain_low
        } else {
            wq >= self.cfg.drain_high
        };
        if transition_pending {
            return SimTime::ZERO;
        }
        let mut next = SimTime::MAX;
        for bank_idx in bankmask::banks(self.banks.busy) {
            next = next.min(self.banks.op_end[bank_idx]);
        }
        if let Some(&(t, _)) = self.forwarded_pending.front() {
            next = next.min(t);
        }
        if self.quota.is_some() {
            next = next.min(self.next_period_at);
        }
        // Deferred repairs release at their recorded times; entries are
        // always parked in the future (backoff is non-zero whenever the
        // deferral path runs), so no ZERO case arises here.
        for &(t, _) in &self.deferred_repairs {
            next = next.min(t);
        }
        if self.scrub_active() {
            // A scrub visit happens at the later of its due time and
            // the bank falling idle. `issue` has already run this tick:
            // a due visit either happened (pushing `next_scrub_at` past
            // `now`) or lost its bank to foreground work (leaving the
            // bank busy), so the maximum below is strictly future —
            // except under tFAW blocking, which already returned ZERO.
            for bank_idx in 0..self.banks.len() {
                let t = self.next_scrub_at[bank_idx].max(self.banks.busy_until[bank_idx]);
                next = next.min(t);
            }
        }
        // `decide_write` is non-idle exactly when a write is queued or an
        // eager write is queued with no read ahead of it; OR-ed with the
        // read check this collapses to plain queue occupancy, so no
        // policy evaluation is needed here. The indexed layout's masks
        // are exact (scan mode returned above). A bank with an op in
        // flight frees at its `op_end`, already in the minimum.
        for bank_idx in bankmask::banks(self.issueable_banks() & !self.banks.busy) {
            let busy_until = self.banks.busy_until[bank_idx];
            if busy_until <= now {
                return SimTime::ZERO;
            }
            next = next.min(busy_until);
        }
        next
    }

    fn drain_forwarded(&mut self, now: SimTime) {
        while let Some(&(t, line)) = self.forwarded_pending.front() {
            if t > now {
                break;
            }
            self.forwarded_pending.pop_front();
            self.read_done.push_back(line);
        }
    }

    /// Retires every op due by `now`, polled from the banks' `op_end`
    /// lane in `(end, serial)` order. A cancelled op leaves nothing
    /// behind: cancelling clears its bank's lane entry.
    fn process_completions(&mut self, now: SimTime) {
        while let Some(bank_idx) = self.banks.next_due(now) {
            let op = self.banks.in_flight[bank_idx].expect("a due bank has an op in flight");
            self.banks.set_in_flight(bank_idx, None);
            match op.kind {
                OpKind::Read => {
                    self.read_done.push_back(op.line);
                    self.stats
                        .read_latency_ns
                        .record(op.end.saturating_since(op.enq).as_ns());
                    self.check_read_retention(bank_idx, &op);
                }
                OpKind::DemandWrite | OpKind::EagerWrite => {
                    self.complete_write(bank_idx, op);
                }
            }
        }
    }

    fn complete_write(&mut self, bank_idx: usize, op: InFlight) {
        if self.faults.is_some() && !self.verify_write(bank_idx, &op) {
            return;
        }
        self.release_pending_line(op.line);
        let factor = op.factor;
        let phys = self.leveler.remap(bank_idx, op.mapping.block);
        self.ledger.record_write(bank_idx, Some(phys), factor);
        let mut moved = Vec::new();
        self.leveler
            .note_write(bank_idx, op.mapping.block, &mut moved);
        for m in moved {
            self.ledger.record_leveling_write(bank_idx, Some(m));
        }
        // Every verified write restamps the block's drift clock: slow
        // pulses widen the deadline, a worn block narrows it.
        if let Some(r) = &mut self.retention {
            let worn = self
                .faults
                .as_ref()
                .map_or(0.0, |f| f.wear_fraction(bank_idx, phys));
            r.record_write(bank_idx, op.mapping.block, op.end, factor, worn);
        }
        // Graded factors between 1x and 3x are charged slow-write
        // energy (a conservative overestimate; Table VI only
        // characterizes the two paper speeds).
        if factor > 1.0 {
            self.energy.add_slow_write();
        } else {
            self.energy.add_normal_write();
        }
        if op.repair {
            // Repair rewrites refresh data the host already owns: they
            // drive the cells (wear, energy, leveling above) but count
            // as repairs, not demand/eager completions.
            self.retention_stats.repairs += 1;
        } else if factor > 1.0 {
            self.stats.writes_completed_slow += 1;
        } else {
            self.stats.writes_completed_normal += 1;
        }
        if op.kind == OpKind::EagerWrite {
            self.stats.eager_completed += 1;
        }
    }

    /// Runs the fault layer's verify step for a completing write pulse.
    /// Returns `true` when the write verified clean and should complete
    /// normally. A failed pulse still drove the cells, so its wear and
    /// energy are charged here; the write is then retried (within the
    /// [`MemConfig::max_write_retries`] budget), remapped to a spare
    /// block, or — with the spare pool exhausted — dropped as an
    /// uncorrectable loss.
    fn verify_write(&mut self, bank_idx: usize, op: &InFlight) -> bool {
        let phys = self.leveler.remap(bank_idx, op.mapping.block);
        let wear = self.endurance.wear_per_write(op.factor);
        let verdict = self
            .faults
            .as_mut()
            .expect("verify_write requires fault state")
            .verify_write(bank_idx, phys, wear);
        if verdict == WriteVerify::Ok {
            return true;
        }
        self.fault_stats.verify_failures += 1;
        // The pulse physically happened: wear and energy accrue, but no
        // completion counter and no Start-Gap progress (the data never
        // landed, so there is nothing leveled to rotate).
        self.ledger.record_write(bank_idx, Some(phys), op.factor);
        if op.factor > 1.0 {
            self.energy.add_slow_write();
        } else {
            self.energy.add_normal_write();
        }
        match verdict {
            WriteVerify::Ok => unreachable!("handled above"),
            WriteVerify::Lost => self.drop_lost_write(op),
            WriteVerify::Failed => {
                if op.retries < self.cfg.max_write_retries {
                    self.fault_stats.retries += 1;
                    if op.repair {
                        // Repair retries back off across mem-clock
                        // edges instead of re-queuing immediately: the
                        // data is safe in the controller, and spacing
                        // the attempts keeps a failing block from
                        // monopolizing its bank.
                        self.defer_repair_retry(op, op.retries + 1);
                    } else {
                        self.requeue_failed(op, op.retries + 1);
                    }
                } else {
                    // Retry budget spent: ask the leveler first — a
                    // pool-owning leveler (WoLFRaM) rewires the logical
                    // block itself; others delegate to the fault
                    // layer's per-bank spare pool.
                    match self.leveler.remap_faulty(bank_idx, op.mapping.block) {
                        RemapOutcome::Remapped => {
                            // A fresh spare: the retry budget starts over.
                            self.fault_stats.remaps += 1;
                            self.requeue_failed(op, 0);
                        }
                        RemapOutcome::Delegate => {
                            if self
                                .faults
                                .as_mut()
                                .expect("verify_write requires fault state")
                                .remap(bank_idx, phys)
                            {
                                self.fault_stats.remaps += 1;
                                self.requeue_failed(op, 0);
                            } else {
                                self.drop_lost_write(op);
                            }
                        }
                        RemapOutcome::Exhausted => {
                            // The leveler's pool is empty; the fault
                            // layer holds zero spares for pool-owning
                            // levelers, so this marks the block lost.
                            let _ = self
                                .faults
                                .as_mut()
                                .expect("verify_write requires fault state")
                                .remap(bank_idx, phys);
                            self.drop_lost_write(op);
                        }
                    }
                }
            }
        }
        false
    }

    /// Re-queues a verify-failed write at the front of its queue (age
    /// priority preserved, like a cancel). The data is still latched at
    /// the bank, so the retry skips the bus transfer, and the line stays
    /// in the pending index — reads keep forwarding from it.
    fn requeue_failed(&mut self, op: &InFlight, retries: u32) {
        self.queues
            .requeue_front(op.requeued(retries), op.kind == OpKind::EagerWrite);
    }

    /// Drops a write whose data cannot be preserved (stuck block with no
    /// spares left): counts the loss and releases the pending-line entry.
    fn drop_lost_write(&mut self, op: &InFlight) {
        self.fault_stats.uncorrectable += 1;
        if op.repair {
            // A lost repair ends a detected drift failure the hard way:
            // the retention invariant's uncorrectable arm. Capacity
            // shrinks through the fault layer's lost-block accounting,
            // never silently.
            self.retention_stats.retention_uncorrectable += 1;
        }
        if let Some(r) = &mut self.retention {
            // The data is gone; there is nothing left to scrub, so the
            // block's drift clock is retired until a future write
            // restamps it.
            r.forget(op.mapping.bank, op.mapping.block);
        }
        self.release_pending_line(op.line);
    }

    /// Drops one pending write of `line` from the forwarding index, when
    /// that write completes or is lost.
    fn release_pending_line(&mut self, line: u64) {
        match self.pending_line_writes.entry(line) {
            Entry::Occupied(mut e) => {
                if *e.get() <= 1 {
                    e.remove();
                } else {
                    *e.get_mut() -= 1;
                }
            }
            Entry::Vacant(_) => debug_assert!(false, "released write missing from line index"),
        }
    }

    /// Whether the background scrubber runs at all: retention must be
    /// enabled and the scrub interval non-zero. (Retention without a
    /// scrubber still detects drift on demand reads.)
    fn scrub_active(&self) -> bool {
        self.retention.is_some() && self.cfg.scrub_interval > Duration::ZERO
    }

    /// Whether a scrub visit is due at `bank_idx` (it still has to win
    /// an idle-bank window in [`issue`](Self::issue)).
    fn scrub_due(&self, bank_idx: usize, now: SimTime) -> bool {
        self.scrub_active() && now >= self.next_scrub_at[bank_idx]
    }

    /// The raw line address of logical `block` at `bank_idx` (the
    /// inverse of [`MemConfig::map_line`]'s bank-interleaved split).
    fn line_for(&self, bank_idx: usize, block: u64) -> u64 {
        block * self.cfg.num_banks as u64 + bank_idx as u64
    }

    /// One background scrub visit: verify-read the block under the
    /// bank's scrub cursor, advance the cursor, and enqueue a repair
    /// rewrite when the block is past its drift deadline.
    fn scrub_visit(&mut self, bank_idx: usize, now: SimTime) {
        let blocks = self.cfg.blocks_per_bank();
        let block = self.scrub_ptr[bank_idx] % blocks;
        self.scrub_ptr[bank_idx] = (block + 1) % blocks;
        self.next_scrub_at[bank_idx] = now + self.cfg.scrub_interval;
        self.scrub_stats.scrub_reads += 1;
        // The verify read drives the array like a row-miss read but
        // stays internal to the bank: no bus transfer, and the sense
        // amps are used directly, leaving the open row undisturbed.
        let end = now + self.cfg.t_rcd + self.cfg.t_cas;
        self.banks.busy_time[bank_idx] += end.saturating_since(now);
        self.banks.busy_until[bank_idx] = end;
        self.energy.add_buffer_read();
        let line = self.line_for(bank_idx, block);
        // A line with a pending write needs no repair: that write will
        // restamp the drift clock when it lands.
        let expired = !self.pending_line_writes.contains_key(&line)
            && self
                .retention
                .as_ref()
                .is_some_and(|r| r.verify_read(bank_idx, block, now) == ReadVerify::Failed);
        if expired {
            self.scrub_stats.scrub_rewrites += 1;
            self.enqueue_repair(line, now);
        }
    }

    /// After a demand read returns, checks its block's drift deadline
    /// and enqueues a repair rewrite on failure (the data itself is
    /// recovered through ECC; what must be repaired is the array copy).
    fn check_read_retention(&mut self, bank_idx: usize, op: &InFlight) {
        let expired = self.retention.as_ref().is_some_and(|r| {
            r.verify_read(bank_idx, op.mapping.block, op.end) == ReadVerify::Failed
        });
        if !expired || self.pending_line_writes.contains_key(&op.line) {
            // Clean, or a pending write will restamp the block anyway
            // (and scrub may already have enqueued the repair).
            return;
        }
        self.retention_stats.demand_verify_failures += 1;
        self.enqueue_repair(op.line, op.end);
    }

    /// Enqueues a retention-repair rewrite for `line` on the demand
    /// write queue. The corrected data is already latched at the
    /// controller (scrub verify read or demand read return), so the
    /// rewrite skips the bus transfer.
    fn enqueue_repair(&mut self, line: u64, now: SimTime) {
        self.queues.push_write(QueuedReq {
            data_resident: true,
            repair: true,
            ..QueuedReq::new(line, self.cfg.map_line(line), now)
        });
        *self.pending_line_writes.entry(line).or_insert(0) += 1;
    }

    /// Parks a verify-failed repair rewrite until its backoff elapses:
    /// the wait doubles with each consumed retry.
    fn defer_repair_retry(&mut self, op: &InFlight, retries: u32) {
        let doublings = (retries - 1).min(16);
        let wait = REPAIR_BACKOFF.scale((1u64 << doublings) as f64);
        self.deferred_repairs
            .push_back((op.end + wait, op.requeued(retries)));
    }

    /// Releases deferred repair retries whose backoff has elapsed back
    /// to the front of the write queue (age priority, like any retry).
    fn release_deferred_repairs(&mut self, now: SimTime) {
        if self.deferred_repairs.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.deferred_repairs.len() {
            if self.deferred_repairs[i].0 <= now {
                let (_, req) = self
                    .deferred_repairs
                    .remove(i)
                    .expect("index checked in range");
                self.queues.requeue_front(req, false);
            } else {
                i += 1;
            }
        }
    }

    fn roll_periods(&mut self, now: SimTime) {
        let Some(quota) = &mut self.quota else {
            return;
        };
        while now >= self.next_period_at {
            let wear: Vec<f64> = self.ledger.iter().map(|b| b.total_wear).collect();
            quota.start_period(&wear);
            self.next_period_at += self.cfg.sample_period;
        }
    }

    fn update_drain_state(&mut self, now: SimTime) {
        if !self.draining && self.queues.write_len() >= self.cfg.drain_high {
            self.draining = true;
            self.stats.write_drains += 1;
            self.drain_tracker.set_busy(now);
        } else if self.draining && self.queues.write_len() <= self.cfg.drain_low {
            self.draining = false;
            self.drain_tracker.set_idle(now);
        }
    }

    /// Cancels or pauses writes in flight at banks where a read waits.
    /// Visits only banks that are writing and have a queued read.
    fn cancel_writes_for_reads(&mut self, now: SimTime) {
        if self.draining {
            return; // drains must make forward progress
        }
        // Each visit changes only its own bank's bits.
        for bank_idx in bankmask::banks(self.queues.read_banks() & self.banks.writing) {
            if self.queues.reads_at(bank_idx) == 0 {
                continue;
            }
            let Some(op) = self.banks.in_flight[bank_idx] else {
                continue;
            };
            if op.kind == OpKind::Read || !self.policy.cancellable(op.speed) || now >= op.end {
                continue;
            }
            // Cancel or pause: yield the bank to the read and re-queue
            // the write at the front so it keeps its age priority.
            let in_pulse = now >= op.pulse_start;
            let pulse = op.end.saturating_since(op.pulse_start);
            let done = now.saturating_since(op.pulse_start);
            // Fraction of this *segment* driven so far.
            // `fraction_of` is 0.0 on an empty pulse, and `done` is
            // clamped below `pulse` by the `now < op.end` guard above.
            let segment_fraction = done.fraction_of(pulse).clamp(0.0, 1.0);
            // Fraction of the whole pulse driven (across pause resumes).
            let progress = 1.0 - op.remaining_at_start + op.remaining_at_start * segment_fraction;
            // Threshold rule [18]: a nearly-finished pulse runs to
            // completion; a repeatedly-yielding write stops yielding.
            if progress >= self.cfg.cancel_threshold || op.cancels >= self.cfg.max_cancels {
                continue;
            }
            let remaining = if self.policy.pause_writes {
                // Pause: progress is preserved; wear and energy are
                // charged once, at completion, for the full pulse.
                self.stats.writes_paused += 1;
                (1.0 - progress).max(0.0)
            } else {
                // Abort: the driven fraction is wasted — charge its wear
                // and energy, and restart from scratch.
                let factor = op.factor;
                let phys = self.leveler.remap(bank_idx, op.mapping.block);
                let charged = op.remaining_at_start * segment_fraction;
                self.ledger
                    .record_cancelled(bank_idx, Some(phys), factor, charged);
                self.energy
                    .add_cancelled(op.speed == WriteSpeed::Slow, charged);
                self.stats.writes_cancelled += 1;
                1.0
            };
            // Refund the unspent busy time (saturating: the issue may
            // predate a measurement reset that zeroed busy_time).
            self.banks.busy_time[bank_idx] =
                self.banks.busy_time[bank_idx].saturating_sub(op.end.saturating_since(now));
            self.banks.busy_until[bank_idx] = now;
            self.banks.set_in_flight(bank_idx, None);
            if !in_pulse {
                // The line was still bursting over the bus: no data has
                // reached the bank, so the retry is not `data_resident`,
                // and the aborted transfer's bus slot is released. (Bus
                // reservations grow strictly, so `bus_free_at` equals
                // this op's `pulse_start` exactly when it still holds
                // the newest reservation.)
                self.stats.pre_pulse_cancels += 1;
                if self.bus_free_at == op.pulse_start {
                    self.bus_free_at = now;
                }
            }
            let req = QueuedReq {
                data_resident: in_pulse,
                cancels: op.cancels + 1,
                remaining,
                ..op.requeued(op.retries)
            };
            self.queues
                .requeue_front(req, op.kind == OpKind::EagerWrite);
        }
    }

    fn bank_view(&self, bank: usize) -> BankQueueView {
        BankQueueView::new(
            self.queues.reads_at(bank),
            self.queues.writes_at(bank),
            self.queues.eager_at(bank),
            self.quota
                .as_ref()
                .map(|q| q.exceeded(bank))
                .unwrap_or(false),
        )
    }

    /// Banks whose queues hold work the current mode may issue: demand
    /// writes while draining, any kind otherwise.
    #[inline]
    fn issueable_banks(&self) -> u64 {
        if self.draining {
            self.queues.write_banks()
        } else {
            self.queues.read_banks() | self.queues.write_banks() | self.queues.eager_banks()
        }
    }

    /// One round-robin arbitration pass over the banks that can act:
    /// those with no op in flight and issueable work (any bank while the
    /// scrubber runs), visited in round-robin order from `rr_start`.
    /// Returns whether any activation was blocked by tFAW (it must retry
    /// next cycle).
    fn issue(&mut self, now: SimTime) -> bool {
        let n = self.banks.len();
        let start = self.rr_start;
        self.rr_start = (self.rr_start + 1) % n;
        let mut tfaw_blocked = false;
        // Completions have retired, so a bank with an op in flight stays
        // busy until that op's end, past `now`: it cannot act.
        debug_assert!(
            bankmask::banks(self.banks.busy)
                .all(|b| self.banks.busy_until[b] == self.banks.op_end[b]
                    && self.banks.op_end[b] > now)
        );
        let candidates = if self.scrub_active() {
            bankmask::all_banks(n)
        } else {
            self.issueable_banks()
        };
        // A visit changes only its own bank's bits (a scrub repair
        // targets the visited bank), so the mask taken here stays exact
        // for the banks still to come.
        for bank_idx in bankmask::banks_from(candidates & !self.banks.busy, start) {
            if now < self.banks.busy_until[bank_idx] {
                continue;
            }
            let scrub_due = self.scrub_due(bank_idx, now);
            if self.draining {
                if self.queues.writes_at(bank_idx) > 0 {
                    let view = self.bank_view(bank_idx);
                    let speed = demand_speed(&self.policy, view);
                    self.debug_check_write_issue(bank_idx, view, OpKind::DemandWrite, speed);
                    let req = self
                        .queues
                        .take_write(bank_idx)
                        .expect("occupancy implies a queued write");
                    self.issue_write(bank_idx, req, speed, OpKind::DemandWrite, now);
                    if scrub_due {
                        self.scrub_stats.scrub_bank_conflicts += 1;
                    }
                } else if scrub_due {
                    // A drain only commits banks with queued writes;
                    // this one is idle, so the scrubber may use it.
                    self.scrub_visit(bank_idx, now);
                }
                continue; // reads are blocked while draining
            }
            // Reads have priority: row-buffer hit first, then oldest.
            if let Some((req, pick)) = self
                .queues
                .pick_read(bank_idx, self.banks.open_row[bank_idx])
            {
                if !self.issue_read(bank_idx, req, pick, now) {
                    tfaw_blocked = true; // retry next cycle
                } else if scrub_due {
                    self.scrub_stats.scrub_bank_conflicts += 1;
                }
                continue;
            }
            let view = self.bank_view(bank_idx);
            match decide_write(&self.policy, view) {
                WriteDecision::Demand(speed) => {
                    self.debug_check_write_issue(bank_idx, view, OpKind::DemandWrite, speed);
                    let req = self
                        .queues
                        .take_write(bank_idx)
                        .expect("decision implies a queued write");
                    self.issue_write(bank_idx, req, speed, OpKind::DemandWrite, now);
                    if scrub_due {
                        self.scrub_stats.scrub_bank_conflicts += 1;
                    }
                }
                WriteDecision::Eager(speed) => {
                    // Eager writes and scrub visits both live off
                    // idle-bank windows; the eager write wins.
                    self.debug_check_write_issue(bank_idx, view, OpKind::EagerWrite, speed);
                    let req = self
                        .queues
                        .take_eager(bank_idx)
                        .expect("decision implies a queued eager write");
                    self.issue_write(bank_idx, req, speed, OpKind::EagerWrite, now);
                    if scrub_due {
                        self.scrub_stats.scrub_bank_conflicts += 1;
                    }
                }
                WriteDecision::Idle => {
                    if scrub_due {
                        self.scrub_visit(bank_idx, now);
                    }
                }
            }
        }
        tfaw_blocked
    }

    /// Debug builds: the paper's issue-path invariants for a write about
    /// to issue to `bank_idx`, whose queues `view` shows (the write
    /// included). An Eager write (§IV-B) goes only to an otherwise idle
    /// bank — nothing in flight, no queued read or demand write — and
    /// goes slow whenever the bank is over its Wear Quota or the base
    /// policy writes eager data slow. A Bank-Aware slow demand write
    /// (§IV-A) that the quota did not force is its bank's lone queued
    /// op.
    fn debug_check_write_issue(
        &self,
        bank_idx: usize,
        view: BankQueueView,
        kind: OpKind,
        speed: WriteSpeed,
    ) {
        if !cfg!(debug_assertions) {
            return;
        }
        let base = self.policy.base;
        match kind {
            OpKind::EagerWrite => {
                debug_assert!(
                    self.banks.busy & 1 << bank_idx == 0
                        && view.reads_waiting == 0
                        && view.writes_waiting == 0,
                    "eager write issued to non-idle bank {bank_idx}: {view:?}"
                );
                if view.quota_exceeded || base.eager_speed() == WriteSpeed::Slow {
                    debug_assert_eq!(speed, WriteSpeed::Slow, "eager write at {view:?}");
                }
            }
            OpKind::DemandWrite => {
                if base.bank_aware() && speed == WriteSpeed::Slow && !view.quota_exceeded {
                    debug_assert!(
                        view.writes_waiting == 1 && view.reads_waiting == 0,
                        "bank-aware slow write to bank {bank_idx} with other work: {view:?}"
                    );
                }
            }
            OpKind::Read => {}
        }
    }

    /// Returns `false` when tFAW blocks the needed activation (the read
    /// stays queued; `pick` is dropped untouched).
    fn issue_read(
        &mut self,
        bank_idx: usize,
        req: QueuedReq,
        pick: ReadPick,
        now: SimTime,
    ) -> bool {
        let hit = self.banks.open_row[bank_idx] == Some(req.row);
        if !hit && !self.try_activate(self.cfg.rank_of(bank_idx), now) {
            return false;
        }
        self.queues.remove_read(pick);
        let access_done = if hit {
            now + self.cfg.t_cas
        } else {
            self.banks.open_row[bank_idx] = Some(req.row);
            now + self.cfg.t_rcd + self.cfg.t_cas
        };
        let xfer_start = access_done.max(self.bus_free_at);
        let end = xfer_start + self.cfg.t_bus;
        self.bus_free_at = end;
        if hit {
            self.energy.add_rb_hit_read();
            self.stats.rb_hit_reads += 1;
        } else {
            self.energy.add_buffer_read();
            self.stats.rb_miss_reads += 1;
        }
        let serial = self.alloc_serial();
        self.banks.busy_time[bank_idx] += end.saturating_since(now);
        self.banks.busy_until[bank_idx] = end;
        let op = InFlight {
            serial,
            kind: OpKind::Read,
            line: req.line,
            mapping: self.cfg.map_line(req.line),
            speed: WriteSpeed::Normal,
            factor: 1.0,
            cancels: 0,
            retries: 0,
            repair: false,
            enq: req.enq,
            remaining_at_start: 0.0,
            pulse_start: end,
            end,
        };
        self.banks.set_in_flight(bank_idx, Some(op));
        true
    }

    fn issue_write(
        &mut self,
        bank_idx: usize,
        req: QueuedReq,
        speed: WriteSpeed,
        kind: OpKind,
        now: SimTime,
    ) {
        let factor = match speed {
            WriteSpeed::Normal => 1.0,
            // +GR: grade the slowdown by write-queue pressure. Repair
            // rewrites enter past the cap, so occupancy saturates at 1.
            WriteSpeed::Slow => self.policy.slow_factor_for_occupancy(
                (self.queues.write_len() as f64 / self.cfg.write_queue_cap as f64).min(1.0),
            ),
        };
        // A resumed (+WP) write only drives its outstanding fraction.
        let pulse = self.cfg.t_wp.scale(factor * req.remaining);
        // A cancelled write's data is still latched at the bank: its
        // retry starts the pulse immediately without re-bursting data.
        let pulse_start = if req.data_resident {
            now
        } else {
            let xfer_start = now.max(self.bus_free_at);
            self.bus_free_at = xfer_start + self.cfg.t_bus;
            xfer_start + self.cfg.t_bus
        };
        let end = pulse_start + pulse;
        if factor > 1.0 {
            self.stats.writes_issued_slow += 1;
        } else {
            self.stats.writes_issued_normal += 1;
        }
        let serial = self.alloc_serial();
        self.banks.busy_time[bank_idx] += end.saturating_since(now);
        self.banks.busy_until[bank_idx] = end;
        let op = InFlight {
            serial,
            kind,
            line: req.line,
            mapping: self.cfg.map_line(req.line),
            speed,
            factor,
            cancels: req.cancels,
            retries: req.retries,
            repair: req.repair,
            enq: req.enq,
            remaining_at_start: req.remaining,
            pulse_start,
            end,
        };
        self.banks.set_in_flight(bank_idx, Some(op));
    }

    fn try_activate(&mut self, rank: usize, now: SimTime) -> bool {
        let acts = &mut self.rank_acts[rank];
        while acts
            .front()
            .is_some_and(|&t| now.saturating_since(t) >= self.cfg.t_faw)
        {
            acts.pop_front();
        }
        if acts.len() >= 4 {
            return false;
        }
        acts.push_back(now);
        true
    }

    /// Returns each bank's utilization (busy fraction) over `elapsed`.
    pub fn bank_utilization(&self, elapsed: Duration) -> Vec<f64> {
        self.banks
            .busy_time
            .iter()
            .map(|b| b.fraction_of(elapsed))
            .collect()
    }

    /// Returns the mean bank utilization over `elapsed` (Figs. 3, 12).
    pub fn avg_bank_utilization(&self, elapsed: Duration) -> f64 {
        let v = self.bank_utilization(elapsed);
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// Returns the total time spent in write-drain mode up to `now`
    /// (Fig. 13).
    pub fn drain_time(&self, now: SimTime) -> Duration {
        self.drain_tracker.busy_time(now)
    }

    /// Returns `true` while a write drain is in progress.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Projects memory lifetime from the wear accumulated over `elapsed`
    /// (the paper's cyclic-execution methodology).
    pub fn lifetime(&self, elapsed: Duration) -> LifetimeProjection {
        let model = LifetimeModel::new(
            self.endurance.base_endurance(),
            self.cfg.blocks_per_bank(),
            self.cfg.leveling_efficiency,
        );
        model.project(&self.ledger, elapsed)
    }

    /// Returns the fault-layer counters with the spares-remaining gauge
    /// filled in. With faults disabled the gauge reports the full
    /// (untouched) spare pool, so a disabled controller serializes
    /// identically to an enabled one whose fault knobs are all zero.
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = self.fault_stats.clone();
        s.spares_remaining = match self.leveler.spare_pool() {
            // A pool-owning leveler (WoLFRaM) tracks its own spares.
            Some(remaining) => remaining,
            None => match &self.faults {
                Some(f) => f.total_spares_remaining(),
                None => self.cfg.num_banks as u64 * self.leveler.fault_pool_spares(),
            },
        };
        s
    }

    /// Returns the retention-repair counters (see [`RetentionStats`] for
    /// the resolution invariant they satisfy).
    pub fn retention_stats(&self) -> &RetentionStats {
        &self.retention_stats
    }

    /// Returns the background scrub engine's counters.
    pub fn scrub_stats(&self) -> &ScrubStats {
        &self.scrub_stats
    }

    /// The active wear-leveling scheme's short name.
    pub fn leveler_name(&self) -> &'static str {
        self.leveler.name()
    }

    /// Leveling overhead/migration counters accumulated since the last
    /// [`reset_stats`](Self::reset_stats) (i.e. over the measurement
    /// window), summed across banks.
    pub fn leveler_stats(&self) -> LevelerStats {
        self.leveler.stats().since(&self.leveler_base)
    }

    /// The active leveler, for state inspection
    /// ([`WearLeveler::state_json`]) and per-bank stats.
    pub fn leveler(&self) -> &dyn WearLeveler {
        &*self.leveler
    }

    /// Fraction of physical blocks still usable: 1.0 until spare
    /// exhaustion starts declaring blocks lost.
    pub fn usable_capacity_fraction(&self) -> f64 {
        self.faults.as_ref().map_or(1.0, |f| f.usable_fraction())
    }

    /// Blocks declared lost after their bank's spare pool ran dry.
    pub fn lost_blocks(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.lost_blocks())
    }

    /// Projects the years until the usable-capacity fraction drops below
    /// `capacity_fraction`, from the wear accumulated over `elapsed`
    /// (see [`LifetimeModel::years_to_capacity`]). Uses the configured
    /// endurance variation when faults are enabled; with faults disabled
    /// every block fails at the nominal endurance and the projection
    /// collapses onto the first-failure lifetime.
    pub fn capacity_years(&self, elapsed: Duration, capacity_fraction: f64) -> f64 {
        let model = LifetimeModel::new(
            self.endurance.base_endurance(),
            self.cfg.blocks_per_bank(),
            self.cfg.leveling_efficiency,
        );
        let sigma = if self.cfg.fault.enabled {
            self.cfg.fault.endurance_sigma
        } else {
            0.0
        };
        model.years_to_capacity(&self.ledger, elapsed, sigma, capacity_fraction)
    }

    /// Returns the current read/write/eager queue occupancies.
    pub fn queue_depths(&self) -> (usize, usize, usize) {
        (
            self.queues.read_len(),
            self.queues.write_len(),
            self.queues.eager_len(),
        )
    }

    /// Returns how many banks the Wear Quota currently restricts to slow
    /// writes (0 when the policy has no `+WQ`).
    pub fn quota_restricted_banks(&self) -> usize {
        self.quota.as_ref().map_or(0, |q| q.exceeded_count())
    }

    /// Zeroes every measurement (counters, wear ledger, energy account,
    /// bank busy time, drain tracker, quota history) at an end-of-warmup
    /// boundary, preserving microarchitectural state (queues, open rows,
    /// in-flight operations, wear-leveler registers and tables).
    ///
    /// `now` re-anchors the period clock and the drain tracker.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.stats = CtrlStats::default();
        self.energy = EnergyAccount::default();
        // Fault *counters* reset with the measurement window; the fault
        // *state* (wear limits, stuck blocks, consumed spares) is device
        // state and persists, like the Start-Gap registers.
        self.fault_stats = FaultStats::default();
        // Same split for retention: counters reset, while the drift
        // table, scrub cursors, and parked repair retries persist.
        self.retention_stats = RetentionStats::default();
        self.scrub_stats = ScrubStats::default();
        self.worked_edges = 0;
        self.fast_path_edges = 0;
        // Leveler registers/tables persist as device state; snapshot
        // the counters so reported stats cover the new window.
        self.leveler_base = self.leveler.stats();
        let mut ledger = WearLedger::new(self.cfg.num_banks, self.endurance, self.cancel_wear);
        if self.ledger.block_table().is_some() {
            ledger = ledger.with_block_tracking(self.leveler.physical_blocks_per_bank());
        }
        self.ledger = ledger;
        self.banks.busy_time.fill(Duration::ZERO);
        let was_draining = self.draining;
        self.drain_tracker = BusyTracker::new();
        if was_draining {
            self.drain_tracker.set_busy(now);
        }
        if self.quota.is_some() {
            self.quota = Some(new_quota(&self.cfg, &self.endurance));
            self.next_period_at = now + self.cfg.sample_period;
        }
        self.next_actionable = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mellow_core::WritePolicy;
    use mellow_nvm::{CancelWear, EnduranceModel, ExpoFactor, RetentionConfig};

    #[test]
    fn fast_forward_idle_matches_ticked_fast_path() {
        let mk = || {
            let mut cfg = MemConfig::paper_default();
            cfg.capacity_bytes = 1 << 26;
            let mut c = Controller::new(
                cfg,
                WritePolicy::norm(),
                EnduranceModel::reram_default(),
                CancelWear::Prorated,
            );
            // Park the horizon in the future so every tick takes the
            // fast path (rotate round-robin, nothing else).
            c.next_actionable = SimTime::MAX;
            c
        };
        for edges in [0u64, 1, 15, 16, 17, 1_000_003] {
            let mut ticked = mk();
            let mut jumped = mk();
            for i in 0..edges.min(10_000) {
                ticked.tick(SimTime::from_ps(i * 2500));
            }
            jumped.fast_forward_idle(MemCycles::new(edges.min(10_000)));
            assert_eq!(ticked.rr_start, jumped.rr_start, "{edges} edges");
            // Only ticks count edges; replayed ones are not ticked.
            assert_eq!(ticked.fast_path_edges(), edges.min(10_000));
            assert_eq!(ticked.worked_edges(), 0);
            assert_eq!(jumped.fast_path_edges(), 0);
        }
        // Rotation is modular, so huge skips need no iteration at all.
        let mut far = mk();
        far.fast_forward_idle(MemCycles::new(1_000_003));
        let banks = far.banks.len() as u64;
        assert_eq!(far.rr_start as u64, 1_000_003 % banks);
    }

    #[test]
    fn same_picosecond_completions_retire_in_issue_order() {
        // Reads serialize on the shared bus, so two can never end on the
        // same picosecond through `issue`; plant them on their banks
        // directly. The older read (lower serial) sits on the
        // higher-numbered bank, so a bank-index tie-break would retire
        // the pair in the wrong order.
        let mut c = Controller::new(
            small_cfg(),
            WritePolicy::norm(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        let end = SimTime::from_ps(40 * 2500);
        for (bank, line) in [(3, 3), (1, 1)] {
            let serial = c.alloc_serial();
            c.banks.busy_until[bank] = end;
            c.banks.set_in_flight(
                bank,
                Some(InFlight {
                    serial,
                    kind: OpKind::Read,
                    line,
                    mapping: c.cfg.map_line(line),
                    speed: WriteSpeed::Normal,
                    factor: 1.0,
                    cancels: 0,
                    retries: 0,
                    repair: false,
                    enq: SimTime::ZERO,
                    remaining_at_start: 0.0,
                    pulse_start: end,
                    end,
                }),
            );
        }
        drain(&mut c, 39);
        assert_eq!(c.pop_read_done(), None, "retired before their end");
        c.tick(end);
        assert_eq!(c.pop_read_done(), Some(3), "older op must retire first");
        assert_eq!(c.pop_read_done(), Some(1));
        assert!(c.banks.op_end.iter().all(|&t| t == SimTime::MAX));
    }

    #[test]
    fn round_robin_origin_decides_which_free_bank_gets_the_bus_first() {
        // Banks 1 and 3 each hold one read and are free on the same
        // edge. Both reads issue on it, and the bank visited first takes
        // the shared bus first, so its read returns first.
        for (origin, order) in [(0, [1, 3]), (1, [1, 3]), (2, [3, 1]), (3, [3, 1])] {
            let mut c = Controller::new(
                small_cfg(),
                WritePolicy::norm(),
                EnduranceModel::reram_default(),
                CancelWear::Prorated,
            );
            c.fast_forward_idle(MemCycles::new(origin));
            for line in [1, 3] {
                assert!(c.try_read(line, SimTime::ZERO));
            }
            drain(&mut c, 200);
            let done: Vec<_> = std::iter::from_fn(|| c.pop_read_done()).collect();
            assert_eq!(done, order, "round-robin origin {origin}");
        }
    }

    #[test]
    fn repair_past_a_full_write_queue_reads_as_full() {
        // Repair rewrites enter the write queue past its cap. A slow
        // write graded against that queue must read it as full, not
        // hand the policy an occupancy above 1.
        let mut c = Controller::new(
            small_cfg(),
            WritePolicy::slow(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        let cap = c.cfg.write_queue_cap;
        for line in 0..cap as u64 {
            assert!(c.try_write(line, SimTime::ZERO));
        }
        // Two repairs: the issue path takes its write off the queue
        // before grading, so one overflow entry would still read as 1.
        c.enqueue_repair(cap as u64, SimTime::ZERO);
        c.enqueue_repair(cap as u64 + 1, SimTime::ZERO);
        assert_eq!(c.queue_depths().1, cap + 2);
        drain(&mut c, 1);
        assert_eq!(c.stats().writes_issued_slow, 4, "one slow write per bank");
    }

    fn small_cfg() -> MemConfig {
        let mut cfg = MemConfig::paper_default();
        cfg.capacity_bytes = 1 << 20;
        cfg.num_banks = 4;
        cfg.num_ranks = 1;
        cfg
    }

    fn drain(c: &mut Controller, cycles: u64) {
        for i in 1..=cycles {
            c.tick(SimTime::from_ps(i * 2500));
        }
    }

    #[test]
    fn failing_write_consumes_retries_then_spare_then_loses_data() {
        let mut cfg = small_cfg();
        cfg.max_write_retries = 1;
        cfg.spares_per_bank = 1;
        cfg.fault.enabled = true;
        cfg.fault.transient_rate = 1.0; // every verify fails
        let mut c = Controller::new(
            cfg,
            WritePolicy::norm(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        assert!(c.try_write(7, SimTime::ZERO));
        drain(&mut c, 10_000);
        // Attempt 1 retries, attempt 2 exhausts the budget and remaps,
        // attempt 3 retries on the spare, attempt 4 finds no spare left.
        let f = c.fault_stats();
        assert_eq!(f.verify_failures, 4);
        assert_eq!(f.retries, 2);
        assert_eq!(f.remaps, 1);
        assert_eq!(f.uncorrectable, 1);
        assert_eq!(f.verify_failures, f.retries + f.remaps + f.uncorrectable);
        // The write's bank drained its single spare; the other three
        // banks' pools are untouched.
        assert_eq!(f.spares_remaining, 3);
        assert_eq!(c.lost_blocks(), 1);
        assert!(c.usable_capacity_fraction() < 1.0);
        // Nothing completed, but all four driven pulses charged wear.
        assert_eq!(c.stats().writes_completed_normal, 0);
        assert!((c.ledger().total_wear() - 4.0).abs() < 1e-12);
        // The lost line left the pending index: a later read must go to
        // the array instead of forwarding stale write data.
        assert!(c.try_read(7, SimTime::from_ps(10_001 * 2500)));
        assert_eq!(c.stats().reads_forwarded, 0);
    }

    #[test]
    fn clean_fault_layer_leaves_writes_untouched() {
        let mut cfg = small_cfg();
        cfg.fault.enabled = true; // all knobs zero: nothing can fail
        let mut c = Controller::new(
            cfg,
            WritePolicy::norm(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        assert!(c.try_write(3, SimTime::ZERO));
        drain(&mut c, 1_000);
        assert_eq!(c.stats().writes_completed_normal, 1);
        let f = c.fault_stats();
        assert_eq!(f.verify_failures, 0);
        assert_eq!(f.spares_remaining, 4 * 8);
        assert_eq!(c.usable_capacity_fraction(), 1.0);
    }

    #[test]
    fn disabled_faults_report_the_full_spare_pool() {
        let c = Controller::new(
            small_cfg(),
            WritePolicy::norm(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        let f = c.fault_stats();
        assert_eq!(
            f,
            FaultStats {
                spares_remaining: 4 * 8,
                ..FaultStats::default()
            }
        );
        assert_eq!(c.usable_capacity_fraction(), 1.0);
        assert_eq!(c.lost_blocks(), 0);
    }

    /// A 16 KiB / 4-bank config (64 logical blocks per bank) with the
    /// drift layer on: base retention 10 µs, no spread, and a 1 µs
    /// scrub interval, so one full scrub sweep of a bank takes 64 µs.
    fn retention_cfg() -> MemConfig {
        let mut cfg = MemConfig::paper_default();
        cfg.capacity_bytes = 1 << 14;
        cfg.num_banks = 4;
        cfg.num_ranks = 1;
        cfg.retention = RetentionConfig {
            enabled: true,
            base_retention: Duration::from_us(10),
            drift_sigma: 0.0,
            slow_write_boost: 0.0,
            wear_sensitivity: 0.0,
            seed: 0xD21F,
        };
        cfg.scrub_interval = Duration::from_us(1);
        cfg
    }

    fn run_span(c: &mut Controller, from_cycle: u64, to_cycle: u64) {
        for i in (from_cycle + 1)..=to_cycle {
            c.tick(SimTime::from_ps(i * 2500));
        }
    }

    #[test]
    fn scrubber_detects_and_repairs_expired_blocks() {
        let mut c = Controller::new(
            retention_cfg(),
            WritePolicy::norm(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        // Line 7 = bank 3, block 1: stamped at completion (~0.4 µs),
        // expired on the scrubber's second visit to block 1 (~66 µs)
        // and on every 64 µs revisit after the repair restamps it.
        assert!(c.try_write(7, SimTime::ZERO));
        run_span(&mut c, 0, 60_000); // 150 µs
        let s = c.scrub_stats().clone();
        let r = c.retention_stats().clone();
        assert_eq!(s.scrub_rewrites, 2, "{s:?}");
        assert_eq!(r.demand_verify_failures, 0);
        assert_eq!(r.repairs, 2, "{r:?}");
        assert_eq!(r.retention_uncorrectable, 0);
        assert_eq!(
            r.demand_verify_failures + s.scrub_rewrites,
            r.repairs + r.retention_uncorrectable
        );
        // ~1 visit per µs per bank, minus busy windows.
        assert!(s.scrub_reads >= 400, "{s:?}");
        // Repairs are not demand completions: the host wrote once.
        assert_eq!(c.stats().writes_completed_normal, 1);
        // No fault layer: repairs cannot fail, nothing is lost.
        assert_eq!(c.fault_stats().verify_failures, 0);
        assert_eq!(c.usable_capacity_fraction(), 1.0);
    }

    #[test]
    fn demand_read_detects_expired_block_and_repairs() {
        let mut cfg = retention_cfg();
        cfg.scrub_interval = Duration::ZERO; // no scrubber: reads detect
        let mut c = Controller::new(
            cfg,
            WritePolicy::norm(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        assert!(c.try_write(7, SimTime::ZERO));
        run_span(&mut c, 0, 8_000); // 20 µs: the block is past deadline
        assert_eq!(c.scrub_stats().scrub_reads, 0);
        assert!(c.try_read(7, SimTime::from_ps(8_000 * 2500)));
        run_span(&mut c, 8_000, 10_000);
        assert_eq!(c.pop_read_done(), Some(7));
        let r = c.retention_stats().clone();
        assert_eq!(r.demand_verify_failures, 1);
        assert_eq!(r.repairs, 1, "{r:?}");
        // The repair restamped the clock: a prompt re-read is clean.
        assert!(c.try_read(7, SimTime::from_ps(10_000 * 2500)));
        run_span(&mut c, 10_000, 12_000);
        assert_eq!(c.pop_read_done(), Some(7));
        assert_eq!(c.retention_stats().demand_verify_failures, 1);
    }

    #[test]
    fn repair_write_failures_walk_the_remap_path() {
        let mut cfg = retention_cfg();
        cfg.max_write_retries = 1;
        cfg.spares_per_bank = 1;
        cfg.fault.enabled = true; // sigma 0: every block endures 2 writes
        let mut c = Controller::new(
            cfg,
            WritePolicy::norm(),
            // Two writes per cell group: the host write spends one, so
            // every repair rewrite to the original group fails verify.
            EnduranceModel::new(Duration::from_ns(150), 2.0, ExpoFactor::QUADRATIC),
            CancelWear::Prorated,
        );
        assert!(c.try_write(7, SimTime::ZERO));
        // First expiry (~66 µs): repair fails, backs off, fails again,
        // remaps to the bank's one spare, succeeds there. Second expiry
        // (~130 µs): the spare also has one write spent, so the repair
        // fails through the empty pool and the block's data is lost.
        run_span(&mut c, 0, 60_000); // 150 µs
        let s = c.scrub_stats().clone();
        let r = c.retention_stats().clone();
        let f = c.fault_stats();
        assert_eq!(s.scrub_rewrites, 2, "{s:?}");
        assert_eq!(r.repairs, 1, "{r:?}");
        assert_eq!(r.retention_uncorrectable, 1);
        assert_eq!(
            r.demand_verify_failures + s.scrub_rewrites,
            r.repairs + r.retention_uncorrectable
        );
        assert_eq!(f.verify_failures, 4, "{f:?}");
        assert_eq!(f.retries, 2);
        assert_eq!(f.remaps, 1);
        assert_eq!(f.uncorrectable, 1);
        assert_eq!(f.verify_failures, f.retries + f.remaps + f.uncorrectable);
        assert_eq!(c.lost_blocks(), 1);
        assert!(c.usable_capacity_fraction() < 1.0);
        // The forgotten block stops re-detecting: nothing accrues after
        // the loss even though the scrubber keeps sweeping.
        run_span(&mut c, 60_000, 120_000);
        assert_eq!(c.scrub_stats().scrub_rewrites, 2);
        assert_eq!(c.retention_stats().retention_uncorrectable, 1);
    }

    #[test]
    fn eager_write_wins_idle_bank_window_over_due_scrub() {
        let mut cfg = retention_cfg();
        cfg.retention.base_retention = Duration::from_ns(1_000_000); // never expires here
        cfg.scrub_interval = Duration::from_ps(2500); // due every edge
        let mut c = Controller::new(
            cfg,
            WritePolicy::be_mellow_sc(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        c.try_eager(0, SimTime::ZERO); // bank 0
        c.tick(SimTime::from_ps(2500));
        // The eager write wins bank 0 (one counted conflict); the three
        // idle banks scrub.
        assert_eq!(c.queue_depths().2, 0);
        assert_eq!(c.scrub_stats().scrub_reads, 3);
        assert_eq!(c.scrub_stats().scrub_bank_conflicts, 1);
    }

    #[test]
    fn zero_knob_retention_layer_is_inert() {
        let run = |enabled: bool| {
            let mut cfg = small_cfg();
            if enabled {
                cfg.retention.enabled = true;
                cfg.retention.base_retention = Duration::ZERO;
                cfg.retention.seed = 99;
                cfg.scrub_interval = Duration::ZERO;
            }
            let mut c = Controller::new(
                cfg,
                WritePolicy::be_mellow_sc(),
                EnduranceModel::reram_default(),
                CancelWear::Prorated,
            );
            assert!(c.try_write(3, SimTime::ZERO));
            c.try_eager(8, SimTime::ZERO);
            assert!(c.try_read(21, SimTime::ZERO));
            drain(&mut c, 5_000);
            format!(
                "{:?} {:?} {:?} {:?}",
                c.stats(),
                c.fault_stats(),
                c.retention_stats(),
                c.scrub_stats()
            )
        };
        assert_eq!(run(false), run(true));
    }
}
