//! The ROB/issue-width-limited core model.

use crate::{TraceRecord, TraceSource};
use mellow_engine::CoreCycles;
use std::collections::VecDeque;

/// A unique identifier for an in-flight memory access issued by the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// A memory access the core wants the hierarchy to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Identifier echoed back via [`Core::complete`].
    pub id: ReqId,
    /// Byte address.
    pub addr: u64,
    /// `true` for a store.
    pub is_store: bool,
}

/// Core configuration (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions dispatched and retired per cycle (paper: 8).
    pub issue_width: u32,
    /// Reorder-buffer capacity in instructions.
    pub rob_entries: u32,
    /// Memory operations issued to the L1 per cycle.
    pub mem_issue_width: u32,
}

impl Default for CoreConfig {
    /// The paper's 8-issue out-of-order core with a 192-entry window.
    fn default() -> Self {
        CoreConfig {
            issue_width: 8,
            rob_entries: 192,
            mem_issue_width: 2,
        }
    }
}

/// What a [`Core::tick`] would do in the core's current state — the
/// core's next-event hook for the system's fast-forward loop.
///
/// The core is self-clocked (it has no scheduled future events), so its
/// contract is a state classification rather than a time: `Active`
/// means "I act every cycle, do not skip"; the `Blocked` variants mean
/// "until [`Core::complete`] is called, every tick is the same no-op,
/// batchable via [`Core::fast_forward`]".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStall {
    /// The core would retire, dispatch, or issue something this cycle
    /// (or its state is not provably stable); it must be ticked.
    Active,
    /// ROB full, head blocked on an outstanding load, no memory op
    /// issueable: a tick only counts a blocked cycle.
    Blocked,
    /// As [`Blocked`](Self::Blocked), except one issueable memory op
    /// re-attempts issue every cycle. The owner decides whether that
    /// attempt is a batchable no-op (the L1 input queue is full, so the
    /// attempt is rejected without touching core state) or real
    /// progress.
    BlockedWantsIssue,
}

/// Counters exposed by the core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired_instructions: u64,
    /// Core cycles elapsed.
    pub cycles: CoreCycles,
    /// Loads dispatched into the ROB.
    pub loads: u64,
    /// Stores dispatched into the ROB.
    pub stores: u64,
    /// Cycles in which the ROB head was an incomplete load (nothing
    /// retired).
    pub head_blocked_cycles: CoreCycles,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemState {
    Waiting,
    Issued,
    Done,
}

/// One memory op in the ROB, carrying the run of non-memory
/// instructions dispatched between the previous memory op and it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemEntry {
    /// Non-memory instructions older than this op and younger than the
    /// memory op before it.
    before: u32,
    addr: u64,
    is_store: bool,
    depends: bool,
    state: MemState,
}

impl MemEntry {
    /// Loads retire once their data arrived, stores once the L1
    /// accepted them.
    fn retirable(&self) -> bool {
        match self.state {
            MemState::Waiting => false,
            MemState::Issued => self.is_store,
            MemState::Done => true,
        }
    }
}

/// Moves `cursor`, an id in the ROB window, forward past every op
/// `skip` accepts.
fn advance(rob: &VecDeque<MemEntry>, head_id: u64, cursor: &mut u64, skip: fn(&MemEntry) -> bool) {
    let mut i = (*cursor - head_id) as usize;
    while rob.get(i).is_some_and(skip) {
        i += 1;
    }
    *cursor = head_id + i as u64;
}

/// The trace-driven out-of-order core.
///
/// Drive it one cycle at a time with [`tick`](Self::tick), passing a
/// closure that attempts to hand a [`MemAccess`] to the memory hierarchy
/// (returning `false` to stall the core when the L1 cannot accept it).
/// Report load completions with [`complete`](Self::complete).
///
/// The ROB holds only its memory ops, in program order; each folds the
/// non-memory run ahead of it into a count. Ids are handed out one per
/// memory op, so the op with id `head_id + i` sits at index `i`: a
/// completion is an index, and issue starts from cursors on the oldest
/// `Waiting` and oldest not-`Done` op instead of scanning from the
/// head. Per-cycle cost follows the work done, not the ROB size.
///
/// See the crate-level documentation for an end-to-end example.
pub struct Core {
    cfg: CoreConfig,
    trace: Box<dyn TraceSource>,
    /// The memory ops in the ROB, oldest first.
    rob: VecDeque<MemEntry>,
    /// Id of `rob[0]`; the next id handed out is `head_id + rob.len()`.
    head_id: u64,
    /// Non-memory instructions younger than the youngest memory op.
    tail_nonmem: u32,
    /// ROB occupancy in instructions.
    rob_insts: u32,
    /// Non-memory instructions of the current record not yet dispatched.
    pending_nonmem: u32,
    /// The current record's memory op, once its `nonmem` prefix is in.
    pending_op: Option<crate::MemOp>,
    /// Ops in `MemState::Waiting`.
    waiting_ops: u32,
    /// `Waiting` ops without `depends`: the only ones that may issue
    /// behind an incomplete op.
    waiting_free: u32,
    /// Id of the oldest `Waiting` op, or the next id if none. States
    /// only move `Waiting → Issued → Done` and ops append at the tail,
    /// so this cursor and `first_open` only move forward.
    first_waiting: u64,
    /// Id of the oldest op not `Done`, or the next id if none.
    first_open: u64,
    stats: CoreStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cfg", &self.cfg)
            .field("rob_insts", &self.rob_insts)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core reading from `trace`.
    ///
    /// # Panics
    ///
    /// Panics if any width in `cfg` is zero.
    pub fn new(cfg: CoreConfig, trace: Box<dyn TraceSource>) -> Self {
        assert!(cfg.issue_width > 0, "issue width must be non-zero");
        assert!(cfg.rob_entries > 0, "ROB size must be non-zero");
        assert!(
            cfg.mem_issue_width > 0,
            "memory issue width must be non-zero"
        );
        Core {
            cfg,
            trace,
            rob: VecDeque::new(),
            head_id: 0,
            tail_nonmem: 0,
            rob_insts: 0,
            pending_nonmem: 0,
            pending_op: None,
            waiting_ops: 0,
            waiting_free: 0,
            first_waiting: 0,
            first_open: 0,
            stats: CoreStats::default(),
        }
    }

    /// Advances the core by one cycle: retires from the ROB head,
    /// dispatches new instructions, and issues ready memory operations
    /// through `issue`.
    ///
    /// `issue` returns `true` when the hierarchy accepted the access;
    /// on `false` the core stops issuing for this cycle and retries next
    /// cycle.
    pub fn tick<F: FnMut(MemAccess) -> bool>(&mut self, issue: F) {
        self.retire();
        self.dispatch();
        self.issue_ready(issue);
        self.stats.cycles += CoreCycles::ONE;
    }

    fn retire(&mut self) {
        let mut budget = self.cfg.issue_width;
        let mut head_blocked = false;
        while budget > 0 {
            // The non-memory run ahead of the oldest memory op.
            let run = match self.rob.front_mut() {
                Some(head) => &mut head.before,
                None => &mut self.tail_nonmem,
            };
            let take = (*run).min(budget);
            *run -= take;
            budget -= take;
            if budget == 0 {
                break;
            }
            match self.rob.front() {
                Some(head) if head.retirable() => {
                    self.rob.pop_front();
                    self.head_id += 1;
                    budget -= 1;
                }
                Some(head) => {
                    head_blocked = !head.is_store;
                    break;
                }
                None => break,
            }
        }
        let retired = self.cfg.issue_width - budget;
        self.rob_insts -= retired;
        self.stats.retired_instructions += u64::from(retired);
        if retired == 0 && head_blocked {
            self.stats.head_blocked_cycles += CoreCycles::ONE;
        }
        // A store retires once issued, so the oldest open op may have
        // left the ROB.
        if self.first_open < self.head_id {
            self.first_open = self.head_id;
            advance(&self.rob, self.head_id, &mut self.first_open, |e| {
                e.state == MemState::Done
            });
        }
    }

    fn dispatch(&mut self) {
        let mut budget = self.cfg.issue_width;
        while budget > 0 && self.rob_insts < self.cfg.rob_entries {
            if self.pending_nonmem == 0 && self.pending_op.is_none() {
                let TraceRecord { nonmem, op } = self.trace.next_record();
                self.pending_nonmem = nonmem;
                self.pending_op = op;
                if nonmem == 0 && op.is_none() {
                    // An empty record would spin the dispatcher forever.
                    continue;
                }
            }
            if self.pending_nonmem > 0 {
                let room = self.cfg.rob_entries - self.rob_insts;
                let take = self.pending_nonmem.min(budget).min(room);
                self.pending_nonmem -= take;
                self.rob_insts += take;
                self.tail_nonmem += take;
                budget -= take;
                if self.pending_nonmem > 0 {
                    break; // budget or ROB exhausted mid-run
                }
            }
            if budget > 0 && self.rob_insts < self.cfg.rob_entries {
                if let Some(op) = self.pending_op.take() {
                    if op.is_store {
                        self.stats.stores += 1;
                    } else {
                        self.stats.loads += 1;
                    }
                    self.rob.push_back(MemEntry {
                        before: std::mem::take(&mut self.tail_nonmem),
                        addr: op.addr,
                        is_store: op.is_store,
                        depends: op.depends_on_prev,
                        state: MemState::Waiting,
                    });
                    self.waiting_ops += 1;
                    self.waiting_free += u32::from(!op.depends_on_prev);
                    self.rob_insts += 1;
                    budget -= 1;
                }
            }
        }
    }

    fn issue_ready<F: FnMut(MemAccess) -> bool>(&mut self, mut issue: F) {
        if self.waiting_ops == 0 {
            return;
        }
        // Every op older than the oldest Waiting one is Issued or Done.
        let mut earlier_incomplete = self.first_open < self.first_waiting;
        // Independent Waiting ops not yet passed: once an earlier op is
        // incomplete, no other op can issue.
        let mut free_left = self.waiting_free;
        let (mut issued, mut issued_free) = (0, 0);
        let start = (self.first_waiting - self.head_id) as usize;
        for (id, entry) in (self.first_waiting..).zip(self.rob.range_mut(start..)) {
            if issued >= self.cfg.mem_issue_width || (earlier_incomplete && free_left == 0) {
                break;
            }
            if entry.state == MemState::Waiting {
                free_left -= u32::from(!entry.depends);
                if !(entry.depends && earlier_incomplete) {
                    let access = MemAccess {
                        id: ReqId(id),
                        addr: entry.addr,
                        is_store: entry.is_store,
                    };
                    if !issue(access) {
                        // The hierarchy is full; no point trying younger ops.
                        break;
                    }
                    entry.state = MemState::Issued;
                    issued += 1;
                    issued_free += u32::from(!entry.depends);
                }
            }
            earlier_incomplete |= entry.state != MemState::Done;
        }
        self.waiting_ops -= issued;
        self.waiting_free -= issued_free;
        advance(&self.rob, self.head_id, &mut self.first_waiting, |e| {
            e.state != MemState::Waiting
        });
    }

    /// Classifies the core's current state for the fast-forward loop
    /// (see [`CoreStall`]) in O(1), from the same cursors
    /// [`tick`](Self::tick) issues from.
    ///
    /// The classification is conservative: anything not provably a
    /// stable no-op reports `Active`.
    pub fn stall(&self) -> CoreStall {
        if self.rob_insts < self.cfg.rob_entries {
            return CoreStall::Active; // dispatch would make progress
        }
        match self.rob.front() {
            // Retirement is blocked on an outstanding load (the only
            // head state `retire` counts as blocked and that only an
            // external `complete` can clear).
            Some(head) if head.before == 0 && !head.is_store && head.state != MemState::Done => {}
            _ => return CoreStall::Active,
        }
        if self.waiting_ops == 0 {
            return CoreStall::Blocked;
        }
        // Mirror `issue_ready`: the oldest Waiting op attempts issue
        // unless it depends on an incomplete older op; past it, only an
        // independent Waiting op can.
        let oldest = &self.rob[(self.first_waiting - self.head_id) as usize];
        if !oldest.depends || self.first_open == self.first_waiting || self.waiting_free > 0 {
            CoreStall::BlockedWantsIssue
        } else {
            CoreStall::Blocked
        }
    }

    /// Batch-applies `cycles` ticks spent in a [`CoreStall::Blocked`]
    /// or [`CoreStall::BlockedWantsIssue`] state: each such tick
    /// advances the cycle counter and counts one head-blocked cycle,
    /// and changes nothing else.
    pub fn fast_forward(&mut self, cycles: CoreCycles) {
        debug_assert_ne!(
            self.stall(),
            CoreStall::Active,
            "fast_forward of an active core"
        );
        self.stats.cycles += cycles;
        self.stats.head_blocked_cycles += cycles;
    }

    /// Marks the issued access `id` complete (a load's data arrived, or
    /// a store's line was filled) in O(1). Identifiers outside the ROB
    /// — e.g. stores already retired — and accesses not issued yet are
    /// ignored, as is a repeated completion.
    pub fn complete(&mut self, id: ReqId) {
        let Some(entry) =
            id.0.checked_sub(self.head_id)
                .and_then(|i| self.rob.get_mut(usize::try_from(i).ok()?))
        else {
            return;
        };
        if entry.state != MemState::Issued {
            return;
        }
        entry.state = MemState::Done;
        if id.0 == self.first_open {
            advance(&self.rob, self.head_id, &mut self.first_open, |e| {
                e.state == MemState::Done
            });
        }
    }

    /// Returns the core's counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Zeroes the counters (end-of-warmup measurement boundary). The
    /// microarchitectural state (ROB contents, trace position) is
    /// preserved.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
    }

    /// Returns instructions retired so far.
    pub fn retired_instructions(&self) -> u64 {
        self.stats.retired_instructions
    }

    /// Returns cycles elapsed so far.
    pub fn cycles(&self) -> CoreCycles {
        self.stats.cycles
    }

    /// Returns instructions per cycle so far (0.0 before the first
    /// cycle).
    pub fn ipc(&self) -> f64 {
        if self.stats.cycles.is_zero() {
            0.0
        } else {
            self.stats.retired_instructions as f64 / self.stats.cycles.as_f64()
        }
    }

    /// Returns the current ROB occupancy in instructions.
    pub fn rob_occupancy(&self) -> u32 {
        self.rob_insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemOp, TraceRecord};

    /// Emits the given records cyclically.
    struct Cycle {
        records: Vec<TraceRecord>,
        idx: usize,
    }

    impl Cycle {
        fn new(records: Vec<TraceRecord>) -> Self {
            Cycle { records, idx: 0 }
        }
    }

    impl TraceSource for Cycle {
        fn next_record(&mut self) -> TraceRecord {
            let r = self.records[self.idx % self.records.len()];
            self.idx += 1;
            r
        }
    }

    impl Core {
        /// Recomputes every derived field of the ROB by a scan from the
        /// head and reports the first one that disagrees.
        fn check_against_scan(&self) -> Result<(), String> {
            let count = |f: fn(&MemEntry) -> bool| self.rob.iter().filter(|e| f(e)).count() as u32;
            let first = |f: fn(&MemEntry) -> bool| {
                self.head_id + self.rob.iter().position(f).unwrap_or(self.rob.len()) as u64
            };
            let insts = self.tail_nonmem + self.rob.iter().map(|e| e.before + 1).sum::<u32>();
            let checks = [
                ("rob_insts", u64::from(self.rob_insts), u64::from(insts)),
                (
                    "waiting_ops",
                    u64::from(self.waiting_ops),
                    u64::from(count(|e| e.state == MemState::Waiting)),
                ),
                (
                    "waiting_free",
                    u64::from(self.waiting_free),
                    u64::from(count(|e| e.state == MemState::Waiting && !e.depends)),
                ),
                (
                    "first_waiting",
                    self.first_waiting,
                    first(|e| e.state == MemState::Waiting),
                ),
                (
                    "first_open",
                    self.first_open,
                    first(|e| e.state != MemState::Done),
                ),
            ];
            for (name, kept, scanned) in checks {
                if kept != scanned {
                    return Err(format!("{name} is {kept}, a scan finds {scanned}"));
                }
            }
            if self.rob_insts > self.cfg.rob_entries {
                return Err(format!("ROB holds {} instructions", self.rob_insts));
            }
            Ok(())
        }
    }

    fn nonmem_only() -> Box<dyn TraceSource> {
        Box::new(Cycle::new(vec![TraceRecord {
            nonmem: 100,
            op: None,
        }]))
    }

    #[test]
    fn pure_compute_hits_full_issue_width() {
        let mut core = Core::new(CoreConfig::default(), nonmem_only());
        for _ in 0..1000 {
            core.tick(|_| unreachable!("no memory ops in trace"));
        }
        // After warm-up the core retires 8 instructions per cycle.
        assert!((core.ipc() - 8.0).abs() < 0.1, "ipc = {}", core.ipc());
    }

    #[test]
    fn incomplete_load_blocks_retirement() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        // Accept every access but never complete any.
        for _ in 0..200 {
            core.tick(|_| true);
        }
        assert_eq!(core.retired_instructions(), 0);
        // ROB is full of waiting loads.
        assert_eq!(core.rob_occupancy(), 192);
        assert!(core.stats().head_blocked_cycles > CoreCycles::new(150));
    }

    #[test]
    fn completing_loads_unblocks_retirement() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 3,
            op: Some(MemOp::load(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        let mut pending = Vec::new();
        for _ in 0..500 {
            core.tick(|a| {
                pending.push(a.id);
                true
            });
            for id in pending.drain(..) {
                core.complete(id);
            }
        }
        // With instant memory the core sustains nearly full width.
        assert!(core.ipc() > 7.0, "ipc = {}", core.ipc());
    }

    #[test]
    fn stores_retire_once_issued() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::store(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        // Accept stores, never complete them: they must still retire.
        for _ in 0..100 {
            core.tick(|_| true);
        }
        assert!(core.retired_instructions() > 0);
    }

    #[test]
    fn rejected_issues_stall_and_retry() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::store(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        // Reject everything: nothing retires, nothing leaks.
        for _ in 0..50 {
            core.tick(|_| false);
        }
        assert_eq!(core.retired_instructions(), 0);
        // Now accept: forward progress resumes.
        let mut accepted = 0u32;
        for _ in 0..50 {
            core.tick(|_| {
                accepted += 1;
                true
            });
        }
        assert!(accepted > 0);
        assert!(core.retired_instructions() > 0);
    }

    #[test]
    fn dependent_loads_serialize() {
        // Chain of dependent loads: at most one may be in flight.
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64).dependent()),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        let mut in_flight: Vec<ReqId> = Vec::new();
        let mut max_in_flight = 0usize;
        for cycle in 0..400 {
            let fl = &mut in_flight;
            core.tick(|a| {
                fl.push(a.id);
                true
            });
            max_in_flight = max_in_flight.max(in_flight.len());
            // Complete each load 10 cycles after issue, FIFO.
            if cycle % 10 == 0 {
                if let Some(id) = in_flight.first().copied() {
                    in_flight.remove(0);
                    core.complete(id);
                }
            }
        }
        assert_eq!(max_in_flight, 1, "dependent chain must not overlap");
    }

    #[test]
    fn independent_loads_overlap_up_to_rob() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        let mut in_flight = 0usize;
        let mut max_in_flight = 0usize;
        for _ in 0..300 {
            let count = &mut in_flight;
            core.tick(|_| {
                *count += 1;
                true
            });
            max_in_flight = max_in_flight.max(in_flight);
        }
        // Never completing: the whole ROB fills with in-flight loads.
        assert_eq!(max_in_flight, 192);
    }

    #[test]
    fn mem_issue_width_bounds_per_cycle_issues() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64)),
        }]);
        let cfg = CoreConfig {
            mem_issue_width: 2,
            ..CoreConfig::default()
        };
        let mut core = Core::new(cfg, Box::new(trace));
        for _ in 0..20 {
            let mut this_cycle = 0;
            core.tick(|_| {
                this_cycle += 1;
                true
            });
            assert!(this_cycle <= 2);
        }
    }

    #[test]
    fn ipc_zero_before_first_cycle() {
        let core = Core::new(CoreConfig::default(), nonmem_only());
        assert_eq!(core.ipc(), 0.0);
    }

    #[test]
    fn empty_records_do_not_hang_dispatch() {
        let trace = Cycle::new(vec![
            TraceRecord {
                nonmem: 0,
                op: None,
            },
            TraceRecord {
                nonmem: 4,
                op: None,
            },
        ]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        for _ in 0..100 {
            core.tick(|_| true);
        }
        assert!(core.retired_instructions() > 300);
    }

    #[test]
    fn stall_classification_tracks_rob_state() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        assert_eq!(core.stall(), CoreStall::Active, "empty ROB dispatches");

        // Accept every access: the ROB fills with Issued loads that
        // never complete — fully blocked.
        for _ in 0..200 {
            core.tick(|_| true);
        }
        assert_eq!(core.rob_occupancy(), 192);
        assert_eq!(core.stall(), CoreStall::Blocked);

        // Reject every access: the ROB fills with Waiting loads that
        // re-attempt issue each cycle.
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        for _ in 0..200 {
            core.tick(|_| false);
        }
        assert_eq!(core.rob_occupancy(), 192);
        assert_eq!(core.stall(), CoreStall::BlockedWantsIssue);
    }

    #[test]
    fn dependent_waiting_ops_do_not_want_issue() {
        // Head load issued, everything behind it dependent: the core is
        // fully blocked even though Waiting entries exist.
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64).dependent()),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        for _ in 0..200 {
            core.tick(|_| true); // only the head chain issues
        }
        assert_eq!(core.rob_occupancy(), 192);
        assert_eq!(core.stall(), CoreStall::Blocked);
    }

    #[test]
    fn fast_forward_matches_blocked_ticks() {
        let mk = || {
            let trace = Cycle::new(vec![TraceRecord {
                nonmem: 0,
                op: Some(MemOp::load(64)),
            }]);
            let mut core = Core::new(CoreConfig::default(), Box::new(trace));
            for _ in 0..200 {
                core.tick(|_| true);
            }
            core
        };
        let mut ticked = mk();
        let mut jumped = mk();
        assert_eq!(ticked.stall(), CoreStall::Blocked);
        for _ in 0..137 {
            ticked.tick(|_| unreachable!("blocked core issues nothing"));
        }
        jumped.fast_forward(CoreCycles::new(137));
        assert_eq!(ticked.stats(), jumped.stats());
        assert_eq!(ticked.stall(), jumped.stall());
    }

    /// The waiting-op counters and the issue cursors that short-circuit
    /// `stall()` and `issue_ready` must agree with a direct ROB scan
    /// across dispatch, issue, completion, and retirement.
    #[test]
    fn waiting_counter_matches_rob_scan() {
        let trace = Cycle::new(vec![
            TraceRecord {
                nonmem: 2,
                op: Some(MemOp::load(64)),
            },
            TraceRecord {
                nonmem: 0,
                op: Some(MemOp::store(128).dependent()),
            },
            TraceRecord {
                nonmem: 1,
                op: Some(MemOp::load(192).dependent()),
            },
        ]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        let mut in_flight: Vec<ReqId> = Vec::new();
        for cycle in 0..500u64 {
            let fl = &mut in_flight;
            // Alternate acceptance so Waiting ops linger in the ROB.
            core.tick(|a| {
                if cycle % 3 != 0 {
                    fl.push(a.id);
                    true
                } else {
                    false
                }
            });
            if cycle % 7 == 0 {
                for id in in_flight.drain(..) {
                    core.complete(id);
                }
            }
            if let Err(e) = core.check_against_scan() {
                panic!("cycle {cycle}: {e}");
            }
        }
    }

    /// Everything a tick may change apart from the `cycles` and
    /// `head_blocked_cycles` counters.
    #[allow(clippy::type_complexity)]
    fn frozen_state(core: &Core) -> (Vec<MemEntry>, [u64; 3], [u32; 5], Option<MemOp>, CoreStats) {
        let stats = CoreStats {
            cycles: CoreCycles::ZERO,
            head_blocked_cycles: CoreCycles::ZERO,
            ..core.stats
        };
        (
            core.rob.iter().copied().collect(),
            [core.head_id, core.first_waiting, core.first_open],
            [
                core.tail_nonmem,
                core.rob_insts,
                core.pending_nonmem,
                core.waiting_ops,
                core.waiting_free,
            ],
            core.pending_op,
            stats,
        )
    }

    /// A record with a non-memory run (0 half the time) and no op, a
    /// load, a store, or a dependent load or store.
    fn arb_record() -> impl proptest::Strategy<Value = TraceRecord> {
        use proptest::Strategy;
        (0u32..8, 0u8..8, 0u64..32).prop_map(|(nonmem, kind, line)| {
            let addr = line * 64;
            let op = match kind {
                0 | 1 => None,
                2 | 3 => Some(MemOp::load(addr)),
                4 | 5 => Some(MemOp::store(addr)),
                6 => Some(MemOp::load(addr).dependent()),
                _ => Some(MemOp::store(addr).dependent()),
            };
            TraceRecord {
                nonmem: nonmem.saturating_sub(3),
                op,
            }
        })
    }

    /// Ticks a core through `recs` (cycled; one non-empty record is
    /// appended so dispatch cannot spin) under an issue closure that
    /// accepts by the cycled `accept` pattern, completes each accepted
    /// access after a cycled delay, and mixes in one bogus completion
    /// per tick: a duplicate, an already retired id, or an id never
    /// accepted. Checks the ROB against a scan after every tick, and
    /// the `stall()` classification with an extra probing tick
    /// whenever it reports a blocked core.
    fn run_schedule(
        mut recs: Vec<TraceRecord>,
        (issue_width, rob_entries, mem_issue_width): (u32, u32, u32),
        accept: &[bool],
        delays: &[u64],
        bogus: &[(u8, u64)],
    ) -> Result<(), String> {
        use proptest::{prop_assert, prop_assert_eq};
        recs.push(TraceRecord {
            nonmem: 1,
            op: Some(MemOp::load(0)),
        });
        let cfg = CoreConfig {
            issue_width,
            rob_entries,
            mem_issue_width,
        };
        let mut core = Core::new(cfg, Box::new(Cycle::new(recs)));
        let mut offers = 0usize;
        let mut accepted: Vec<u64> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut rejected: Vec<u64> = Vec::new();
        let mut completed: Vec<u64> = Vec::new();
        let mut due: Vec<(u64, u64)> = Vec::new();
        let mut max_offered: Option<u64> = None;
        for t in 0..160u64 {
            let stall = core.stall();
            if stall != CoreStall::Active {
                let before = frozen_state(&core);
                let stats = core.stats;
                let mut calls = 0;
                if stall == CoreStall::Blocked {
                    core.tick(|a| panic!("tick {t}: a Blocked core offered {a:?}"));
                } else {
                    core.tick(|_| {
                        calls += 1;
                        false
                    });
                }
                let wants = u32::from(stall == CoreStall::BlockedWantsIssue);
                prop_assert_eq!(calls, wants);
                prop_assert_eq!(frozen_state(&core), before);
                prop_assert_eq!(core.stats.cycles, stats.cycles + CoreCycles::ONE);
                prop_assert_eq!(
                    core.stats.head_blocked_cycles,
                    stats.head_blocked_cycles + CoreCycles::ONE
                );
            }

            let mut offered = Vec::new();
            core.tick(|a| {
                let ok = accept[offers % accept.len()];
                offers += 1;
                offered.push((a.id.0, ok));
                ok
            });
            let mut last_this_tick = None;
            for (id, ok) in offered {
                max_offered = max_offered.max(Some(id));
                if !ok {
                    rejected.push(id);
                    continue;
                }
                prop_assert!(seen.insert(id), "tick {t}: id {id} accepted twice");
                prop_assert!(
                    last_this_tick.is_none_or(|last| id > last),
                    "tick {t}: id {id} accepted after a younger op"
                );
                last_this_tick = Some(id);
                accepted.push(id);
                due.push((t + delays[accepted.len() % delays.len()], id));
            }
            let mut now = Vec::new();
            due.retain(|&(at, id)| {
                let keep = at > t;
                if !keep {
                    now.push(id);
                }
                keep
            });
            for id in now {
                core.complete(ReqId(id));
                completed.push(id);
            }

            let (kind, pick) = bogus[t as usize % bogus.len()];
            let head_id = core.head_id;
            let id = match kind {
                0 => completed.last().copied(),
                1 => accepted
                    .iter()
                    .copied()
                    .filter(|&i| i < head_id)
                    .nth(pick as usize),
                2 => Some(max_offered.map_or(0, |m| m + 1 + pick)),
                _ => rejected.iter().rev().copied().find(|i| !seen.contains(i)),
            };
            if let Some(id) = id {
                let before = frozen_state(&core);
                core.complete(ReqId(id));
                prop_assert_eq!(frozen_state(&core), before);
            }
            core.check_against_scan()
                .map_err(|e| format!("tick {t}: {e}"))?;
        }
        Ok(())
    }

    proptest::proptest! {
        /// Random traces, issue acceptance and completion schedules
        /// keep the ROB consistent with a scan, accept each id once,
        /// ignore bogus completions, and never make `stall()` lie.
        #[test]
        fn rob_stays_consistent_under_random_schedules(
            recs in proptest::collection::vec(arb_record(), 1..12),
            widths in (1u32..9, 1u32..33, 1u32..4),
            accept in proptest::collection::vec(proptest::any::<bool>(), 1..16),
            delays in proptest::collection::vec(0u64..10, 1..16),
            bogus in proptest::collection::vec((0u8..4, 0u64..8), 1..16),
        ) {
            run_schedule(recs, widths, &accept, &delays, &bogus)?;
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_issue_width_rejected() {
        let cfg = CoreConfig {
            issue_width: 0,
            ..CoreConfig::default()
        };
        let _ = Core::new(cfg, nonmem_only());
    }
}
