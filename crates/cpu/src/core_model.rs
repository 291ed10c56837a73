//! The per-core timing model.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use simkernel::attrib::{CycleAccount, CycleCategory};
use simkernel::{Cycle, StatRegistry};

use mem::Addr;
use workloads::Phase;

use crate::config::CoreConfig;
use crate::lsq::LoadStoreQueue;

/// Cycles spent in each execution phase (Figure 9's bar segments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    cycles: [Cycle; 3],
}

impl PhaseBreakdown {
    /// Cycles spent in `phase`.
    pub fn phase(&self, phase: Phase) -> Cycle {
        self.cycles[phase.index()]
    }

    /// Total cycles over all phases.
    pub fn total(&self) -> Cycle {
        self.cycles.iter().copied().sum()
    }

    /// Adds `cycles` to `phase`.
    pub fn add(&mut self, phase: Phase, cycles: Cycle) {
        self.cycles[phase.index()] += cycles;
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        for p in Phase::ALL {
            self.cycles[p.index()] += other.cycles[p.index()];
        }
    }

    /// Element-wise maximum (used to combine the parallel cores of a
    /// fork-join region: the region ends when the slowest core ends).
    pub fn max(&self, other: &PhaseBreakdown) -> PhaseBreakdown {
        let mut out = PhaseBreakdown::default();
        for p in Phase::ALL {
            out.cycles[p.index()] = self.cycles[p.index()].max(other.cycles[p.index()]);
        }
        out
    }
}

/// The timing model of one core executing its trace.
///
/// The system driver interprets the workload's [`workloads::TraceOp`]s,
/// issues the memory operations to the hierarchy / SPMs / coherence protocol,
/// and feeds the resulting latencies into this model, which decides how much
/// of each latency the core actually stalls for.
///
/// # Example
///
/// ```
/// use cpu::{CoreConfig, CoreTimingModel};
/// use simkernel::Cycle;
/// use workloads::Phase;
///
/// let mut core = CoreTimingModel::new(CoreConfig::isca2015());
/// core.set_phase(Phase::Work);
/// core.execute_compute(600);
/// core.issue_memory_access(Cycle::new(2), false);   // an L1/SPM hit
/// core.issue_memory_access(Cycle::new(200), false); // an overlapped miss
/// core.drain_memory();
/// assert!(core.now() > Cycle::new(100));
/// assert_eq!(core.instructions(), 602);
/// ```
#[derive(Debug, Clone)]
pub struct CoreTimingModel {
    config: CoreConfig,
    now: Cycle,
    phase: Phase,
    breakdown: PhaseBreakdown,
    instructions: u64,
    memory_accesses: u64,
    flushes: u64,
    ifetches_due: u64,
    /// Fractional issue-slot accumulator for memory operations.
    mem_issue_accum: f64,
    /// Bytes of code fetched since the last instruction-cache line fetch.
    fetch_bytes_accum: u64,
    /// Cursor into the kernel's code footprint for sequential fetches.
    code_cursor: u64,
    /// Completion times of in-flight long-latency misses (MLP window).
    outstanding: VecDeque<Cycle>,
    /// When parked, the cycle an external event wakes the core.
    parked_until: Option<Cycle>,
    parks: u64,
    /// Monotone sequence feeding [`CoreTimingModel::next_store_value`].
    store_seq: u64,
    lsq: LoadStoreQueue,
    /// Per-category cycle attribution.  Every clock movement funnels
    /// through [`CoreTimingModel::advance`] or
    /// [`CoreTimingModel::idle_until`], and both charge the account, so the
    /// categories sum bit-exactly to [`CoreTimingModel::now`] by
    /// construction.
    account: CycleAccount,
}

impl CoreTimingModel {
    /// Creates a core at cycle zero.
    pub fn new(config: CoreConfig) -> Self {
        CoreTimingModel {
            lsq: LoadStoreQueue::new(config.lq_entries, config.sq_entries),
            config,
            now: Cycle::ZERO,
            phase: Phase::Work,
            breakdown: PhaseBreakdown::default(),
            instructions: 0,
            memory_accesses: 0,
            flushes: 0,
            ifetches_due: 0,
            mem_issue_accum: 0.0,
            fetch_bytes_accum: 0,
            code_cursor: 0,
            outstanding: VecDeque::new(),
            parked_until: None,
            parks: 0,
            store_seq: 0,
            account: CycleAccount::new(),
        }
    }

    /// The per-category account: every cycle the clock has moved, charged
    /// to one [`CycleCategory`].  Accounting is a pure observer — it never
    /// changes the timing itself.
    pub fn cycle_account(&self) -> &CycleAccount {
        &self.account
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Current cycle of this core.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Instructions executed so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Cycles spent stalled: every accounted cycle except compute and
    /// barrier waits (which [`CoreTimingModel::idle_until`] leaves out).
    pub fn stall_cycles(&self) -> u64 {
        self.account.stall_total() - self.account.get(CycleCategory::BarrierWait)
    }

    /// Demand memory accesses issued.
    pub fn memory_accesses(&self) -> u64 {
        self.memory_accesses
    }

    /// Pipeline flushes caused by ordering violations (§3.4).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Per-phase cycle breakdown.
    pub fn breakdown(&self) -> &PhaseBreakdown {
        &self.breakdown
    }

    /// Read access to the LSQ model.
    pub fn lsq(&self) -> &LoadStoreQueue {
        &self.lsq
    }

    /// Switches the phase subsequent cycles are accounted to.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// The phase currently being accounted.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    fn advance(&mut self, cycles: Cycle, category: CycleCategory) {
        if cycles.is_zero() {
            return;
        }
        self.now += cycles;
        self.breakdown.add(self.phase, cycles);
        self.account.charge(category, cycles.as_u64());
    }

    /// Executes `insts` non-memory instructions.
    pub fn execute_compute(&mut self, insts: u64) {
        if insts == 0 {
            return;
        }
        self.instructions += insts;
        self.fetch_bytes_accum += insts * self.config.instruction_bytes;
        let cycles = self.config.compute_cycles(insts);
        self.advance(cycles, CycleCategory::Compute);
    }

    /// Issues one memory access whose hierarchy latency is `latency`.
    ///
    /// `dependent` marks accesses whose result feeds the immediately
    /// following work (pointer-chasing guarded accesses): they cannot be
    /// hidden behind other misses, so the visible part of their latency
    /// stalls the core.  Independent accesses (strided loads/stores) overlap
    /// up to the configured memory-level parallelism.
    pub fn issue_memory_access(&mut self, latency: Cycle, dependent: bool) {
        self.issue_memory_access_classified(
            latency,
            dependent,
            CycleCategory::MissWait,
            Cycle::ZERO,
        )
    }

    /// [`CoreTimingModel::issue_memory_access`] with explicit attribution:
    /// a visible dependent stall is charged to `stall_category`, except for
    /// the `noc_queue` share of `latency` (queueing/contention beyond the
    /// NoC's zero-load latency), which is pro-rated onto
    /// [`CycleCategory::NocQueue`].
    ///
    /// The pro-rating splits one `advance` into two whose cycle counts sum
    /// to the same visible stall, so the timing (clock, phase breakdown,
    /// stall counter) is bit-identical to the unclassified call.
    pub fn issue_memory_access_classified(
        &mut self,
        latency: Cycle,
        dependent: bool,
        stall_category: CycleCategory,
        noc_queue: Cycle,
    ) {
        self.memory_accesses += 1;
        self.instructions += 1;
        self.fetch_bytes_accum += self.config.instruction_bytes;

        // Issue bandwidth: roughly three load/store units on a 6-wide core.
        self.mem_issue_accum += 1.0 / 3.0;
        if self.mem_issue_accum >= 1.0 {
            self.mem_issue_accum -= 1.0;
            self.advance(Cycle::new(1), CycleCategory::Compute);
        }

        let hide = self.config.hide_window;
        if latency <= hide && !dependent {
            return;
        }

        if dependent {
            // The consumer is waiting: only the ROB lookahead hides latency.
            let visible = latency.saturating_sub(hide);
            // The queueing share of the total latency is the same share of
            // the visible stall (integer pro-rating; the remainder stays on
            // `stall_category` so the two charges sum exactly to `visible`).
            let queue = noc_queue.min(latency).as_u64();
            let queue_visible = if queue == 0 {
                0
            } else {
                (visible.as_u64() as u128 * queue as u128 / latency.as_u64().max(1) as u128) as u64
            };
            self.advance(Cycle::new(queue_visible), CycleCategory::NocQueue);
            self.advance(
                visible.saturating_sub(Cycle::new(queue_visible)),
                stall_category,
            );
            return;
        }

        // Independent long-latency miss: overlap it with the other misses in
        // flight, stalling only when the MLP window is exhausted.
        let completion = self.now + latency;
        if self.outstanding.len() >= self.config.mlp_width {
            if let Some(earliest) = self.outstanding.pop_front() {
                if earliest > self.now {
                    let wait = earliest - self.now;
                    // A structural stall — the LSQ's MLP window is full —
                    // not a latency charge for any one miss.
                    self.advance(wait, CycleCategory::LsqStall);
                }
            }
        }
        self.outstanding.push_back(completion);
    }

    /// Waits for every in-flight miss to complete (barriers, phase ends).
    pub fn drain_memory(&mut self) {
        let latest = self
            .outstanding
            .iter()
            .copied()
            .max()
            .unwrap_or(Cycle::ZERO);
        self.outstanding.clear();
        if latest > self.now {
            let wait = latest - self.now;
            self.advance(wait, CycleCategory::MissWait);
        }
    }

    /// Stalls the core until `cycle` (e.g. a `dma-synch` completion time),
    /// charging the wait to `category`, a stall category (not `Compute`).
    pub fn stall_until(&mut self, cycle: Cycle, category: CycleCategory) {
        if cycle > self.now {
            let wait = cycle - self.now;
            self.advance(wait, category);
        }
    }

    /// Parks the core until an external event at `wake` (a `dma-synch`
    /// completion, a barrier release).
    ///
    /// A parked core must not execute further ops; a scheduler keeps it out
    /// of its run queue until `wake` and then calls [`CoreTimingModel::resume`].
    /// Parking does not advance the clock — the stall is accounted on
    /// resume, so a park-then-resume pair is timing-identical to an inline
    /// [`CoreTimingModel::stall_until`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the core is already parked.
    pub fn park_until(&mut self, wake: Cycle) {
        debug_assert!(self.parked_until.is_none(), "core parked twice");
        self.parks += 1;
        self.parked_until = Some(wake);
    }

    /// Returns `true` while the core waits for an external wake event.
    pub fn is_parked(&self) -> bool {
        self.parked_until.is_some()
    }

    /// The earliest cycle the core can execute its next op: the wake time
    /// when parked, the local clock otherwise.
    pub fn runnable_at(&self) -> Cycle {
        self.parked_until.unwrap_or(self.now)
    }

    /// Number of times the core was parked.
    pub fn parks(&self) -> u64 {
        self.parks
    }

    /// Wakes a parked core, stalling it to its wake cycle; a no-op on a
    /// running core.
    ///
    /// The parked span is charged to [`CycleCategory::Park`].
    pub fn resume(&mut self) {
        if let Some(wake) = self.parked_until.take() {
            self.stall_until(wake, CycleCategory::Park);
        }
    }

    /// Advances the core's clock to `cycle` without accounting the wait to
    /// any phase or to the stall counters.
    ///
    /// Used for fork-join barriers: the idle time of the early-finishing
    /// cores is load imbalance of the parallel region, not a phase of the
    /// transformed loop, and the paper's Figure 9 does not attribute it.
    /// The cycle account still charges it (to
    /// [`CycleCategory::BarrierWait`]) — the account must be exhaustive,
    /// and barrier imbalance is precisely what the ROADMAP's placement
    /// studies need attributed.
    pub fn idle_until(&mut self, cycle: Cycle) {
        if cycle > self.now {
            self.account
                .charge(CycleCategory::BarrierWait, (cycle - self.now).as_u64());
            self.now = cycle;
        }
    }

    /// Records a retired memory operation in the LSQ window, with its data
    /// value when the system tracks values (`None` otherwise).
    pub fn record_in_lsq_valued(&mut self, addr: Addr, is_store: bool, value: Option<u64>) {
        self.lsq.record_valued(addr, is_store, value);
    }

    /// The next value this core stores, as a deterministic function of the
    /// core's store sequence and the target address.
    ///
    /// Because a core's op stream is identical under every NoC model and
    /// coherence backend, so is the value of its n-th store — which is what
    /// lets the differential oracle compare runs across them bit for bit.
    /// The core id is mixed in by the caller owning the per-core sequence;
    /// here the sequence lives in the core model itself.
    pub fn next_store_value(&mut self, core_index: usize, addr: Addr) -> u64 {
        self.store_seq += 1;
        let mut z = (core_index as u64)
            .wrapping_shl(48)
            .wrapping_add(self.store_seq)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ addr.raw().rotate_left(17);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        // Never zero: zero is the "unwritten" background value, and a store
        // must be distinguishable from no store at all.
        (z ^ (z >> 31)) | 1
    }

    /// Re-checks ordering after a guarded access to `addr` was diverted to
    /// an SPM (§3.4).  `addr` is the access's GM address, the address the
    /// LSQ recorded: SPM data is keyed by its GM address.  Charges a
    /// pipeline flush if a violation is found and returns `true` in that
    /// case.
    pub fn recheck_ordering(&mut self, addr: Addr, is_store: bool) -> bool {
        if self.lsq.recheck(addr, is_store) {
            self.flushes += 1;
            self.lsq.flush();
            let penalty = self.config.flush_penalty();
            self.advance(penalty, CycleCategory::LsqStall);
            true
        } else {
            false
        }
    }

    /// Pops the next due instruction-cache line fetch, if any: one per line
    /// of code covered by the instructions executed so far.
    ///
    /// The fetch stream walks the kernel's code footprint sequentially and
    /// wraps around, which is how loops behave.  The per-op interpreter
    /// drains fetches one at a time.
    #[inline]
    pub fn next_due_ifetch(&mut self, code_base: Addr, code_size: u64) -> Option<Addr> {
        const LINE: u64 = 64;
        if self.fetch_bytes_accum < LINE {
            return None;
        }
        self.fetch_bytes_accum -= LINE;
        let addr = code_base + (self.code_cursor % code_size.max(LINE));
        self.code_cursor += LINE;
        self.ifetches_due += 1;
        Some(addr)
    }

    /// Applies the latency of one instruction fetch.
    ///
    /// Hits are fully pipelined; misses stall the front end for a fraction of
    /// their latency.
    pub fn apply_ifetch(&mut self, latency: Cycle, l1_hit: bool) {
        if l1_hit {
            return;
        }
        let stall = (latency.as_f64() * self.config.ifetch_stall_fraction).round() as u64;
        self.advance(Cycle::new(stall), CycleCategory::IFetch);
    }

    /// Exports the core's counters under `cpu.*` names.
    pub fn export_stats(&self, stats: &mut StatRegistry) {
        stats.add_count("cpu.instructions", self.instructions);
        stats.add_count("cpu.stall_cycles", self.stall_cycles());
        stats.add_count("cpu.memory_accesses", self.memory_accesses);
        stats.add_count("cpu.flushes", self.flushes);
        stats.add_count("cpu.ifetch_lines", self.ifetches_due);
        stats.add_count("cpu.lsq.value_forwards", self.lsq.value_forwards());
        stats.add_count("cpu.cycles", self.now.as_u64());
        for p in Phase::ALL {
            stats.add_count(
                &format!("cpu.phase.{}", p.label().to_lowercase()),
                self.breakdown.phase(p).as_u64(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> CoreTimingModel {
        CoreTimingModel::new(CoreConfig::isca2015())
    }

    #[test]
    fn compute_advances_time_and_counts_instructions() {
        let mut c = core();
        c.execute_compute(60);
        assert_eq!(c.instructions(), 60);
        assert!(c.now() >= Cycle::new(10));
        assert_eq!(c.stall_cycles(), 0);
    }

    #[test]
    fn short_accesses_are_absorbed() {
        let mut c = core();
        for _ in 0..30 {
            c.issue_memory_access(Cycle::new(2), false);
        }
        // Only issue-bandwidth cycles, no stalls.
        assert_eq!(c.stall_cycles(), 0);
        assert_eq!(c.memory_accesses(), 30);
        assert!(c.now() <= Cycle::new(30));
    }

    #[test]
    fn dependent_misses_pay_visible_latency() {
        let mut c = core();
        c.issue_memory_access(Cycle::new(200), true);
        assert!(c.stall_cycles() >= 170, "got {}", c.stall_cycles());
    }

    #[test]
    fn independent_misses_overlap_up_to_mlp() {
        let mut a = core();
        for _ in 0..8 {
            a.issue_memory_access(Cycle::new(200), false);
        }
        a.drain_memory();
        let overlapped = a.now();

        let mut b = core();
        for _ in 0..8 {
            b.issue_memory_access(Cycle::new(200), true);
        }
        let serialized = b.now();
        assert!(
            overlapped < serialized / 2,
            "8 independent misses ({overlapped}) should be much faster than serialized ({serialized})"
        );
    }

    #[test]
    fn mlp_window_limits_overlap() {
        let mut c = core();
        // Far more misses than the MLP width: the core must eventually stall.
        for _ in 0..100 {
            c.issue_memory_access(Cycle::new(200), false);
        }
        c.drain_memory();
        assert!(c.stall_cycles() > 0);
        assert!(
            c.now() > Cycle::new(200 * 100 / 8 / 2),
            "throughput bounded by MLP"
        );
    }

    #[test]
    fn phase_accounting_follows_set_phase() {
        let mut c = core();
        c.set_phase(Phase::Control);
        c.execute_compute(120);
        c.set_phase(Phase::Sync);
        c.stall_until(c.now() + Cycle::new(50), CycleCategory::DmaWait);
        c.set_phase(Phase::Work);
        c.execute_compute(600);
        let b = c.breakdown();
        assert!(b.phase(Phase::Control) > Cycle::ZERO);
        assert_eq!(b.phase(Phase::Sync), Cycle::new(50));
        assert!(b.phase(Phase::Work) > b.phase(Phase::Control));
        assert_eq!(b.total(), c.now());
    }

    #[test]
    fn park_then_resume_is_timing_identical_to_inline_stall() {
        let mut inline = core();
        inline.set_phase(Phase::Sync);
        inline.execute_compute(60);
        let wake = inline.now() + Cycle::new(500);
        inline.stall_until(wake, CycleCategory::DmaWait);

        let mut parked = core();
        parked.set_phase(Phase::Sync);
        parked.execute_compute(60);
        assert!(!parked.is_parked());
        parked.park_until(wake);
        assert!(parked.is_parked());
        assert_eq!(parked.runnable_at(), wake);
        // The clock has not moved yet: the stall is paid on resume.
        assert!(parked.now() < wake);
        parked.resume();
        assert!(!parked.is_parked());
        assert_eq!(parked.parks(), 1);

        assert_eq!(parked.now(), inline.now());
        assert_eq!(parked.stall_cycles(), inline.stall_cycles());
        assert_eq!(parked.breakdown(), inline.breakdown());
        assert_eq!(parked.runnable_at(), parked.now());
        // Resuming a running core is a no-op.
        let t = parked.now();
        parked.resume();
        assert_eq!(parked.now(), t);
    }

    #[test]
    fn stall_until_is_monotonic() {
        let mut c = core();
        c.execute_compute(600);
        let t = c.now();
        c.stall_until(Cycle::new(1), CycleCategory::DmaWait); // already past: no-op
        assert_eq!(c.now(), t);
        c.stall_until(t + Cycle::new(40), CycleCategory::DmaWait);
        assert_eq!(c.now(), t + Cycle::new(40));
    }

    #[test]
    fn ordering_violation_costs_a_flush() {
        let mut c = core();
        c.record_in_lsq_valued(Addr::new(0x9000), true, None);
        let before = c.now();
        assert!(c.recheck_ordering(Addr::new(0x9000), false));
        assert_eq!(c.flushes(), 1);
        assert!(c.now() > before);
        // After the flush the window is clean.
        assert!(!c.recheck_ordering(Addr::new(0x9000), false));
    }

    #[test]
    fn ifetches_cover_executed_code() {
        let mut c = core();
        c.execute_compute(64); // 64 insts * 4 B = 4 lines of code
        fn drain(c: &mut CoreTimingModel, code_size: u64) -> Vec<Addr> {
            std::iter::from_fn(|| c.next_due_ifetch(Addr::new(0x40_0000), code_size)).collect()
        }
        let fetches = drain(&mut c, 8 * 1024);
        assert_eq!(fetches.len(), 4);
        // Sequential lines.
        assert_eq!(fetches[1] - fetches[0], 64);
        // Nothing more until new instructions execute.
        assert!(drain(&mut c, 8 * 1024).is_empty());
        // Wrap-around inside the code footprint.
        c.execute_compute(16 * 1024);
        let many = drain(&mut c, 1024);
        assert_eq!(many.len(), 1024);
        assert!(many.iter().all(|a| a.raw() < 0x40_0000 + 1024));
    }

    #[test]
    fn ifetch_misses_stall_the_frontend() {
        let mut c = core();
        let t = c.now();
        c.apply_ifetch(Cycle::new(40), true);
        assert_eq!(c.now(), t);
        c.apply_ifetch(Cycle::new(40), false);
        assert_eq!(c.now(), t + Cycle::new(20));
    }

    #[test]
    fn phase_breakdown_merge_and_max() {
        let mut a = PhaseBreakdown::default();
        a.add(Phase::Work, Cycle::new(10));
        let mut b = PhaseBreakdown::default();
        b.add(Phase::Work, Cycle::new(30));
        b.add(Phase::Sync, Cycle::new(5));
        let m = a.max(&b);
        assert_eq!(m.phase(Phase::Work), Cycle::new(30));
        assert_eq!(m.phase(Phase::Sync), Cycle::new(5));
        a.merge(&b);
        assert_eq!(a.phase(Phase::Work), Cycle::new(40));
    }

    /// Drives every charge site and checks the structural invariant: the
    /// cycle account is exhaustive (categories sum bit-exactly to the
    /// elapsed clock) and exclusive (each category holds only its own
    /// charge sites' cycles).
    #[test]
    fn cycle_account_is_exhaustive_and_exclusive() {
        let mut c = core();
        assert_eq!(c.cycle_account().total(), 0);

        c.execute_compute(600);
        c.issue_memory_access(Cycle::new(200), true); // dependent miss
        c.issue_memory_access_classified(
            Cycle::new(100),
            true,
            CycleCategory::MissWait,
            Cycle::new(40), // 40 of the 100 cycles were NoC queueing
        );
        c.issue_memory_access_classified(
            Cycle::new(150),
            true,
            CycleCategory::Protocol,
            Cycle::ZERO,
        );
        for _ in 0..40 {
            c.issue_memory_access(Cycle::new(200), false); // fill the MLP window
        }
        c.drain_memory();
        c.stall_until(c.now() + Cycle::new(75), CycleCategory::DmaWait);
        c.park_until(c.now() + Cycle::new(33));
        c.resume();
        c.record_in_lsq_valued(Addr::new(0x9000), true, None);
        assert!(c.recheck_ordering(Addr::new(0x9000), false));
        c.apply_ifetch(Cycle::new(40), false);
        c.idle_until(c.now() + Cycle::new(12)); // barrier imbalance

        let account = *c.cycle_account();
        assert_eq!(
            account.total(),
            c.now().as_u64(),
            "categories must sum bit-exactly to the elapsed clock"
        );
        for (category, minimum) in [
            (CycleCategory::Compute, 1),
            (CycleCategory::MissWait, 1),
            (CycleCategory::NocQueue, 1),
            (CycleCategory::Protocol, 1),
            (CycleCategory::LsqStall, 1),
            (CycleCategory::DmaWait, 75),
            (CycleCategory::Park, 33),
            (CycleCategory::IFetch, 20),
            (CycleCategory::BarrierWait, 12),
        ] {
            assert!(
                account.get(category) >= minimum,
                "{category}: {} < {minimum}",
                account.get(category)
            );
        }
        assert_eq!(account.get(CycleCategory::DmaWait), 75);
        assert_eq!(account.get(CycleCategory::Park), 33);
        assert_eq!(account.get(CycleCategory::BarrierWait), 12);
        // Every stall category except the unaccounted-by-design barrier
        // idle is also in the plain stall counter.
        assert_eq!(account.stall_total(), c.stall_cycles() + 12);
    }

    /// The NocQueue pro-rating splits the visible stall without changing
    /// its sum, and clamps a queue estimate larger than the latency.
    #[test]
    fn noc_queue_share_is_prorated_and_clamped() {
        let mut c = core();
        let hide = c.config().hide_window;
        c.issue_memory_access_classified(
            hide + Cycle::new(100),
            true,
            CycleCategory::MissWait,
            hide + Cycle::new(100), // the whole latency was queueing
        );
        let account = *c.cycle_account();
        assert_eq!(account.get(CycleCategory::NocQueue), 100);
        assert_eq!(account.get(CycleCategory::MissWait), 0);

        let mut c = core();
        c.issue_memory_access_classified(
            Cycle::new(1),
            true,
            CycleCategory::MissWait,
            Cycle::new(400), // clamped to the latency: no overdraw
        );
        let account = *c.cycle_account();
        assert_eq!(account.total(), c.now().as_u64());
    }

    #[test]
    fn export_stats_includes_phases() {
        let mut c = core();
        c.set_phase(Phase::Work);
        c.execute_compute(100);
        let mut reg = StatRegistry::new();
        c.export_stats(&mut reg);
        assert_eq!(reg.count("cpu.instructions"), 100);
        assert!(reg.contains("cpu.phase.work"));
        assert!(reg.count("cpu.cycles") > 0);
    }
}
