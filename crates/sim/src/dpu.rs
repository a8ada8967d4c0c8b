//! The DPU core model: per-tasklet logical clocks, instruction-issue
//! cost, DMA reservation, and mutexes with busy-wait accounting.
//!
//! A [`DpuSim`] represents one DPU (one DRAM bank's worth of compute).
//! Code "runs" on it by obtaining a [`TaskletCtx`] for a tasklet id and
//! charging costs through it. Workload drivers interleave tasklets by
//! always executing the next request of the tasklet with the smallest
//! logical clock, picked by a [`VirtualTimeQueue`](crate::VirtualTimeQueue),
//! which keeps mutex hand-offs and DMA queueing causally ordered.

use crate::cost::{CostModel, Cycles};
use crate::mram::Mram;
use crate::stats::{DramTraffic, TaskletStats};
use crate::wram::Wram;

/// Most tasklets a DPU launches: UPMEM hardware runs 1..=24.
pub const MAX_TASKLETS: usize = 24;

/// Identifier of a DPU-local mutex allocated via [`DpuSim::alloc_mutex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MutexId(usize);

/// Configuration of one simulated DPU.
#[derive(Debug, Clone)]
pub struct DpuConfig {
    /// Number of tasklets launched (1..=[`MAX_TASKLETS`]).
    pub n_tasklets: usize,
    /// Cycle cost model.
    pub cost: CostModel,
    /// MRAM bank capacity in bytes (64 MB on UPMEM hardware).
    pub mram_bytes: u32,
    /// WRAM scratchpad capacity in bytes (64 KB on UPMEM hardware).
    pub wram_bytes: u32,
}

impl DpuConfig {
    /// Returns the config with a different tasklet count.
    pub fn with_tasklets(mut self, n: usize) -> Self {
        assert!(
            (1..=MAX_TASKLETS).contains(&n),
            "UPMEM DPUs support 1..={MAX_TASKLETS} tasklets, got {n}"
        );
        self.n_tasklets = n;
        self
    }
}

impl Default for DpuConfig {
    /// UPMEM defaults: 16 tasklets (the common operating point), 64 MB
    /// MRAM, 64 KB WRAM, 350 MHz.
    fn default() -> Self {
        DpuConfig {
            n_tasklets: 16,
            cost: CostModel::default(),
            mram_bytes: 64 << 20,
            wram_bytes: 64 << 10,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct MutexState {
    free_at: Cycles,
    locked_by: Option<usize>,
}

/// One simulated DPU: clocks, stats, mutexes, DMA engine, MRAM, WRAM.
#[derive(Debug)]
pub struct DpuSim {
    config: DpuConfig,
    /// Cycles between two instructions of one tasklet,
    /// [`CostModel::issue_interval`] of the configured tasklet count.
    interval: u64,
    /// Each tasklet's logical time, instructions included.
    clocks: Vec<Cycles>,
    /// Each tasklet's charges as made: the instruction count, DMA
    /// stalls, mutex spins and explicit waits. The cycles of the
    /// counted instructions are linear in the count, so they are not
    /// stored: [`DpuSim::tasklet_stats`] derives their `run` and
    /// issue-gap `idle_etc` shares when it is read.
    stats: Vec<TaskletStats>,
    mutexes: Vec<MutexState>,
    /// Outstanding DMA occupancy (cycles) not yet drained by elapsed
    /// time — a backlog queue model of the shared engine.
    dma_backlog: u64,
    /// Virtual time of the most recent DMA request.
    dma_last_req: Cycles,
    traffic: DramTraffic,
    mram: Mram,
    wram: Wram,
}

impl DpuSim {
    /// Creates a DPU with all tasklet clocks at zero.
    pub fn new(config: DpuConfig) -> Self {
        let n = config.n_tasklets;
        DpuSim {
            mram: Mram::new(config.mram_bytes),
            wram: Wram::new(config.wram_bytes),
            interval: config.cost.issue_interval(n),
            config,
            clocks: vec![Cycles::ZERO; n],
            stats: vec![TaskletStats::default(); n],
            mutexes: Vec::new(),
            dma_backlog: 0,
            dma_last_req: Cycles::ZERO,
            traffic: DramTraffic::default(),
        }
    }

    /// The configuration this DPU was built with.
    pub fn config(&self) -> &DpuConfig {
        &self.config
    }

    /// Allocates a new DPU-local mutex (UPMEM exposes 56 hardware
    /// mutexes per DPU; we do not enforce that bound).
    pub fn alloc_mutex(&mut self) -> MutexId {
        self.mutexes.push(MutexState::default());
        MutexId(self.mutexes.len() - 1)
    }

    /// Obtains an execution context for tasklet `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not below the configured tasklet count.
    pub fn ctx(&mut self, tid: usize) -> TaskletCtx<'_> {
        assert!(tid < self.config.n_tasklets, "tasklet {tid} out of range");
        TaskletCtx { dpu: self, tid }
    }

    /// The tasklet with the smallest logical clock — the one whose next
    /// request should execute to keep virtual time causally ordered.
    /// The smallest id wins a tie.
    pub fn next_tasklet(&self) -> usize {
        self.clocks
            .iter()
            .enumerate()
            .min_by_key(|&(_, &clock)| clock)
            .map(|(tid, _)| tid)
            .expect("DPU has at least one tasklet")
    }

    /// Current logical time of tasklet `tid`.
    pub fn clock(&self, tid: usize) -> Cycles {
        self.clocks[tid]
    }

    /// The largest tasklet clock — the DPU-wide finish time.
    pub fn max_clock(&self) -> Cycles {
        self.clocks.iter().copied().max().unwrap_or(Cycles::ZERO)
    }

    /// Statistics of tasklet `tid`.
    pub fn tasklet_stats(&self, tid: usize) -> TaskletStats {
        self.with_instr_cycles(self.stats[tid])
    }

    /// Sum of all tasklets' statistics.
    pub fn total_stats(&self) -> TaskletStats {
        let total = self
            .stats
            .iter()
            .fold(TaskletStats::default(), |acc, s| acc.merged(s));
        self.with_instr_cycles(total)
    }

    /// Adds the cycles of `s.instrs` instructions to charges as made:
    /// `pipeline_depth` each as *run*, the rest of the issue interval
    /// as *idle (etc)*.
    fn with_instr_cycles(&self, mut s: TaskletStats) -> TaskletStats {
        let depth = self.config.cost.pipeline_depth;
        s.run += Cycles(s.instrs * depth);
        s.idle_etc += Cycles(s.instrs * (self.interval - depth));
        s
    }

    /// Aggregate MRAM↔WRAM traffic since construction.
    pub fn traffic(&self) -> DramTraffic {
        self.traffic
    }

    /// Shared read access to the MRAM bank.
    pub fn mram(&self) -> &Mram {
        &self.mram
    }

    /// The WRAM capacity ledger.
    pub fn wram(&self) -> &Wram {
        &self.wram
    }

    /// Mutable access to the WRAM capacity ledger.
    pub fn wram_mut(&mut self) -> &mut Wram {
        &mut self.wram
    }
}

/// Execution context of one tasklet on one DPU.
///
/// All costs a PIM program would incur are charged through this handle:
/// instruction execution, DMA transfers, and mutex operations. The
/// context borrows the DPU mutably, so only one tasklet's request is in
/// flight at a time — the virtual-time model, not OS threads, provides
/// the interleaving.
#[derive(Debug)]
pub struct TaskletCtx<'a> {
    dpu: &'a mut DpuSim,
    tid: usize,
}

impl TaskletCtx<'_> {
    /// This context's tasklet id.
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The tasklet's current logical time.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.dpu.clocks[self.tid]
    }

    /// The DPU cost model.
    pub fn cost(&self) -> CostModel {
        self.dpu.config.cost
    }

    /// Charges `n` instructions of compute: counts them and advances
    /// the clock by `n` issue intervals.
    ///
    /// The stats accessors account `n × pipeline_depth` of those cycles
    /// as *run* and the rest, the spacing from issue-slot sharing when
    /// more tasklets than pipeline stages are active, as *idle (etc)*.
    #[inline]
    pub fn instrs(&mut self, n: u64) {
        self.dpu.stats[self.tid].instrs += n;
        self.dpu.clocks[self.tid] += Cycles(n * self.dpu.interval);
    }

    /// Blocks the tasklet until absolute time `t` (no-op if in the
    /// past), accounting the gap as *idle (etc)*.
    pub fn wait_until(&mut self, t: Cycles) {
        let now = self.now();
        if t > now {
            self.dpu.stats[self.tid].idle_etc += t - now;
            self.dpu.clocks[self.tid] = t;
        }
    }

    #[inline]
    fn dma(&mut self, bytes: u32, is_read: bool) {
        let now = self.now();
        // Backlog queue model of the shared DMA engine: each transfer
        // occupies the engine for its beat time; elapsed time since the
        // previous request drains the backlog. A requester waits out
        // the remaining backlog (queueing) plus its own transfer
        // latency (setup + beats). This keeps the engine a throughput
        // resource without serializing tasklets across the virtual-time
        // gaps the request-atomic scheduler creates.
        let drained = now.saturating_sub(self.dpu.dma_last_req);
        let backlog = self.dpu.dma_backlog.saturating_sub(drained.0);
        let beats = u64::from(bytes).div_ceil(8);
        let occupancy = beats * self.dpu.config.cost.dma_cycles_per_8b;
        let latency = Cycles(self.dpu.config.cost.dma_cycles(bytes));
        self.dpu.dma_backlog = backlog + occupancy;
        self.dpu.dma_last_req = now.max(self.dpu.dma_last_req);
        let end = now + Cycles(backlog) + latency;
        let s = &mut self.dpu.stats[self.tid];
        s.idle_mem += Cycles(backlog) + latency;
        self.dpu.clocks[self.tid] = end;
        self.dpu.traffic.transfers += 1;
        if is_read {
            self.dpu.traffic.bytes_read += u64::from(bytes);
        } else {
            self.dpu.traffic.bytes_written += u64::from(bytes);
        }
    }

    /// Charges a DMA read of `bytes` from MRAM to WRAM (latency only).
    #[inline]
    pub fn mram_read(&mut self, _addr: u32, bytes: u32) {
        self.dma(bytes, true);
    }

    /// Charges a DMA write of `bytes` from WRAM to MRAM (latency only).
    #[inline]
    pub fn mram_write(&mut self, _addr: u32, bytes: u32) {
        self.dma(bytes, false);
    }

    /// DMA read that also copies bytes out of the MRAM byte store.
    pub fn mram_read_bytes(&mut self, addr: u32, buf: &mut [u8]) {
        self.dma(buf.len() as u32, true);
        self.dpu.mram.read(addr, buf);
    }

    /// DMA write that also copies bytes into the MRAM byte store.
    pub fn mram_write_bytes(&mut self, addr: u32, data: &[u8]) {
        self.dma(data.len() as u32, false);
        self.dpu.mram.write(addr, data);
    }

    /// Acquires a mutex, spinning (virtually) until it is free.
    ///
    /// The gap between the request and the grant is accounted as
    /// busy-wait, matching UPMEM's `mutex_lock` spin loop.
    ///
    /// # Panics
    ///
    /// Panics if this tasklet already holds the mutex (self-deadlock).
    pub fn mutex_lock(&mut self, m: MutexId) {
        let now = self.now();
        let state = &mut self.dpu.mutexes[m.0];
        assert_ne!(
            state.locked_by,
            Some(self.tid),
            "tasklet {} self-deadlocked on mutex {:?}",
            self.tid,
            m
        );
        let grant = now.max(state.free_at);
        self.dpu.stats[self.tid].busy_wait += grant - now;
        state.locked_by = Some(self.tid);
        self.dpu.clocks[self.tid] = grant;
    }

    /// Releases a mutex previously acquired by this tasklet.
    ///
    /// # Panics
    ///
    /// Panics if the mutex is not held by this tasklet.
    pub fn mutex_unlock(&mut self, m: MutexId) {
        let now = self.now();
        let state = &mut self.dpu.mutexes[m.0];
        assert_eq!(
            state.locked_by,
            Some(self.tid),
            "tasklet {} released mutex {:?} it does not hold",
            self.tid,
            m
        );
        state.locked_by = None;
        state.free_at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dpu(tasklets: usize) -> DpuSim {
        DpuSim::new(DpuConfig::default().with_tasklets(tasklets))
    }

    #[test]
    fn single_tasklet_instr_cost_is_pipeline_depth() {
        let mut d = dpu(1);
        d.ctx(0).instrs(10);
        assert_eq!(d.clock(0), Cycles(110));
        assert_eq!(d.tasklet_stats(0).run, Cycles(110));
        assert_eq!(d.tasklet_stats(0).idle_etc, Cycles::ZERO);
        assert_eq!(d.tasklet_stats(0).instrs, 10);
    }

    #[test]
    fn sixteen_tasklets_share_issue_slots() {
        let mut d = dpu(16);
        d.ctx(0).instrs(10);
        // interval = max(11, 16) = 16 cycles per instruction.
        assert_eq!(d.clock(0), Cycles(160));
        assert_eq!(d.tasklet_stats(0).run, Cycles(110));
        assert_eq!(d.tasklet_stats(0).idle_etc, Cycles(50));
    }

    #[test]
    fn mutex_grants_serialize_and_account_busy_wait() {
        let mut d = dpu(2);
        let m = d.alloc_mutex();
        {
            let mut c = d.ctx(0);
            c.mutex_lock(m);
            c.instrs(100); // critical section: 1100 cycles
            c.mutex_unlock(m);
        }
        {
            let mut c = d.ctx(1);
            c.mutex_lock(m); // requested at t=0, granted at t=1100
            c.mutex_unlock(m);
        }
        assert_eq!(d.tasklet_stats(1).busy_wait, Cycles(1100));
        assert_eq!(d.clock(1), Cycles(1100));
    }

    #[test]
    fn uncontended_mutex_is_free() {
        let mut d = dpu(2);
        let m = d.alloc_mutex();
        let mut c = d.ctx(0);
        c.mutex_lock(m);
        c.mutex_unlock(m);
        assert_eq!(d.tasklet_stats(0).busy_wait, Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "self-deadlock")]
    fn relocking_held_mutex_panics() {
        let mut d = dpu(1);
        let m = d.alloc_mutex();
        let mut c = d.ctx(0);
        c.mutex_lock(m);
        c.mutex_lock(m);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn unlocking_foreign_mutex_panics() {
        let mut d = dpu(2);
        let m = d.alloc_mutex();
        d.ctx(0).mutex_lock(m);
        d.ctx(1).mutex_unlock(m);
    }

    #[test]
    fn dma_queueing_accounts_idle_memory() {
        let mut d = dpu(2);
        d.ctx(0).mram_read(0, 2048); // occupies the DMA engine
        let busy_until = d.clock(0);
        d.ctx(1).mram_read(0, 8); // must queue behind tasklet 0
        let s1 = d.tasklet_stats(1);
        assert!(s1.idle_mem >= busy_until - Cycles::ZERO);
        assert!(d.clock(1) > busy_until);
    }

    #[test]
    fn dma_traffic_is_counted_by_direction() {
        let mut d = dpu(1);
        d.ctx(0).mram_read(0, 100);
        d.ctx(0).mram_write(0, 50);
        let t = d.traffic();
        assert_eq!(t.bytes_read, 100);
        assert_eq!(t.bytes_written, 50);
        assert_eq!(t.transfers, 2);
    }

    #[test]
    fn mram_data_moves_through_dma_helpers() {
        let mut d = dpu(1);
        d.ctx(0).mram_write_bytes(64, b"abcd");
        let mut buf = [0u8; 4];
        d.ctx(0).mram_read_bytes(64, &mut buf);
        assert_eq!(&buf, b"abcd");
        assert!(d.traffic().total_bytes() == 8);
    }

    #[test]
    fn next_tasklet_returns_laggard() {
        let mut d = dpu(3);
        d.ctx(0).instrs(10);
        d.ctx(1).instrs(5);
        assert_eq!(d.next_tasklet(), 2); // clock 0
        d.ctx(2).instrs(20);
        assert_eq!(d.next_tasklet(), 1); // smallest nonzero clock
    }

    proptest! {
        /// The one-pass pick is the laggard by the clocks, smallest id
        /// first on a tie, also right after any tasklet's instructions.
        #[test]
        fn next_tasklet_is_the_first_smallest_clock(
            tasklets in 1usize..25,
            clocks in proptest::collection::vec(0u64..4, 24),
            charged in 0usize..24,
            n in 0u64..3,
        ) {
            let mut d = dpu(tasklets);
            let interval = d.config().cost.issue_interval(tasklets);
            for (tid, &c) in clocks.iter().take(tasklets).enumerate() {
                d.ctx(tid).wait_until(Cycles(c * interval));
            }
            d.ctx(charged % tasklets).instrs(n);
            let laggard = (0..tasklets).min_by_key(|&i| d.clock(i)).unwrap();
            prop_assert_eq!(d.next_tasklet(), laggard);
        }
    }

    #[test]
    fn wait_until_accounts_idle_etc() {
        let mut d = dpu(1);
        d.ctx(0).wait_until(Cycles(500));
        assert_eq!(d.clock(0), Cycles(500));
        assert_eq!(d.tasklet_stats(0).idle_etc, Cycles(500));
        // Waiting for the past is a no-op.
        d.ctx(0).wait_until(Cycles(100));
        assert_eq!(d.clock(0), Cycles(500));
    }

    #[test]
    fn total_stats_merges_tasklets() {
        let mut d = dpu(2);
        d.ctx(0).instrs(10);
        d.ctx(1).instrs(20);
        assert_eq!(d.total_stats().instrs, 30);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ctx_out_of_range_panics() {
        let mut d = dpu(1);
        let _ = d.ctx(1);
    }

    #[test]
    #[should_panic(expected = "1..=24")]
    fn too_many_tasklets_rejected() {
        let _ = DpuConfig::default().with_tasklets(25);
    }
}
