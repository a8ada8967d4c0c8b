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

    /// Returns the config with a different cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
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
    acquisitions: u64,
    contended_acquisitions: u64,
}

/// One simulated DPU: clocks, stats, mutexes, DMA engine, MRAM, WRAM.
#[derive(Debug)]
pub struct DpuSim {
    config: DpuConfig,
    clocks: Vec<Cycles>,
    stats: Vec<TaskletStats>,
    mutexes: Vec<MutexState>,
    /// Outstanding DMA occupancy (cycles) not yet drained by elapsed
    /// time — a backlog queue model of the shared engine.
    dma_backlog: u64,
    /// Virtual time of the most recent DMA request.
    dma_last_req: Cycles,
    /// Instructions charged through a [`TaskletCtx`] but not yet
    /// folded into the owing tasklet's clock and stats. Instruction
    /// accounting is linear in the count (fixed issue interval per
    /// DPU), so adjacent `instrs` calls accumulate here and settle in
    /// one step at the next observation point — any DMA, mutex, wait,
    /// or the creation of the next context. The clock and stats
    /// accessors compensate for a still-pending batch, which makes the
    /// batching unobservable: every readable value equals what eager
    /// per-call accounting would produce.
    pending_instrs: u64,
    /// Tasklet owing `pending_instrs` (meaningful only when nonzero).
    pending_tid: usize,
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
            config,
            clocks: vec![Cycles::ZERO; n],
            stats: vec![TaskletStats::default(); n],
            mutexes: Vec::new(),
            dma_backlog: 0,
            dma_last_req: Cycles::ZERO,
            pending_instrs: 0,
            pending_tid: 0,
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
        self.settle_instrs();
        TaskletCtx { dpu: self, tid }
    }

    /// Folds the pending instruction batch into the owing tasklet's
    /// clock and stats (see `pending_instrs`). Additive, so a settled
    /// batch is byte-identical to the same instructions charged one by
    /// one.
    fn settle_instrs(&mut self) {
        let n = self.pending_instrs;
        if n == 0 {
            return;
        }
        self.pending_instrs = 0;
        let cost = &self.config.cost;
        let interval = cost.issue_interval(self.config.n_tasklets);
        let run = n * cost.pipeline_depth;
        let s = &mut self.stats[self.pending_tid];
        s.run += Cycles(run);
        s.idle_etc += Cycles(n * interval - run);
        s.instrs += n;
        self.clocks[self.pending_tid] += Cycles(n * interval);
    }

    /// Clock adjustment tasklet `tid` is owed by the pending batch.
    fn pending_cycles(&self, tid: usize) -> Cycles {
        if self.pending_instrs == 0 || self.pending_tid != tid {
            return Cycles::ZERO;
        }
        let cost = &self.config.cost;
        Cycles(self.pending_instrs * cost.issue_interval(self.config.n_tasklets))
    }

    /// The tasklet with the smallest logical clock — the one whose next
    /// request should execute to keep virtual time causally ordered.
    pub fn next_tasklet(&self) -> usize {
        (0..self.clocks.len())
            .min_by_key(|&i| self.clock(i))
            .expect("DPU has at least one tasklet")
    }

    /// Current logical time of tasklet `tid`.
    pub fn clock(&self, tid: usize) -> Cycles {
        self.clocks[tid] + self.pending_cycles(tid)
    }

    /// The largest tasklet clock — the DPU-wide finish time.
    pub fn max_clock(&self) -> Cycles {
        (0..self.clocks.len())
            .map(|i| self.clock(i))
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// Statistics of tasklet `tid`.
    pub fn tasklet_stats(&self, tid: usize) -> TaskletStats {
        let mut s = self.stats[tid];
        self.compensate(tid, &mut s);
        s
    }

    /// Sum of all tasklets' statistics.
    pub fn total_stats(&self) -> TaskletStats {
        let mut total = self
            .stats
            .iter()
            .fold(TaskletStats::default(), |acc, s| acc.merged(s));
        self.compensate(self.pending_tid, &mut total);
        total
    }

    /// Adds the pending batch's share to a stats copy for tasklet
    /// `tid` (no-op unless `tid` owes the batch).
    fn compensate(&self, tid: usize, s: &mut TaskletStats) {
        let n = self.pending_instrs;
        if n == 0 || self.pending_tid != tid {
            return;
        }
        let cost = &self.config.cost;
        let run = n * cost.pipeline_depth;
        s.run += Cycles(run);
        s.idle_etc += Cycles(n * cost.issue_interval(self.config.n_tasklets) - run);
        s.instrs += n;
    }

    /// Aggregate MRAM↔WRAM traffic since construction.
    pub fn traffic(&self) -> DramTraffic {
        self.traffic
    }

    /// Number of times a mutex was acquired, and how many of those
    /// acquisitions had to wait.
    pub fn mutex_stats(&self, m: MutexId) -> (u64, u64) {
        let s = &self.mutexes[m.0];
        (s.acquisitions, s.contended_acquisitions)
    }

    /// Shared read access to the MRAM bank.
    pub fn mram(&self) -> &Mram {
        &self.mram
    }

    /// Mutable access to the MRAM bank (host-side initialization).
    pub fn mram_mut(&mut self) -> &mut Mram {
        &mut self.mram
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
        // Compensated for batched-but-unsettled instructions, so lazy
        // accumulation is unobservable (see `DpuSim::pending_instrs`).
        self.dpu.clocks[self.tid] + self.dpu.pending_cycles(self.tid)
    }

    /// The DPU cost model.
    pub fn cost(&self) -> CostModel {
        self.dpu.config.cost
    }

    /// Charges `n` instructions of compute.
    ///
    /// `n × pipeline_depth` cycles are accounted as *run*; any extra
    /// spacing from issue-slot sharing (when more tasklets than pipeline
    /// stages are active) is accounted as *idle (etc)*. Accounting is
    /// linear in `n`, so adjacent charges accumulate and settle
    /// together (byte-identical; see `DpuSim::pending_instrs`).
    #[inline]
    pub fn instrs(&mut self, n: u64) {
        self.dpu.pending_tid = self.tid;
        self.dpu.pending_instrs += n;
    }

    /// Blocks the tasklet until absolute time `t` (no-op if in the
    /// past), accounting the gap as *idle (etc)*.
    pub fn wait_until(&mut self, t: Cycles) {
        self.dpu.settle_instrs();
        let now = self.now();
        if t > now {
            self.dpu.stats[self.tid].idle_etc += t - now;
            self.dpu.clocks[self.tid] = t;
        }
    }

    #[inline]
    fn dma(&mut self, bytes: u32, is_read: bool) {
        self.dpu.settle_instrs();
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
        self.dpu.settle_instrs();
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
        state.acquisitions += 1;
        if grant > now {
            state.contended_acquisitions += 1;
            self.dpu.stats[self.tid].busy_wait += grant - now;
        }
        state.locked_by = Some(self.tid);
        self.dpu.clocks[self.tid] = grant;
    }

    /// Releases a mutex previously acquired by this tasklet.
    ///
    /// # Panics
    ///
    /// Panics if the mutex is not held by this tasklet.
    pub fn mutex_unlock(&mut self, m: MutexId) {
        self.dpu.settle_instrs();
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
        let (acq, contended) = d.mutex_stats(m);
        assert_eq!((acq, contended), (2, 1));
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
