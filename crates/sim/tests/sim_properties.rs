//! Property tests of the simulator substrate: conservation laws the
//! cost model must satisfy under arbitrary operation sequences.

use pim_sim::{
    Cycles, DpuConfig, DpuSim, EventQueue, HostBatching, ShardedXfer, TransferDirection,
    TransferModel, TransferPlan,
};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Instrs(u64),
    Read(u32),
    Write(u32),
    Lock,
    Unlock,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..200).prop_map(Op::Instrs),
        (1u32..4096).prop_map(Op::Read),
        (1u32..4096).prop_map(Op::Write),
        Just(Op::Lock),
        Just(Op::Unlock),
    ]
}

/// One step against an [`EventQueue`]. Times are relative to the
/// in-order lane's latest time, so heap and lane events often tie.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// `push` at the lane's time plus this, minus 2 (floored at 0).
    Push(u64),
    /// `push_in_order` at the lane's time plus this.
    PushInOrder(u64),
    Pop,
}

fn queue_op_strategy() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        2 => (0u64..5).prop_map(QueueOp::Push),
        2 => (0u64..2).prop_map(QueueOp::PushInOrder),
        3 => Just(QueueOp::Pop),
    ]
}

/// The summary's checks: ordering, bounds, and agreement with the
/// sort-based [`LatencyRecorder::percentile`](pim_sim::LatencyRecorder::percentile).
fn check_summary(samples: &[u64]) -> Result<(), TestCaseError> {
    let mut r = pim_sim::LatencyRecorder::new();
    for &s in samples {
        r.record(Cycles(s));
    }
    let s = r.summary();
    prop_assert_eq!(s.count, samples.len() as u64);
    prop_assert!(s.p50 <= s.p95);
    prop_assert!(s.p95 <= s.p99);
    prop_assert!(s.p99 <= s.p999);
    prop_assert!(s.p999 <= s.max);
    prop_assert_eq!(s.max, Cycles(*samples.iter().max().expect("non-empty")));
    let min = Cycles(*samples.iter().min().expect("non-empty"));
    prop_assert!(s.mean >= min && s.mean <= s.max);
    prop_assert_eq!(s.p50, r.percentile(0.50));
    prop_assert_eq!(s.p95, r.percentile(0.95));
    prop_assert_eq!(s.p99, r.percentile(0.99));
    prop_assert_eq!(s.p999, r.percentile(0.999));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clocks never move backwards, accounted time never exceeds the
    /// clock, and traffic counters match the bytes requested.
    #[test]
    fn time_and_traffic_conservation(
        tasklets in 1usize..16,
        ops in proptest::collection::vec((0usize..16, op_strategy()), 1..200),
    ) {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(tasklets));
        let m = dpu.alloc_mutex();
        let mut held: Option<usize> = None;
        let mut expect_read = 0u64;
        let mut expect_written = 0u64;
        let mut last_clock = vec![Cycles::ZERO; tasklets];
        for (t, op) in ops {
            let tid = t % tasklets;
            match op {
                Op::Instrs(n) => dpu.ctx(tid).instrs(n),
                Op::Read(b) => {
                    dpu.ctx(tid).mram_read(0, b);
                    expect_read += u64::from(b);
                }
                Op::Write(b) => {
                    dpu.ctx(tid).mram_write(0, b);
                    expect_written += u64::from(b);
                }
                Op::Lock => {
                    if held.is_none() {
                        dpu.ctx(tid).mutex_lock(m);
                        held = Some(tid);
                    }
                }
                Op::Unlock => {
                    if let Some(h) = held.take() {
                        dpu.ctx(h).mutex_unlock(m);
                    }
                }
            }
            prop_assert!(dpu.clock(tid) >= last_clock[tid], "clock went backwards");
            last_clock[tid] = dpu.clock(tid);
            // Accounted time equals the clock exactly: every advance is
            // classified into one of the four breakdown classes.
            let s = dpu.tasklet_stats(tid);
            prop_assert_eq!(s.total(), dpu.clock(tid), "unaccounted cycles");
        }
        let traffic = dpu.traffic();
        prop_assert_eq!(traffic.bytes_read, expect_read);
        prop_assert_eq!(traffic.bytes_written, expect_written);
    }

    /// Host↔PIM transfer time is monotone in both DPU count and bytes:
    /// under either policy, the planner's price for a uniform plan
    /// never falls as the DPU count or the bytes per DPU grow.
    #[test]
    fn transfer_model_monotone(
        d1 in 1usize..1024, d2 in 1usize..1024,
        b1 in 1u64..(1 << 24), b2 in 1u64..(1 << 24),
    ) {
        let (dl, dh) = (d1.min(d2), d1.max(d2));
        let (bl, bh) = (b1.min(b2), b1.max(b2));
        for policy in [HostBatching::PerDpu, HostBatching::Sharded] {
            let planner = ShardedXfer::new(TransferModel::default(), policy);
            let secs = |dpus, bytes| {
                let plan = TransferPlan::uniform(TransferDirection::HostToPim, dpus, bytes);
                planner.estimate(&plan).secs
            };
            prop_assert!(secs(dh, bl) >= secs(dl, bl), "{policy:?}: more DPUs cost less");
            prop_assert!(secs(dl, bh) >= secs(dl, bl), "{policy:?}: more bytes cost less");
        }
    }

    /// Instruction retirement obeys the pipeline model exactly:
    /// `clock = instrs × max(11, tasklets)` for a lone busy tasklet.
    #[test]
    fn pipeline_arithmetic(tasklets in 1usize..24, n in 1u64..10_000) {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(tasklets));
        dpu.ctx(0).instrs(n);
        let interval = 11u64.max(tasklets as u64);
        prop_assert_eq!(dpu.clock(0), Cycles(n * interval));
        prop_assert_eq!(dpu.tasklet_stats(0).instrs, n);
    }

    /// The headline batching guarantee: for **any** plan and any sane
    /// transfer model, a rank-sharded schedule never costs more than
    /// the per-DPU calls it replaces, never issues more calls, moves
    /// identical bytes — and never pretends to beat the channel's
    /// aggregate bandwidth.
    #[test]
    fn sharded_plan_never_exceeds_per_dpu_calls(
        base_us in 0.0f64..100.0,
        rank_bw in 0.05f64..4.0,
        channel_mult in 1.0f64..8.0,
        dpus_per_rank in 1usize..130,
        arb_us in 0.0f64..25.0,
        entries in proptest::collection::vec((0usize..2048, 0u64..(1 << 22)), 0..96),
    ) {
        let model = TransferModel {
            base_us_per_call: base_us,
            rank_bw_gbps: rank_bw,
            // Channel at least as fast as one rank, as in hardware.
            channel_bw_gbps: rank_bw * channel_mult,
            dpus_per_rank,
            channel_arb_us: arb_us,
        };
        let mut plan = TransferPlan::new(TransferDirection::HostToPim);
        for (dpu, bytes) in entries {
            plan.push(dpu, bytes);
        }
        let per_dpu = ShardedXfer::new(model, HostBatching::PerDpu).estimate(&plan);
        let sharded = ShardedXfer::new(model, HostBatching::Sharded).estimate(&plan);
        prop_assert!(
            sharded.secs <= per_dpu.secs + 1e-12,
            "sharded {} must not exceed per-DPU {}",
            sharded.secs,
            per_dpu.secs
        );
        prop_assert!(sharded.calls <= per_dpu.calls);
        prop_assert_eq!(sharded.bytes, per_dpu.bytes);
        prop_assert_eq!(sharded.bytes, plan.total_bytes());
        if !plan.is_empty() {
            let channel_floor = plan.total_bytes() as f64 / (model.channel_bw_gbps * 1e9);
            prop_assert!(sharded.secs >= channel_floor - 1e-12);
            prop_assert!(sharded.calls >= 1);
            prop_assert_eq!(sharded.shards, model.shard_count(&plan));
        }
    }

    /// Shard accounting: occupied ranks never exceed either the rank
    /// count implied by the highest DPU index or the number of
    /// non-empty buffers, and uniform plans fill ranks in order.
    #[test]
    fn shard_count_is_consistent(
        n_dpus in 1usize..1024,
        bytes in 1u64..(1 << 16),
        dpus_per_rank in 1usize..130,
    ) {
        let model = TransferModel { dpus_per_rank, ..TransferModel::default() };
        let plan = TransferPlan::uniform(TransferDirection::PimToHost, n_dpus, bytes);
        let shards = model.shard_count(&plan);
        prop_assert_eq!(shards, n_dpus.div_ceil(dpus_per_rank));
        prop_assert!(shards <= plan.buffer_count());
    }

    /// SLO percentile ordering: for any sample set,
    /// p50 ≤ p95 ≤ p99 ≤ p99.9 ≤ max, the mean sits within [min, max],
    /// and the summary agrees with the recorder's own percentile
    /// queries. The second set draws from `0..8`, so values repeat and
    /// ranks coincide.
    #[test]
    fn latency_summary_percentiles_are_ordered(
        samples in proptest::collection::vec(0u64..u64::MAX / 2, 1..512),
        repeats in proptest::collection::vec(0u64..8, 1..512),
    ) {
        check_summary(&samples)?;
        check_summary(&repeats)?;
    }

    /// The in-order lane is invisible: random interleavings of `push`,
    /// `push_in_order` and `pop` pop the same `(time, payload)`
    /// sequence, with the same `len` and `peek_time` after every
    /// step, as the same events pushed with `push` alone.
    #[test]
    fn event_queue_lane_matches_a_heap_only_queue(
        ops in proptest::collection::vec(queue_op_strategy(), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut reference = EventQueue::new();
        let mut lane_at = 0u64;
        for (id, op) in ops.into_iter().enumerate() {
            match op {
                QueueOp::Push(offset) => {
                    let at = (lane_at + offset).saturating_sub(2);
                    q.push(at, id);
                    reference.push(at, id);
                }
                QueueOp::PushInOrder(step) => {
                    lane_at += step;
                    q.push_in_order(lane_at, id);
                    reference.push(lane_at, id);
                }
                QueueOp::Pop => prop_assert_eq!(q.pop(), reference.pop()),
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(q.peek_time(), reference.peek_time());
        }
        while !reference.is_empty() {
            prop_assert_eq!(q.pop(), reference.pop());
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.pop(), None);
    }
}

/// Exact nearest-rank values over a hand-computed 10-sample set.
///
/// Sorted samples: 5, 10, 20, 30, 40, 50, 60, 70, 80, 1000.
/// Nearest rank = ⌈q·10⌉ clamped to [1, 10]:
/// p50 → rank 5 → 40; p95 → rank ⌈9.5⌉ = 10 → 1000;
/// p99 → rank ⌈9.9⌉ = 10 → 1000; p99.9 → rank 10 → 1000;
/// mean = 1365/10 = 136 (integer division).
#[test]
fn latency_summary_exact_ten_sample_values() {
    let mut r = pim_sim::LatencyRecorder::new();
    for v in [50u64, 10, 1000, 30, 5, 70, 20, 60, 40, 80] {
        r.record(Cycles(v));
    }
    let s = r.summary();
    assert_eq!(s.count, 10);
    assert_eq!(s.p50, Cycles(40));
    assert_eq!(s.p95, Cycles(1000));
    assert_eq!(s.p99, Cycles(1000));
    assert_eq!(s.p999, Cycles(1000));
    assert_eq!(s.max, Cycles(1000));
    assert_eq!(s.mean, Cycles(136));
    // A tighter mid-distribution check: p90 hits rank 9 → 80.
    assert_eq!(r.percentile(0.90), Cycles(80));
    assert!(!s.is_empty());
    assert!(pim_sim::LatencyRecorder::new().summary().is_empty());
}
