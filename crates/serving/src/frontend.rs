//! The deterministic open-loop serving event loop.
//!
//! [`serve`] admits a seeded arrival stream of allocation-bearing
//! requests into a fleet of `n_dpus` DPUs and reports SLO metrics in
//! *simulated* time. The loop is a discrete-event simulation over
//! virtual nanoseconds. Each event has a key `(time, seq)`, where
//! `seq` is an insertion number the loop hands out as it schedules
//! events: the first arrival, then the kills in DPU order, then each
//! flush, completion and later arrival as the loop schedules it. So
//! events at one nanosecond go in the order they were scheduled. The
//! loop holds the next arrival, at most one pending flush, and the
//! kills, which are fixed before it starts and sorted once; a
//! time-bucketed ring holds completions. It handles whichever of the
//! arrival, the flush and the next kill has the smallest key:
//!
//! 1. **Admission** — each arrival is hash-routed round-robin over
//!    admitted requests to a *healthy* DPU; if that DPU already holds
//!    `queue_cap` requests in flight, the request is *dropped*
//!    (bounded-queue admission control), otherwise it is staged into
//!    the current dispatch window. Arrival times and class picks come
//!    from two seeded streams, generated as the loop consumes them.
//! 2. **Dispatch** — every `window_us` the staged requests flush as
//!    one host→PIM push: the payload bytes of the DPUs the window
//!    ships to form a [`TransferPlan`], in ascending DPU order, priced
//!    by the shared [`SimContext::planner`], and every request in the
//!    window becomes runnable once the push lands. A flush does no
//!    work for DPUs that received nothing in its window.
//! 3. **Service** — each DPU serves its queue FIFO; a request's
//!    service time is its class's replay-calibrated fragment time
//!    (see [`RequestClass::service_ns`]). Each job's completion goes
//!    into the completion ring (`ring.rs`: 2^14 buckets of 1,024 ns,
//!    and a small heap past its 16.8 ms horizon) under its own key.
//!    Before the loop handles its next arrival, flush or kill at key
//!    `(t, seq)`, it applies every completion keyed below it, in the
//!    ring's order rather than key order. That gives the same report:
//!    in-flight counts, the completed count and the latency samples do
//!    not depend on order, and each DPU's completions still come in
//!    FIFO order, the order its job list (kept under a fault plan) is
//!    edited in.
//!
//! The loop ends once every request has completed or dropped; a kill
//! still pending then settles nothing and does not count toward the
//! makespan. A ghost completion (of a job whose DPU died) never
//! counts toward it: it only frees its job slot.
//!
//! A request whose projected completion exceeds
//! [`RetryPolicy::timeout_ns`] after its arrival is re-routed to
//! another DPU instead of waiting out a hopeless queue. The timeout
//! is off by default; once set it applies with or without a fault
//! plan.
//!
//! ## Self-healing under faults
//!
//! With a [`FaultPlan`] in [`ServeConfig::faults`], the frontend
//! survives an unhealthy fleet instead of assuming 100% capacity:
//!
//! * **Health-aware routing** — dead-on-arrival DPUs never receive
//!   traffic; the round-robin spreads over the currently healthy set.
//! * **Transfer faults** — a dispatch window priced through
//!   [`pim_sim::ShardedXfer::estimate_with_faults`] may fail rank
//!   shards (their requests retry with exponential backoff, bounded by
//!   [`RetryPolicy::max_retries`]) or straggle (the window's push time
//!   inflates).
//! * **Mid-run kills** — when a DPU dies, its staged and in-service
//!   requests are *re-dispatched* to healthy DPUs; requests whose
//!   retry budget is exhausted become fault-attributed drops.
//!
//! Every fault decision is a pure function of the plan and a stable
//! identity (DPU index, flush ordinal), and the loop itself is
//! single-threaded, so reports stay byte-identical for any worker
//! count — the workspace's standing contract — and a disabled plan
//! takes none of the fault paths, leaving fault-free reports
//! byte-identical to the pre-fault-model frontend. The degraded-capacity story lands in
//! [`FaultSummary`]: healthy-DPU timeline, retries, re-dispatches,
//! and drop attribution.

use pim_sim::{
    Cycles, FaultPlan, LatencyRecorder, LatencySummary, SimContext, TransferDirection, TransferPlan,
};

use crate::arrival::ArrivalProcess;
use crate::request::{BuildAllocator, ClassPicks, RequestClass};
use crate::ring::CompletionRing;

/// Seed salt separating the class-composition substream from the
/// arrival-time substream.
const CLASS_STREAM_SALT: u64 = 0xC1A5_5E5E_D000_0001;

/// Retry/timeout policy of the frontend, in simulated time. The
/// default leaves the timeout disabled and allows three retries with
/// 50 µs exponential backoff. Retries are spent by failed transfer
/// shards and mid-run kills, which need a fault plan, and by the
/// timeout, which fires with or without one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// A request whose projected completion lies more than this many
    /// simulated nanoseconds after its arrival is re-routed instead of
    /// served ([`u64::MAX`] disables the timeout).
    pub timeout_ns: u64,
    /// Re-dispatch/retry attempts allowed per request before it
    /// becomes a fault-attributed drop.
    pub max_retries: u32,
    /// Base backoff before a retried request re-enters a dispatch
    /// window; doubles per attempt.
    pub backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_ns: u64::MAX,
            max_retries: 3,
            backoff_ns: 50_000,
        }
    }
}

/// Open-loop serving configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// DPUs in the serving fleet.
    pub n_dpus: usize,
    /// Requests in the open-loop stream.
    pub n_requests: usize,
    /// Arrival process (shape + mean offered load).
    pub arrival: ArrivalProcess,
    /// Per-DPU bound on requests in flight (staged + queued +
    /// in service); arrivals beyond it are dropped.
    pub queue_cap: usize,
    /// Dispatch-window length, microseconds: staged requests flush as
    /// one batched host→PIM push per window. At least 1, and at most
    /// `u64::MAX / 1000` so the window's nanoseconds fit a `u64`.
    pub window_us: u64,
    /// Maximum points retained in the queue-depth timeline (sampled
    /// at dispatch boundaries, then evenly thinned).
    pub timeline_points: usize,
    /// Retry/timeout policy. A finite timeout re-routes requests on
    /// any fleet; the retry budget and backoff otherwise serve only
    /// the fault plan's failures.
    pub retry: RetryPolicy,
    /// Shared execution context: `seed` drives arrivals and class
    /// composition, and `batching` schedules dispatch windows.
    pub ctx: SimContext,
    /// Seeded fleet and transfer fault schedule;
    /// [`FaultPlan::none`] (the default) takes none of the fault paths.
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    /// The paper-scale fleet: 2560 DPUs (40 ranks), one million
    /// requests, 100 µs dispatch windows, 64-deep per-DPU queues.
    fn default() -> Self {
        ServeConfig {
            n_dpus: 2560,
            n_requests: 1_000_000,
            arrival: ArrivalProcess::Poisson { rps: 5e5 },
            queue_cap: 64,
            window_us: 100,
            timeline_points: 256,
            retry: RetryPolicy::default(),
            ctx: SimContext::default(),
            faults: FaultPlan::none(),
        }
    }
}

impl ServeConfig {
    /// The same config with a different arrival process.
    pub fn with_arrival(self, arrival: ArrivalProcess) -> Self {
        ServeConfig { arrival, ..self }
    }
}

/// The degraded-capacity section of a [`ServeReport`]: what the fault
/// plan did to the fleet and what the self-healing frontend did about
/// it. All-zero (with a single full-strength timeline point) on a
/// healthy run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSummary {
    /// DPUs dead on arrival (faulty-part model).
    pub doa_dpus: u64,
    /// DPUs killed mid-run.
    pub killed_dpus: u64,
    /// Healthy DPUs when the run ended.
    pub healthy_final: u64,
    /// `(simulated seconds, healthy DPUs)` — the initial strength plus
    /// one point per mid-run kill.
    pub healthy_timeline: Vec<(f64, u64)>,
    /// Retry attempts scheduled (transfer-shard failures + timeouts).
    pub retries: u64,
    /// Requests moved off a DPU that died with them staged or in
    /// service.
    pub redispatched: u64,
    /// Requests re-routed because their projected completion exceeded
    /// [`RetryPolicy::timeout_ns`].
    pub timeouts: u64,
    /// Rank shards of dispatch pushes that failed outright.
    pub xfer_failed_shards: u64,
    /// Rank shards that completed but straggled.
    pub xfer_straggled_shards: u64,
    /// Requests dropped at admission by the bounded queue.
    pub drops_queue_full: u64,
    /// Requests dropped at admission because no healthy DPU remained.
    pub drops_no_healthy: u64,
    /// Admitted requests dropped after exhausting their retry budget
    /// (or finding no other healthy DPU with queue room to retry on).
    pub drops_retry_exhausted: u64,
}

impl FaultSummary {
    fn new(n_dpus: usize) -> Self {
        FaultSummary {
            doa_dpus: 0,
            killed_dpus: 0,
            healthy_final: n_dpus as u64,
            healthy_timeline: Vec::new(),
            retries: 0,
            redispatched: 0,
            timeouts: 0,
            xfer_failed_shards: 0,
            xfer_straggled_shards: 0,
            drops_queue_full: 0,
            drops_no_healthy: 0,
            drops_retry_exhausted: 0,
        }
    }

    /// Drops attributable to faults rather than offered load: requests
    /// that found no healthy DPU plus admitted requests lost to
    /// exhausted retries. Together with [`FaultSummary::drops_queue_full`]
    /// this accounts for every drop in the report.
    pub fn fault_drops(&self) -> u64 {
        self.drops_no_healthy + self.drops_retry_exhausted
    }
}

/// Outcome of one open-loop serving run, all in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Mean offered load of the arrival process, requests/second.
    pub offered_rps: f64,
    /// Completed requests over the simulated makespan.
    pub achieved_rps: f64,
    /// Requests served to completion. On a healthy fleet admitted work
    /// always finishes; under faults, admitted requests that exhaust
    /// their retry budget move to the drop column instead.
    pub admitted: u64,
    /// Total requests dropped: bounded-queue admission drops plus
    /// fault-attributed drops (see [`FaultSummary`] for the split).
    pub dropped: u64,
    /// End-to-end request latency (arrival → completion), nanoseconds
    /// carried in [`Cycles`]: p50/p95/p99/p99.9/max and mean.
    pub latency: LatencySummary,
    /// `(simulated seconds, requests in flight)` sampled at dispatch
    /// boundaries, thinned to at most `timeline_points` entries.
    pub queue_depth: Vec<(f64, u64)>,
    /// Peak requests in flight across the fleet.
    pub peak_in_flight: u64,
    /// Modeled host seconds spent on dispatch-window pushes.
    pub push_secs: f64,
    /// Transfer calls the dispatch schedule issued.
    pub push_calls: u64,
    /// Simulated seconds from time 0 (not the first arrival) to the
    /// event that settled the last request: its completion or drop.
    pub makespan_secs: f64,
    /// Degraded-capacity accounting under the fault plan.
    pub faults: FaultSummary,
}

impl ServeReport {
    /// Fraction of offered requests dropped (admission + fault drops).
    pub fn drop_frac(&self) -> f64 {
        let total = self.admitted + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }

    /// Fraction of offered requests served to completion — the
    /// complement of [`ServeReport::drop_frac`], and the quantity the
    /// resilience gates compare against a fault-free baseline.
    pub fn goodput(&self) -> f64 {
        1.0 - self.drop_frac()
    }

    /// A latency field in milliseconds (the recorder stores ns).
    fn ms(c: Cycles) -> f64 {
        c.0 as f64 * 1e-6
    }

    /// Median latency, ms.
    pub fn p50_ms(&self) -> f64 {
        Self::ms(self.latency.p50)
    }

    /// 95th-percentile latency, ms.
    pub fn p95_ms(&self) -> f64 {
        Self::ms(self.latency.p95)
    }

    /// 99th-percentile latency, ms.
    pub fn p99_ms(&self) -> f64 {
        Self::ms(self.latency.p99)
    }

    /// 99.9th-percentile latency, ms.
    pub fn p999_ms(&self) -> f64 {
        Self::ms(self.latency.p999)
    }
}

/// A request staged for (re-)dispatch.
#[derive(Debug, Clone, Copy)]
struct StagedReq {
    /// Arrival nanosecond of the original request (latency anchor).
    arrived: u64,
    /// Target DPU.
    dpu: u32,
    /// Request-class index.
    class: u32,
    /// Retry attempts consumed so far.
    retries: u32,
    /// Earliest nanosecond this entry may ship (retry backoff).
    not_before: u64,
}

/// One request in service: the bookkeeping needed to re-dispatch it if
/// its DPU dies before `done`.
#[derive(Debug, Clone, Copy)]
struct Job {
    arrived: u64,
    dpu: u32,
    class: u32,
    retries: u32,
    done: u64,
    /// Cleared when the serving DPU dies; the job's completion, still
    /// in the ring, then becomes a ghost.
    live: bool,
}

/// Mutable loop state shared by the fault paths.
struct Loop<'a> {
    cfg: &'a ServeConfig,
    svc_ns: Vec<u64>,
    /// Indices of currently healthy DPUs, ascending (rebuilt on kill).
    healthy: Vec<u32>,
    free_at: Vec<u64>,
    in_flight: Vec<u32>,
    staged: Vec<StagedReq>,
    jobs: Vec<Job>,
    free_slots: Vec<u32>,
    /// Live job ids per DPU (maintained only under a fault plan).
    dpu_jobs: Vec<Vec<u32>>,
    total_in_flight: u64,
    /// Deterministic rotation for re-dispatch target scans.
    redispatch_rr: u64,
    summary: FaultSummary,
}

impl Loop<'_> {
    /// Moves the staged requests `take` selects to the end of `out`;
    /// both lists keep staging order.
    fn unstage(&mut self, out: &mut Vec<StagedReq>, take: impl Fn(&StagedReq) -> bool) {
        self.staged.retain(|r| {
            let taken = take(r);
            if taken {
                out.push(*r);
            }
            !taken
        });
    }

    /// Picks a healthy DPU other than `from` with queue room for a
    /// re-dispatched request, rotating deterministically; `None` drops
    /// the request.
    fn redispatch_target(&mut self, from: u32) -> Option<u32> {
        if self.healthy.is_empty() {
            return None;
        }
        let n = self.healthy.len();
        let start = (self.redispatch_rr % n as u64) as usize;
        self.redispatch_rr = self.redispatch_rr.wrapping_add(1);
        for off in 0..n {
            let dpu = self.healthy[(start + off) % n];
            if dpu != from && u64::from(self.in_flight[dpu as usize]) < self.cfg.queue_cap as u64 {
                return Some(dpu);
            }
        }
        None
    }

    /// Exponential backoff for the given attempt count.
    fn backoff_ns(&self, retries: u32) -> u64 {
        let shift = retries.saturating_sub(1).min(20);
        self.cfg.retry.backoff_ns.saturating_mul(1u64 << shift)
    }

    /// Allocates a job slot (reusing freed ones to bound memory).
    fn alloc_job(&mut self, job: Job) -> u32 {
        match self.free_slots.pop() {
            Some(id) => {
                self.jobs[id as usize] = job;
                id
            }
            None => {
                self.jobs.push(job);
                (self.jobs.len() - 1) as u32
            }
        }
    }

    /// Drops an admitted request that exhausted its options, keeping
    /// the in-flight accounting (`from_dpu` still holds its slot).
    fn drop_admitted(&mut self, from_dpu: u32) {
        self.in_flight[from_dpu as usize] -= 1;
        self.total_in_flight -= 1;
        self.summary.drops_retry_exhausted += 1;
    }
}

/// Runs the open-loop frontend. See the module docs for the model.
///
/// # Panics
///
/// Panics on an empty fleet/stream/class set, a zero queue cap, a
/// non-positive arrival rate, or a `window_us` of 0 or of more
/// nanoseconds than a `u64` holds.
pub fn serve(cfg: &ServeConfig, classes: &[RequestClass], build: BuildAllocator) -> ServeReport {
    assert!(cfg.n_dpus > 0, "serving needs at least one DPU");
    assert!(cfg.n_requests > 0, "serving needs requests");
    assert!(cfg.queue_cap > 0, "a zero queue cap drops everything");
    // A zero window would re-arm a flush every nanosecond while a
    // retried request waits out its backoff.
    assert!(
        (1..=u64::MAX / 1_000).contains(&cfg.window_us),
        "window_us {} is outside 1..={}",
        cfg.window_us,
        u64::MAX / 1_000
    );
    let window_ns = cfg.window_us * 1_000;
    let svc_ns: Vec<u64> = classes.iter().map(|c| c.service_ns(build)).collect();
    let mut arrivals = cfg.arrival.stream(cfg.ctx.seed, cfg.n_requests);
    let mut picks = ClassPicks::new(classes, cfg.ctx.seed ^ CLASS_STREAM_SALT);
    let planner = cfg.ctx.planner();
    let faults = cfg.faults;
    let faults_on = faults.enabled();

    let mut ring = CompletionRing::new();
    // Hands out insertion numbers; see the module docs for the order.
    let mut next_seq = {
        let mut seq = 0u64;
        move || {
            seq += 1;
            seq - 1
        }
    };
    // The next arrival as `(time, seq, class)`.
    let mut next_arrival = arrivals.next().map(|t| (t, next_seq(), picks.pick()));
    // Mid-run kills as `(time, seq, dpu)`, in key order.
    let mut kills: Vec<(u64, u64, u32)> = (0..cfg.n_dpus)
        .filter_map(|d| Some((faults.kill_time_ns(d)?, next_seq(), d as u32)))
        .collect();
    kills.sort_unstable();
    let mut kills = kills.into_iter().peekable();
    // The pending flush's key.
    let mut flush: Option<(u64, u64)> = None;

    let healthy: Vec<u32> = (0..cfg.n_dpus as u32)
        .filter(|&d| !faults.dead_on_arrival(d as usize))
        .collect();
    let mut st = Loop {
        cfg,
        svc_ns,
        healthy,
        // free_at covers staging: a window's requests start no earlier
        // than its flush + push, FIFO per DPU thereafter.
        free_at: vec![0u64; cfg.n_dpus],
        in_flight: vec![0u32; cfg.n_dpus],
        staged: Vec::new(),
        jobs: Vec::new(),
        free_slots: Vec::new(),
        dpu_jobs: vec![Vec::new(); if faults_on { cfg.n_dpus } else { 0 }],
        total_in_flight: 0,
        redispatch_rr: 0,
        summary: FaultSummary::new(cfg.n_dpus),
    };
    st.summary.doa_dpus = (cfg.n_dpus - st.healthy.len()) as u64;
    st.summary
        .healthy_timeline
        .push((0.0, st.healthy.len() as u64));

    let mut rec = LatencyRecorder::with_capacity(cfg.n_requests);
    let mut admitted = 0u64; // routing counter: requests admitted so far
    let mut completed = 0u64;
    let mut peak_in_flight = 0u64;
    let mut depth_series: Vec<(u64, u64)> = Vec::new();
    let mut push_secs = 0.0f64;
    let mut push_calls = 0u64;
    let mut flush_ordinal = 0u64;
    let mut last_event_ns = 0u64;
    let mut window_bytes = vec![0u64; cfg.n_dpus];
    // DPUs whose `window_bytes` slot is non-zero, in first-touch order.
    let mut window_dpus: Vec<usize> = Vec::new();
    // Reused by every flush and kill: the requests it takes off
    // `staged`, and (flush) the window's transfer plan.
    let mut unstaged: Vec<StagedReq> = Vec::new();
    let mut plan = TransferPlan::new(TransferDirection::HostToPim);
    let n_requests = cfg.n_requests as u64;

    loop {
        // The next event is the one with the smallest key: the held
        // arrival, the pending flush or the next kill. Apply the
        // completions keyed below it (all of them once no event is
        // left).
        let kill_key = kills.peek().map(|&(t, seq, _)| (t, seq));
        let queued = match (flush, kill_key) {
            (Some(f), Some(k)) => Some(f.min(k)),
            (f, k) => f.or(k),
        };
        let arrival = next_arrival.filter(|&(t, seq, _)| queued.is_none_or(|q| (t, seq) < q));
        let next = match arrival {
            Some((t, seq, _)) => Some((t, seq)),
            None => queued,
        };
        ring.drain(next.unwrap_or((u64::MAX, u64::MAX)), |job_id| {
            let job = st.jobs[job_id as usize];
            st.free_slots.push(job_id);
            if !job.live {
                return; // ghost of a killed DPU's service slot
            }
            let dpu = job.dpu as usize;
            if faults_on {
                if let Some(pos) = st.dpu_jobs[dpu].iter().position(|&j| j == job_id) {
                    st.dpu_jobs[dpu].swap_remove(pos);
                }
            }
            st.in_flight[dpu] -= 1;
            st.total_in_flight -= 1;
            completed += 1;
            last_event_ns = last_event_ns.max(job.done);
            rec.record(Cycles(job.done - job.arrived));
        });
        // Stop once every request has completed or dropped: a kill or a
        // ghost completion after that settles nothing and must not
        // stretch the makespan.
        if completed + st.summary.drops_queue_full + st.summary.fault_drops() == n_requests {
            break;
        }
        let Some(key @ (now, _)) = next else {
            break;
        };
        last_event_ns = last_event_ns.max(now);
        if let Some((_, _, class)) = arrival {
            if st.healthy.is_empty() {
                st.summary.drops_no_healthy += 1;
            } else {
                let dpu = st.healthy[(admitted % st.healthy.len() as u64) as usize];
                if u64::from(st.in_flight[dpu as usize]) >= cfg.queue_cap as u64 {
                    st.summary.drops_queue_full += 1;
                } else {
                    st.in_flight[dpu as usize] += 1;
                    st.total_in_flight += 1;
                    peak_in_flight = peak_in_flight.max(st.total_in_flight);
                    st.staged.push(StagedReq {
                        arrived: now,
                        dpu,
                        class,
                        retries: 0,
                        not_before: 0,
                    });
                    admitted += 1;
                }
            }
        } else if flush == Some(key) {
            flush = None;
            let nonce = flush_ordinal;
            flush_ordinal += 1;
            // Ship the eligible staged requests; backoff holds the
            // rest for a later window.
            st.unstage(&mut unstaged, |r| r.not_before <= now);
            for r in &unstaged {
                let bytes = classes[r.class as usize].payload_bytes;
                let slot = &mut window_bytes[r.dpu as usize];
                if *slot == 0 && bytes > 0 {
                    window_dpus.push(r.dpu as usize);
                }
                *slot += bytes;
            }
            // Ascending DPU order: the per-DPU price sums in plan
            // order, so any other order could change its bits.
            window_dpus.sort_unstable();
            plan.clear();
            for dpu in window_dpus.drain(..) {
                plan.push(dpu, std::mem::take(&mut window_bytes[dpu]));
            }
            let f = planner.estimate_with_faults(&plan, &faults, nonce);
            push_secs += f.est.secs;
            push_calls += f.est.calls;
            st.summary.xfer_failed_shards += f.failed_shards;
            st.summary.xfer_straggled_shards += f.straggled_shards;
            let runnable_at = now + (f.est.secs * 1e9).round() as u64;
            for r in unstaged.drain(..) {
                let dpu = r.dpu as usize;
                if f.failed_dpus.binary_search(&dpu).is_ok() {
                    // The rank shard carrying this payload failed:
                    // retry with backoff or drop.
                    let retries = r.retries + 1;
                    if retries > cfg.retry.max_retries {
                        st.drop_admitted(r.dpu);
                    } else {
                        st.summary.retries += 1;
                        let not_before = now + st.backoff_ns(retries);
                        st.staged.push(StagedReq {
                            retries,
                            not_before,
                            ..r
                        });
                    }
                    continue;
                }
                let start = st.free_at[dpu].max(runnable_at);
                let done = start + st.svc_ns[r.class as usize];
                if done.saturating_sub(r.arrived) > cfg.retry.timeout_ns {
                    // Hopeless queue: re-route instead of waiting.
                    st.summary.timeouts += 1;
                    let retries = r.retries + 1;
                    if retries > cfg.retry.max_retries {
                        st.drop_admitted(r.dpu);
                    } else if let Some(target) = st.redispatch_target(r.dpu) {
                        st.summary.retries += 1;
                        st.in_flight[dpu] -= 1;
                        st.in_flight[target as usize] += 1;
                        let not_before = now + st.backoff_ns(retries);
                        st.staged.push(StagedReq {
                            dpu: target,
                            retries,
                            not_before,
                            ..r
                        });
                    } else {
                        st.drop_admitted(r.dpu);
                    }
                    continue;
                }
                st.free_at[dpu] = done;
                let job = st.alloc_job(Job {
                    arrived: r.arrived,
                    dpu: r.dpu,
                    class: r.class,
                    retries: r.retries,
                    done,
                    live: true,
                });
                if faults_on {
                    st.dpu_jobs[dpu].push(job);
                }
                ring.push(done, next_seq(), job);
            }
            depth_series.push((now, st.total_in_flight));
        } else if let Some((_, _, dpu)) = kills.next() {
            // No DPU dead on arrival draws a kill, and none draws two,
            // so each kill takes one healthy DPU out.
            let d = dpu as usize;
            st.healthy.retain(|&h| h != dpu);
            st.summary.killed_dpus += 1;
            st.summary
                .healthy_timeline
                .push((now as f64 * 1e-9, st.healthy.len() as u64));
            // Re-dispatch the casualties: staged requests simply
            // re-target; in-service requests lose their progress,
            // consume a retry, and back off before re-entering.
            st.unstage(&mut unstaged, |r| r.dpu == dpu);
            for id in std::mem::take(&mut st.dpu_jobs[d]) {
                let (arrived, class, prev_retries) = {
                    let job = &mut st.jobs[id as usize];
                    job.live = false;
                    (job.arrived, job.class, job.retries)
                };
                let retries = prev_retries + 1;
                if retries > cfg.retry.max_retries {
                    st.drop_admitted(dpu);
                    continue;
                }
                let not_before = now + st.backoff_ns(retries);
                unstaged.push(StagedReq {
                    arrived,
                    dpu,
                    class,
                    retries,
                    not_before,
                });
            }
            for r in unstaged.drain(..) {
                match st.redispatch_target(dpu) {
                    Some(target) => {
                        st.summary.redispatched += 1;
                        st.in_flight[d] -= 1;
                        st.in_flight[target as usize] += 1;
                        st.staged.push(StagedReq { dpu: target, ..r });
                    }
                    None => st.drop_admitted(dpu),
                }
            }
        }
        // Staged requests, new or deferred, need a window: close it at
        // the next boundary. Only a request staged by this event can
        // find no flush pending.
        if !st.staged.is_empty() && flush.is_none() {
            flush = Some(((now / window_ns + 1) * window_ns, next_seq()));
        }
        if arrival.is_some() {
            next_arrival = arrivals.next().map(|t| (t, next_seq(), picks.pick()));
        }
    }
    debug_assert_eq!(
        st.total_in_flight, 0,
        "every admitted request completes or drops"
    );
    st.summary.healthy_final = st.healthy.len() as u64;
    let dropped = st.summary.drops_queue_full
        + st.summary.drops_no_healthy
        + st.summary.drops_retry_exhausted;
    debug_assert_eq!(completed + dropped, cfg.n_requests as u64);

    let makespan_secs = last_event_ns as f64 * 1e-9;
    // Thin the dispatch-boundary samples to a bounded, evenly spaced
    // timeline (deterministic index arithmetic).
    let queue_depth: Vec<(f64, u64)> = if depth_series.len() <= cfg.timeline_points.max(1) {
        depth_series
            .iter()
            .map(|&(t, d)| (t as f64 * 1e-9, d))
            .collect()
    } else {
        let points = cfg.timeline_points.max(1);
        (0..points)
            .map(|i| {
                let (t, d) = depth_series[i * depth_series.len() / points];
                (t as f64 * 1e-9, d)
            })
            .collect()
    };

    ServeReport {
        offered_rps: cfg.arrival.mean_rps(),
        achieved_rps: if makespan_secs > 0.0 {
            completed as f64 / makespan_secs
        } else {
            0.0
        },
        admitted: completed,
        dropped,
        latency: rec.into_summary(),
        queue_depth,
        peak_in_flight,
        push_secs,
        push_calls,
        makespan_secs,
        faults: st.summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_malloc::PimAllocator;
    use pim_sim::DpuSim;
    use pim_trace::{synthesize, SizeLaw, SynthConfig, TemporalShape};

    fn sw_build(dpu: &mut DpuSim, tasklets: usize, heap: u32) -> Box<dyn PimAllocator> {
        let cfg = pim_malloc::AllocGeometry::sw(tasklets)
            .with_heap_size(heap)
            .build();
        Box::new(pim_malloc::PimMalloc::init(dpu, cfg).expect("init"))
    }

    fn small_class() -> RequestClass {
        let trace = synthesize(&SynthConfig {
            n_tasklets: 4,
            mallocs_per_tasklet: 8,
            size_law: SizeLaw::Fixed(64),
            shape: TemporalShape::Steady { compute: 100 },
            heap_size: 1 << 20,
            ..SynthConfig::default()
        });
        RequestClass::new("small", trace, 2048, 1.0)
    }

    fn quick_cfg(rps: f64) -> ServeConfig {
        ServeConfig {
            n_dpus: 16,
            n_requests: 2_000,
            arrival: ArrivalProcess::Poisson { rps },
            queue_cap: 32,
            window_us: 50,
            ..ServeConfig::default()
        }
    }

    /// Rates relative to the calibrated capacity of the 16-DPU test
    /// fleet, so load levels stay meaningful if cost models move.
    fn at_load(mult: f64) -> ServeConfig {
        let cap = crate::sweep::estimated_capacity_rps(&[small_class()], &sw_build, 16);
        quick_cfg(mult * cap)
    }

    #[test]
    fn serving_is_deterministic() {
        let cfg = at_load(0.5);
        let classes = [small_class()];
        let a = serve(&cfg, &classes, &sw_build);
        let b = serve(&cfg, &classes, &sw_build);
        assert_eq!(a, b);
        assert_eq!(a.admitted + a.dropped, cfg.n_requests as u64);
        assert_eq!(a.latency.count, a.admitted);
        assert!(a.makespan_secs > 0.0);
        assert!(a.push_calls > 0);
    }

    #[test]
    fn light_load_sees_no_drops_and_low_latency() {
        let r = serve(&at_load(0.3), &[small_class()], &sw_build);
        assert_eq!(r.dropped, 0, "0.3x capacity is far from the knee");
        // Latency is bounded below by one dispatch window and, at
        // light load, stays within a few service times of it.
        let service_ms = small_class().service_ns(&sw_build) as f64 * 1e-6;
        assert!(r.p50_ms() >= 0.05 * 0.5);
        assert!(
            r.p50_ms() < 4.0 * service_ms + 1.0,
            "uncongested p50 {} ms vs service {} ms",
            r.p50_ms(),
            service_ms
        );
        assert!(r.latency.p50 <= r.latency.p99);
    }

    #[test]
    fn overload_drops_and_inflates_the_tail() {
        let light = serve(&at_load(0.3), &[small_class()], &sw_build);
        let heavy = serve(&at_load(50.0), &[small_class()], &sw_build);
        assert!(heavy.dropped > 0, "50x capacity must overwhelm 16 DPUs");
        assert!(heavy.drop_frac() > 0.1);
        assert!(heavy.p99_ms() > light.p99_ms());
        assert!(heavy.peak_in_flight >= light.peak_in_flight);
        // The queue bound holds: never more in flight than cap × fleet.
        assert!(heavy.peak_in_flight <= (32 * 16) as u64);
        // Healthy fleet: every drop is a queue-full admission drop.
        assert_eq!(heavy.faults.drops_queue_full, heavy.dropped);
        assert_eq!(heavy.faults.fault_drops(), 0);
    }

    #[test]
    fn achieved_tracks_offered_under_light_load() {
        let r = serve(&at_load(0.3), &[small_class()], &sw_build);
        assert!(
            (r.achieved_rps - r.offered_rps).abs() < r.offered_rps * 0.2,
            "offered {} vs achieved {}",
            r.offered_rps,
            r.achieved_rps
        );
    }

    #[test]
    fn timeline_is_bounded_and_ordered() {
        let cfg = ServeConfig {
            timeline_points: 32,
            ..at_load(0.8)
        };
        let r = serve(&cfg, &[small_class()], &sw_build);
        assert!(r.queue_depth.len() <= 32);
        assert!(!r.queue_depth.is_empty());
        assert!(r
            .queue_depth
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[1].0 <= r.makespan_secs));
    }

    #[test]
    fn seed_changes_the_stream() {
        let cfg = at_load(0.5);
        let other = ServeConfig {
            ctx: cfg.ctx.with_seed(99),
            ..cfg
        };
        let classes = [small_class()];
        let a = serve(&cfg, &classes, &sw_build);
        let b = serve(&other, &classes, &sw_build);
        assert_ne!(a.latency, b.latency, "different seeds, different tails");
    }

    #[test]
    fn healthy_run_reports_a_clean_fault_summary() {
        let r = serve(&at_load(0.5), &[small_class()], &sw_build);
        let f = &r.faults;
        assert_eq!(f.doa_dpus, 0);
        assert_eq!(f.killed_dpus, 0);
        assert_eq!(f.healthy_final, 16);
        assert_eq!(f.healthy_timeline, vec![(0.0, 16)]);
        assert_eq!(f.retries + f.redispatched + f.timeouts, 0);
        assert_eq!(f.fault_drops(), 0);
    }

    #[test]
    fn dead_on_arrival_dpus_never_serve() {
        let faults = FaultPlan {
            seed: 3,
            dead_frac: 0.3,
            ..FaultPlan::none()
        };
        let base = at_load(0.4);
        let cfg = ServeConfig { faults, ..base };
        let r = serve(&cfg, &[small_class()], &sw_build);
        let dead = (0..16).filter(|&d| faults.dead_on_arrival(d)).count() as u64;
        assert!(dead > 0, "0.3 dead_frac on 16 DPUs should hit some");
        assert_eq!(r.faults.doa_dpus, dead);
        assert_eq!(r.faults.healthy_final, 16 - dead);
        // The healthy subset absorbs the load; the run still completes
        // every admitted request deterministically.
        assert_eq!(serve(&cfg, &[small_class()], &sw_build), r);
        assert_eq!(r.admitted + r.dropped, cfg.n_requests as u64);
        assert_eq!(r.latency.count, r.admitted);
    }

    #[test]
    fn mid_run_kills_redispatch_in_flight_work() {
        // Kill aggressively inside the stream's active horizon so
        // in-service requests are stranded and must move.
        let base = at_load(0.6);
        let probe = serve(&base, &[small_class()], &sw_build);
        let horizon = (probe.makespan_secs * 0.5 * 1e9) as u64;
        let faults = FaultPlan {
            seed: 8,
            kill_frac: 0.4,
            kill_horizon_ns: horizon.max(1),
            ..FaultPlan::none()
        };
        let cfg = ServeConfig { faults, ..base };
        let r = serve(&cfg, &[small_class()], &sw_build);
        assert!(r.faults.killed_dpus > 0, "0.4 kill_frac must land kills");
        assert_eq!(
            r.faults.healthy_timeline.len() as u64,
            1 + r.faults.killed_dpus,
            "one timeline point per kill"
        );
        assert!(
            r.faults.redispatched > 0,
            "killing mid-run must strand work"
        );
        // Accounting stays closed: all requests end somewhere.
        assert_eq!(r.admitted + r.dropped, cfg.n_requests as u64);
        assert_eq!(
            r.dropped,
            r.faults.drops_queue_full + r.faults.fault_drops()
        );
        // Deterministic under chaos.
        assert_eq!(serve(&cfg, &[small_class()], &sw_build), r);
    }

    #[test]
    fn transfer_faults_trigger_bounded_retries() {
        let base = at_load(0.5);
        let faults = FaultPlan {
            seed: 21,
            xfer_fail_prob: 0.2,
            xfer_straggle_prob: 0.2,
            straggle_factor: 3.0,
            ..FaultPlan::none()
        };
        let cfg = ServeConfig { faults, ..base };
        let clean = serve(&base, &[small_class()], &sw_build);
        let r = serve(&cfg, &[small_class()], &sw_build);
        assert!(r.faults.xfer_failed_shards > 0);
        assert!(r.faults.xfer_straggled_shards > 0);
        assert!(r.faults.retries > 0, "failed shards must be retried");
        // Retries + stragglers can only push the tail up.
        assert!(r.p99_ms() >= clean.p99_ms());
        assert!(r.push_secs > clean.push_secs, "stragglers inflate pushes");
        assert_eq!(r.admitted + r.dropped, cfg.n_requests as u64);
        assert_eq!(serve(&cfg, &[small_class()], &sw_build), r);
    }

    #[test]
    fn timeout_reroutes_hopeless_queues() {
        // A tight timeout at heavy load forces re-routing.
        let base = at_load(3.0);
        let svc = small_class().service_ns(&sw_build);
        let cfg = ServeConfig {
            retry: RetryPolicy {
                timeout_ns: 20 * svc,
                ..RetryPolicy::default()
            },
            // A negligible-but-enabled plan, so the fault machinery
            // (per-DPU job tracking) is on as well.
            faults: FaultPlan {
                seed: 1,
                dead_frac: 1e-9,
                ..FaultPlan::none()
            },
            ..base
        };
        let r = serve(&cfg, &[small_class()], &sw_build);
        assert!(r.faults.timeouts > 0, "3x load must breach a 20-svc SLO");
        // Timed-out requests either re-route (and complete) or drop.
        assert_eq!(r.admitted + r.dropped, cfg.n_requests as u64);
        assert!(r.latency.max.0 <= 20 * svc + 2 * svc + 1_000_000);
        // The timeout is not a fault path: it fires on a healthy fleet
        // with no fault plan at all.
        let healthy = ServeConfig {
            faults: base.faults,
            ..cfg
        };
        assert!(!healthy.faults.enabled());
        let h = serve(&healthy, &[small_class()], &sw_build);
        assert!(h.faults.timeouts > 0, "the timeout needs no fault plan");
        assert_eq!(h.admitted + h.dropped, healthy.n_requests as u64);
    }

    #[test]
    fn timeouts_never_reroute_to_the_same_dpu() {
        // A one-DPU fleet has no other DPU to re-route to, so every
        // timed-out request drops instead of retrying where it timed
        // out.
        let cap = crate::sweep::estimated_capacity_rps(&[small_class()], &sw_build, 1);
        let svc = small_class().service_ns(&sw_build);
        let cfg = ServeConfig {
            n_dpus: 1,
            retry: RetryPolicy {
                timeout_ns: 20 * svc,
                ..RetryPolicy::default()
            },
            ..quick_cfg(3.0 * cap)
        };
        let f = serve(&cfg, &[small_class()], &sw_build).faults;
        assert!(f.timeouts > 0, "3x load must breach a 20-svc SLO");
        assert_eq!(f.retries, 0, "no reroute may target the same DPU");
        assert_eq!(f.drops_retry_exhausted, f.timeouts);
    }

    #[test]
    #[should_panic(expected = "window_us 0 is outside 1..=")]
    fn a_zero_window_is_rejected() {
        let cfg = ServeConfig {
            window_us: 0,
            ..quick_cfg(1e4)
        };
        serve(&cfg, &[small_class()], &sw_build);
    }

    #[test]
    #[should_panic(expected = "is outside 1..=18446744073709551")]
    fn a_window_past_u64_nanoseconds_is_rejected() {
        let cfg = ServeConfig {
            window_us: u64::MAX / 1_000 + 1,
            ..quick_cfg(1e4)
        };
        serve(&cfg, &[small_class()], &sw_build);
    }

    #[test]
    fn fleet_of_the_dead_drops_everything_gracefully() {
        let faults = FaultPlan {
            seed: 2,
            dead_frac: 1.0,
            ..FaultPlan::none()
        };
        let base = at_load(0.5);
        let cfg = ServeConfig { faults, ..base };
        let r = serve(&cfg, &[small_class()], &sw_build);
        assert_eq!(r.admitted, 0);
        assert_eq!(r.dropped, cfg.n_requests as u64);
        assert_eq!(r.faults.drops_no_healthy, cfg.n_requests as u64);
        assert_eq!(r.faults.healthy_final, 0);
    }
}
