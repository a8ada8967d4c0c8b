//! Spans recorded from the benchmark's own code, kept in memory and
//! printed once when the run ends, plus the allocator wrapper that
//! records one span per `pim_malloc`/`pim_free` call.
//!
//! Layers whose work happens inside the program (frame table, buddy
//! descent, `DpuSim` charge/settle) get modeled counters only; their
//! host time stays inside the allocator spans until the program grows
//! spans of its own.

use std::any::Any;
use std::collections::BTreeMap;
use std::time::Instant;

use pim_malloc::{AllocError, AllocStats, PimAllocator};
use pim_sim::TaskletCtx;

/// Exact distribution of `u64` samples: a count per distinct value,
/// which stays small because modeled cycles take few distinct values
/// and host nanoseconds are bounded per call.
#[derive(Debug, Default, Clone)]
pub struct Dist {
    counts: BTreeMap<u64, u64>,
    n: u64,
    sum: u128,
}

impl Dist {
    pub fn record(&mut self, v: u64) {
        *self.counts.entry(v).or_insert(0) += 1;
        self.n += 1;
        self.sum += u128::from(v);
    }

    pub fn sum(&self) -> u128 {
        self.sum
    }

    fn merge(&mut self, other: &Dist) {
        for (&v, &c) in &other.counts {
            *self.counts.entry(v).or_insert(0) += c;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// Nearest-rank quantile, the convention of
    /// `pim_sim::LatencyRecorder`; zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (&v, &c) in &self.counts {
            seen += c;
            if seen >= rank {
                return v;
            }
        }
        unreachable!("rank {rank} is within the {} samples", self.n)
    }
}

/// One named span, aggregated over every time it was entered.
#[derive(Debug, Default, Clone)]
pub struct Span {
    pub count: u64,
    pub total_ns: u64,
    /// Part of `total_ns` covered by child spans.
    pub child_ns: u64,
    /// Host nanoseconds per entry.
    pub host: Dist,
    /// Modeled cycles per entry (allocator spans only).
    pub cycles: Dist,
}

impl Span {
    fn record(&mut self, ns: u64, cycles: Option<u64>) {
        self.count += 1;
        self.total_ns += ns;
        self.host.record(ns);
        if let Some(c) = cycles {
            self.cycles.record(c);
        }
    }

    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    fn merge(&mut self, other: &Span) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.child_ns += other.child_ns;
        self.host.merge(&other.host);
        self.cycles.merge(&other.cycles);
    }
}

/// The span registry of one traced run.
#[derive(Debug, Default)]
pub struct Spans {
    map: BTreeMap<String, Span>,
}

impl Spans {
    /// Times `f` as one entry of span `name` that has no child spans.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.add(name, ns, 0);
        (out, ns)
    }

    /// Records one entry of `name` lasting `ns`, of which `child_ns`
    /// was spent in child spans.
    pub fn add(&mut self, name: &str, ns: u64, child_ns: u64) {
        let span = self.map.entry(name.to_string()).or_default();
        span.record(ns, None);
        span.child_ns += child_ns;
    }

    /// Merges allocator call spans in under their site names.
    pub fn absorb(&mut self, sites: &[Span; SITES]) {
        for (site, span) in SITE_NAMES.iter().zip(sites) {
            if span.count > 0 {
                self.map.entry(site.to_string()).or_default().merge(span);
            }
        }
    }

    /// The span table: count, total, self time and host p50/p99.
    pub fn print(&self) {
        println!(
            "{:<44} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "span", "count", "total_s", "self_s", "p50_ns", "p99_ns"
        );
        for (name, s) in &self.map {
            println!(
                "{:<44} {:>10} {:>12.6} {:>12.6} {:>12} {:>12}",
                name,
                s.count,
                s.total_ns as f64 * 1e-9,
                s.self_ns() as f64 * 1e-9,
                s.host.quantile(0.5),
                s.host.quantile(0.99),
            );
        }
    }
}

/// Service sites an allocator call is attributed to, indexed as
/// `SITE_NAMES`.
pub const SITES: usize = 9;
pub const MALLOC_HIT: usize = 0;
pub const MALLOC_REFILL: usize = 1;
pub const MALLOC_BYPASS: usize = 2;
pub const MALLOC_FAILED: usize = 5;
pub const FREE_LOCAL: usize = 6;
pub const FREE_REMOTE: usize = 7;
pub const FREE_FAILED: usize = 8;
pub const SITE_NAMES: [&str; SITES] = [
    "alloc.malloc.hit",
    "alloc.malloc.refill",
    "alloc.malloc.bypass",
    "alloc.malloc.transfer_hit",
    "alloc.malloc.central_hit",
    "alloc.malloc.failed",
    "alloc.free.local",
    "alloc.free.remote",
    "alloc.free.failed",
];
pub const MALLOC_SITES: std::ops::Range<usize> = MALLOC_HIT..FREE_LOCAL;
pub const FREE_SITES: std::ops::Range<usize> = FREE_LOCAL..SITES;

/// The `u64` counters of `AllocStats` a call's site is read from.
#[derive(Clone, Copy)]
struct Counters([u64; 7]);

impl Counters {
    fn of(s: &AllocStats) -> Self {
        Counters([
            s.frontend_hits,
            s.frontend_refills,
            s.bypass,
            s.transfer_hits,
            s.central_hits,
            s.frees_remote_transfer,
            s.frees_remote_global,
        ])
    }

    /// The malloc site whose counter the call incremented.
    fn malloc_site(self, after: Counters) -> usize {
        (0..5)
            .find(|&i| after.0[i] > self.0[i])
            .unwrap_or(MALLOC_FAILED)
    }

    fn free_site(self, after: Counters) -> usize {
        if after.0[5] > self.0[5] || after.0[6] > self.0[6] {
            FREE_REMOTE
        } else {
            FREE_LOCAL
        }
    }
}

/// A `PimAllocator` that records one span per call: host nanoseconds,
/// modeled cycles from `ctx.now()` around the call, and the service
/// site read off the allocator's own counters.
pub struct TracedAlloc<A> {
    pub inner: A,
    pub sites: [Span; SITES],
}

impl<A> TracedAlloc<A> {
    pub fn new(inner: A) -> Self {
        TracedAlloc {
            inner,
            sites: Default::default(),
        }
    }

    /// Host nanoseconds spent inside the allocator.
    pub fn total_ns(&self) -> u64 {
        self.sites.iter().map(|s| s.total_ns).sum()
    }

    /// The calls of the given sites merged into one span.
    pub fn merged(&self, sites: std::ops::Range<usize>) -> Span {
        let mut out = Span::default();
        for s in &self.sites[sites] {
            out.merge(s);
        }
        out
    }
}

impl<A: PimAllocator> PimAllocator for TracedAlloc<A> {
    fn pim_malloc(&mut self, ctx: &mut TaskletCtx<'_>, size: u32) -> Result<u32, AllocError> {
        let before = Counters::of(self.inner.alloc_stats());
        let c0 = ctx.now();
        let t0 = Instant::now();
        let out = self.inner.pim_malloc(ctx, size);
        let ns = t0.elapsed().as_nanos() as u64;
        let cycles = (ctx.now() - c0).0;
        let site = match out {
            Ok(_) => before.malloc_site(Counters::of(self.inner.alloc_stats())),
            Err(_) => MALLOC_FAILED,
        };
        self.sites[site].record(ns, Some(cycles));
        out
    }

    fn pim_free(&mut self, ctx: &mut TaskletCtx<'_>, addr: u32) -> Result<(), AllocError> {
        let before = Counters::of(self.inner.alloc_stats());
        let c0 = ctx.now();
        let t0 = Instant::now();
        let out = self.inner.pim_free(ctx, addr);
        let ns = t0.elapsed().as_nanos() as u64;
        let cycles = (ctx.now() - c0).0;
        let site = match out {
            Ok(()) => before.free_site(Counters::of(self.inner.alloc_stats())),
            Err(_) => FREE_FAILED,
        };
        self.sites[site].record(ns, Some(cycles));
        out
    }

    fn alloc_stats(&self) -> &AllocStats {
        self.inner.alloc_stats()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}
