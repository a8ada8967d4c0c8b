//! Allocator-level statistics: where requests were serviced and how
//! much latency each service site contributed (Figure 11 of the paper).

use pim_sim::{Cycles, LatencyRecorder};
use serde::{Deserialize, Serialize};

/// Where a `pim_malloc` request was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceSite {
    /// Served from a free sub-block already in the thread cache.
    FrontendHit,
    /// The thread cache had to fetch a fresh 4 KB block from the
    /// backend buddy allocator first.
    FrontendRefill,
    /// The request exceeded the largest size class and went directly
    /// to the backend (thread-cache bypass).
    Bypass,
    /// Served from the thread cache by reusing a sub-block another
    /// tasklet freed.
    TransferHit,
}

impl ServiceSite {
    /// True if the backend buddy allocator was involved.
    pub fn touches_backend(self) -> bool {
        matches!(self, ServiceSite::FrontendRefill | ServiceSite::Bypass)
    }
}

/// Counters and latency attribution for one allocator instance.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AllocStats {
    /// `pim_malloc` calls served entirely by the thread cache.
    pub frontend_hits: u64,
    /// `pim_malloc` calls that triggered a backend refill.
    pub frontend_refills: u64,
    /// `pim_malloc` calls that bypassed the thread cache.
    pub bypass: u64,
    /// `pim_free` calls absorbed by the thread cache.
    pub frees_frontend: u64,
    /// `pim_free` calls that reached the backend.
    pub frees_backend: u64,
    /// Thread-cache hits that reused a remote-freed sub-block.
    pub transfer_hits: u64,
    /// Always 0: the central free list this counted is gone. Kept so
    /// readers of the full counter set keep working.
    pub central_hits: u64,
    /// Cross-tasklet frees, each priced in batches.
    pub frees_remote_transfer: u64,
    /// Always 0, like [`AllocStats::central_hits`]: no remote free
    /// takes the global backend lock.
    pub frees_remote_global: u64,
    /// Batches of remote frees written out (one MRAM write each).
    pub transfer_flushes: u64,
    /// Always 0, like [`AllocStats::central_hits`].
    pub central_demotes: u64,
    /// Always 0, like [`AllocStats::central_hits`].
    pub spans_returned: u64,
    /// Total `pim_malloc` latency of frontend-hit requests.
    pub cycles_frontend: Cycles,
    /// Total `pim_malloc` latency of backend-involved requests.
    pub cycles_backend: Cycles,
    /// Every `pim_malloc` latency, in call order.
    pub malloc_latencies: LatencyRecorder,
}

impl AllocStats {
    /// Total `pim_malloc` calls.
    pub fn total_mallocs(&self) -> u64 {
        self.frontend_hits + self.frontend_refills + self.bypass + self.transfer_hits
    }

    /// Fraction of `pim_malloc` calls serviced at the frontend without
    /// touching the backend (Figure 11(a)). Transfer hits count: they
    /// are thread-cache hits whose sub-block another tasklet freed.
    pub fn frontend_service_fraction(&self) -> f64 {
        let total = self.total_mallocs();
        if total == 0 {
            return 0.0;
        }
        (self.frontend_hits + self.transfer_hits) as f64 / total as f64
    }

    /// Fraction of *class-eligible* `pim_malloc` calls served without
    /// a backend refill: hits (plain or remote-freed) over hits plus
    /// refills. Bypass requests are excluded — they never had a
    /// cached block to hit. `churn_keeps_class_requests_on_the_frontend`
    /// (`tests/frontend_charges.rs`) gates on it: a healthy frontend
    /// absorbs ≥ 90% of class-eligible traffic.
    pub fn class_hit_rate(&self) -> f64 {
        let hits = self.frontend_hits + self.transfer_hits;
        let eligible = hits + self.frontend_refills;
        if eligible == 0 {
            return 0.0;
        }
        hits as f64 / eligible as f64
    }

    /// Fraction of aggregate `pim_malloc` latency attributable to
    /// requests that involved the backend (Figure 11(b)).
    pub fn backend_latency_fraction(&self) -> f64 {
        let total = (self.cycles_frontend + self.cycles_backend).0;
        if total == 0 {
            return 0.0;
        }
        self.cycles_backend.0 as f64 / total as f64
    }

    /// Records one serviced `pim_malloc`.
    pub fn record_malloc(&mut self, site: ServiceSite, latency: Cycles) {
        match site {
            ServiceSite::FrontendHit => {
                self.frontend_hits += 1;
                self.cycles_frontend += latency;
            }
            ServiceSite::FrontendRefill => {
                self.frontend_refills += 1;
                self.cycles_backend += latency;
            }
            ServiceSite::Bypass => {
                self.bypass += 1;
                self.cycles_backend += latency;
            }
            ServiceSite::TransferHit => {
                self.transfer_hits += 1;
                self.cycles_frontend += latency;
            }
        }
        self.malloc_latencies.record(latency);
    }

    /// Records one serviced `pim_free`.
    pub fn record_free(&mut self, touched_backend: bool) {
        if touched_backend {
            self.frees_backend += 1;
        } else {
            self.frees_frontend += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_fractions() {
        let mut s = AllocStats::default();
        for _ in 0..93 {
            s.record_malloc(ServiceSite::FrontendHit, Cycles(10));
        }
        for _ in 0..5 {
            s.record_malloc(ServiceSite::FrontendRefill, Cycles(500));
        }
        for _ in 0..2 {
            s.record_malloc(ServiceSite::Bypass, Cycles(400));
        }
        assert_eq!(s.total_mallocs(), 100);
        assert!((s.frontend_service_fraction() - 0.93).abs() < 1e-12);
        // Backend latency share: (5*500 + 2*400) / (930 + 3300)
        let expect = 3300.0 / 4230.0;
        assert!((s.backend_latency_fraction() - expect).abs() < 1e-12);
        assert_eq!(s.malloc_latencies.len(), 100);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = AllocStats::default();
        assert_eq!(s.frontend_service_fraction(), 0.0);
        assert_eq!(s.backend_latency_fraction(), 0.0);
        assert_eq!(s.total_mallocs(), 0);
    }

    #[test]
    fn site_backend_classification() {
        assert!(!ServiceSite::FrontendHit.touches_backend());
        assert!(ServiceSite::FrontendRefill.touches_backend());
        assert!(ServiceSite::Bypass.touches_backend());
        assert!(!ServiceSite::TransferHit.touches_backend());
    }

    #[test]
    fn middle_tier_hits_count_as_frontend_service() {
        let mut s = AllocStats::default();
        s.record_malloc(ServiceSite::FrontendHit, Cycles(10));
        s.record_malloc(ServiceSite::TransferHit, Cycles(20));
        s.record_malloc(ServiceSite::Bypass, Cycles(400));
        assert_eq!(s.total_mallocs(), 3);
        assert_eq!(s.transfer_hits, 1);
        assert!((s.frontend_service_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.cycles_frontend, Cycles(30));
    }

    #[test]
    fn class_hit_rate_excludes_bypass_and_counts_staged_hits() {
        let mut s = AllocStats::default();
        assert_eq!(s.class_hit_rate(), 0.0, "no traffic yet");
        for _ in 0..7 {
            s.record_malloc(ServiceSite::FrontendHit, Cycles(10));
        }
        s.record_malloc(ServiceSite::TransferHit, Cycles(20));
        s.record_malloc(ServiceSite::TransferHit, Cycles(30));
        s.record_malloc(ServiceSite::FrontendRefill, Cycles(500));
        // Bypass traffic must not dilute the rate.
        for _ in 0..10 {
            s.record_malloc(ServiceSite::Bypass, Cycles(400));
        }
        assert!((s.class_hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn frees_are_counted_by_site() {
        let mut s = AllocStats::default();
        s.record_free(false);
        s.record_free(true);
        s.record_free(false);
        assert_eq!(s.frees_frontend, 2);
        assert_eq!(s.frees_backend, 1);
    }
}
