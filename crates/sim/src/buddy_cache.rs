//! Functional model of the paper's per-DPU hardware *buddy cache*.
//!
//! The buddy cache (PIM-malloc-HW/SW, §IV-B of the paper) is a small
//! fully-associative cache built from a CAM, holding recently accessed
//! buddy-allocator metadata. Each entry is tagged with the MRAM address
//! of its `bytes_per_entry` bytes of metadata (4 B in the paper).
//! Replacement is true LRU. The PIM core reaches it through four ISA
//! extensions — `init_bc`, `lookup_bc`, `read_bc`, `write_bc`.
//!
//! The model keeps only what decides hits, evictions and write-backs:
//! each entry's tag, dirty bit and LRU stamp. The metadata itself stays
//! in the caller's node array, which is what a cached entry would hold.
//! Timing is charged by the caller, as instructions, through its
//! [`TaskletCtx`](crate::TaskletCtx).
//!
//! On the host, a hit costs O(1): LRU order is a per-slot last-use
//! stamp, so a hit or an update writes one stamp, and
//! [`BuddyCache::lookup_hinted`] checks a caller-remembered slot before
//! it scans the tags. Only a fill into a full cache scans for the
//! victim, the smallest stamp.

use serde::{Deserialize, Serialize};

/// Configuration of the buddy cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuddyCacheConfig {
    /// Number of CAM entries (paper default: 16).
    pub entries: usize,
    /// Bytes of metadata per entry, a power of two of at least 4
    /// (paper default: 4; §VII's line caches use 8 or 64).
    pub bytes_per_entry: u32,
}

impl BuddyCacheConfig {
    /// Total metadata capacity in bytes (paper default: 64 B).
    pub fn capacity_bytes(&self) -> u32 {
        self.entries as u32 * self.bytes_per_entry
    }

    /// A config with the given total capacity, keeping 4 B entries.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a positive multiple of 4.
    pub fn with_capacity_bytes(bytes: u32) -> Self {
        assert!(
            bytes >= 4 && bytes.is_multiple_of(4),
            "capacity must be a multiple of 4 B"
        );
        BuddyCacheConfig {
            entries: (bytes / 4) as usize,
            bytes_per_entry: 4,
        }
    }
}

impl Default for BuddyCacheConfig {
    fn default() -> Self {
        BuddyCacheConfig {
            entries: 16,
            bytes_per_entry: 4,
        }
    }
}

/// Hit/miss statistics of a buddy cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuddyCacheStats {
    /// `lookup_bc` operations that hit. A metadata store makes one
    /// lookup per access, so hits plus misses count its accesses.
    pub hits: u64,
    /// `lookup_bc` operations that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Evicted entries that were dirty (required a DRAM write-back).
    pub writebacks: u64,
}

impl BuddyCacheStats {
    /// Hit rate in `[0, 1]`; zero when no lookups were performed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Result of a `lookup_bc` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Tag match; the slot index can be passed to
    /// [`BuddyCache::update`].
    Hit(usize),
    /// No entry holds the address.
    Miss,
}

/// Description of an entry evicted by `write_bc`, so the runtime can
/// write the victim back to DRAM if it was dirty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// MRAM address of the evicted entry.
    pub addr: u32,
    /// Whether the entry was modified since it was filled.
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    addr: u32,
    dirty: bool,
    /// Tick of the entry's last hit, update or fill; the smallest
    /// stamp marks the least-recently-used entry.
    stamp: u64,
}

/// A fully-associative, LRU-replaced CAM of metadata tags.
///
/// ```
/// use pim_sim::{BuddyCache, BuddyCacheConfig, LookupResult};
/// let mut bc = BuddyCache::new(BuddyCacheConfig::default());
/// assert_eq!(bc.lookup(0x0800_0000), LookupResult::Miss);
/// let (slot, _) = bc.fill(0x0800_0000);
/// assert_eq!(bc.lookup(0x0800_0000), LookupResult::Hit(slot));
/// bc.update(slot);
/// let (_, victim) = bc.fill(0x0800_0004);
/// assert_eq!(victim, None, "a free slot remains");
/// ```
#[derive(Debug, Clone)]
pub struct BuddyCache {
    config: BuddyCacheConfig,
    entries: Vec<Entry>,
    /// Number of valid entries. Fills take free slots in order and
    /// only `init` invalidates, so slots `..valid` are exactly the
    /// valid ones.
    valid: usize,
    /// Last stamp handed out.
    tick: u64,
    stats: BuddyCacheStats,
}

impl BuddyCache {
    /// Creates an empty (all-invalid) buddy cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero entries.
    pub fn new(config: BuddyCacheConfig) -> Self {
        assert!(config.entries > 0, "buddy cache needs at least one entry");
        BuddyCache {
            entries: vec![Entry::default(); config.entries],
            valid: 0,
            tick: 0,
            config,
            stats: BuddyCacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> BuddyCacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BuddyCacheStats {
        self.stats
    }

    /// `init_bc`: invalidates every entry and resets statistics.
    pub fn init(&mut self) {
        self.valid = 0;
        self.stats = BuddyCacheStats::default();
    }

    /// Marks `slot` most-recently-used.
    #[inline]
    fn touch(&mut self, slot: usize) {
        self.tick += 1;
        self.entries[slot].stamp = self.tick;
    }

    #[inline]
    fn hit(&mut self, slot: usize) -> LookupResult {
        self.stats.hits += 1;
        self.touch(slot);
        LookupResult::Hit(slot)
    }

    /// `lookup_bc`: CAM tag search for `addr`.
    ///
    /// A hit promotes the entry to most-recently-used.
    pub fn lookup(&mut self, addr: u32) -> LookupResult {
        match self.entries[..self.valid]
            .iter()
            .position(|e| e.addr == addr)
        {
            Some(slot) => self.hit(slot),
            None => {
                self.stats.misses += 1;
                LookupResult::Miss
            }
        }
    }

    /// [`BuddyCache::lookup`] that checks slot `hint` first and scans
    /// the tags only when `hint` does not hold `addr`. The result,
    /// statistics and LRU effect are the same for any `hint`, so a
    /// stale or out-of-range guess costs only the scan.
    #[inline]
    pub fn lookup_hinted(&mut self, addr: u32, hint: usize) -> LookupResult {
        if hint < self.valid && self.entries[hint].addr == addr {
            self.hit(hint)
        } else {
            self.lookup(addr)
        }
    }

    /// `write_bc` on a *hit* slot: the entry was modified, so it is
    /// marked dirty and most-recently-used.
    ///
    /// # Panics
    ///
    /// Panics if the slot is invalid.
    #[inline]
    pub fn update(&mut self, slot: usize) {
        assert!(slot < self.valid, "update of invalid slot {slot}");
        self.entries[slot].dirty = true;
        self.touch(slot);
    }

    /// `write_bc` after a miss: installs `addr`, evicting the LRU entry
    /// if no slot is free. Returns the slot it installed and the victim
    /// (for DRAM write-back) if one was evicted.
    ///
    /// The newly installed entry is clean: the caller just fetched it
    /// from DRAM. Use [`BuddyCache::update`] when a store dirties it.
    pub fn fill(&mut self, addr: u32) -> (usize, Option<Eviction>) {
        debug_assert!(
            !self.entries[..self.valid].iter().any(|e| e.addr == addr),
            "fill of already-cached address {addr:#x}"
        );
        // Prefer a free slot; otherwise evict the LRU entry.
        let (slot, victim) = if self.valid < self.entries.len() {
            self.valid += 1;
            (self.valid - 1, None)
        } else {
            let slot = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].stamp)
                .expect("nonempty cache");
            let v = self.entries[slot];
            self.stats.evictions += 1;
            self.stats.writebacks += u64::from(v.dirty);
            let victim = Eviction {
                addr: v.addr,
                dirty: v.dirty,
            };
            (slot, Some(victim))
        };
        self.entries[slot] = Entry {
            addr,
            dirty: false,
            stamp: 0,
        };
        self.touch(slot);
        (slot, victim)
    }

    /// Number of valid entries currently cached.
    pub fn valid_entries(&self) -> usize {
        self.valid
    }

    /// Position of `addr`'s entry in most-recently-used-first order (0
    /// for the most recent), or `None` if no entry holds it. Read-only:
    /// unlike [`BuddyCache::lookup`], it neither counts nor promotes.
    pub fn recency(&self, addr: u32) -> Option<usize> {
        let valid = &self.entries[..self.valid];
        let stamp = valid.iter().find(|e| e.addr == addr)?.stamp;
        Some(valid.iter().filter(|e| e.stamp > stamp).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cache(entries: usize) -> BuddyCache {
        BuddyCache::new(BuddyCacheConfig {
            entries,
            bytes_per_entry: 4,
        })
    }

    #[test]
    fn default_is_paper_configuration() {
        let c = BuddyCacheConfig::default();
        assert_eq!(c.entries, 16);
        assert_eq!(c.capacity_bytes(), 64);
    }

    #[test]
    fn with_capacity_bytes_derives_entries() {
        assert_eq!(BuddyCacheConfig::with_capacity_bytes(64).entries, 16);
        assert_eq!(BuddyCacheConfig::with_capacity_bytes(16).entries, 4);
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn bad_capacity_panics() {
        BuddyCacheConfig::with_capacity_bytes(6);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut bc = cache(2);
        assert_eq!(bc.lookup(100), LookupResult::Miss);
        assert_eq!(bc.fill(100), (0, None));
        assert_eq!(bc.lookup(100), LookupResult::Hit(0));
        assert_eq!(bc.stats().hits, 1);
        assert_eq!(bc.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut bc = cache(2);
        bc.fill(1);
        bc.fill(2);
        // Touch 1 so that 2 becomes LRU.
        assert!(matches!(bc.lookup(1), LookupResult::Hit(_)));
        let ev = bc.fill(3).1.expect("cache full, must evict");
        assert_eq!(ev.addr, 2);
        assert!(!ev.dirty);
        assert!(matches!(bc.lookup(1), LookupResult::Hit(_)));
        assert!(matches!(bc.lookup(3), LookupResult::Hit(_)));
        assert_eq!(bc.lookup(2), LookupResult::Miss);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut bc = cache(1);
        bc.fill(1);
        if let LookupResult::Hit(slot) = bc.lookup(1) {
            bc.update(slot);
        } else {
            panic!("expected hit");
        }
        let ev = bc.fill(2).1.unwrap();
        assert_eq!(
            ev,
            Eviction {
                addr: 1,
                dirty: true
            }
        );
        assert_eq!(bc.stats().writebacks, 1);
        assert_eq!(bc.stats().evictions, 1);
    }

    #[test]
    fn init_clears_contents_and_stats() {
        let mut bc = cache(2);
        bc.fill(1);
        bc.lookup(1);
        bc.init();
        assert_eq!(bc.valid_entries(), 0);
        assert_eq!(bc.stats(), BuddyCacheStats::default());
        assert_eq!(bc.lookup(1), LookupResult::Miss);
    }

    #[test]
    fn hit_rate_computation() {
        let mut bc = cache(4);
        bc.fill(1);
        for _ in 0..9 {
            bc.lookup(1);
        }
        bc.lookup(2); // miss
                      // 9 hits, 2 misses (initial fill lookup was not performed here,
                      // only the explicit ones: 9 hits + 1 miss + ... recount below).
        let s = bc.stats();
        assert_eq!(s.hits, 9);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_hit_rate_is_zero() {
        assert_eq!(BuddyCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid slot")]
    fn updating_invalid_slot_panics() {
        let mut bc = cache(2);
        bc.fill(1);
        bc.update(1);
    }

    /// The MRU-list cache the stamp LRU replaced: `lru` holds every
    /// slot, most recently used first, and each touch moves one slot
    /// to the front.
    struct ListLru {
        entries: Vec<Option<(u32, bool)>>,
        lru: Vec<usize>,
        stats: BuddyCacheStats,
    }

    impl ListLru {
        fn new(entries: usize) -> Self {
            ListLru {
                entries: vec![None; entries],
                lru: (0..entries).collect(),
                stats: BuddyCacheStats::default(),
            }
        }

        fn init(&mut self) {
            *self = ListLru::new(self.entries.len());
        }

        fn touch(&mut self, slot: usize) {
            let pos = self.lru.iter().position(|&s| s == slot).unwrap();
            self.lru.remove(pos);
            self.lru.insert(0, slot);
        }

        fn lookup(&mut self, addr: u32) -> LookupResult {
            match self
                .entries
                .iter()
                .position(|e| matches!(e, Some((a, _)) if *a == addr))
            {
                Some(slot) => {
                    self.stats.hits += 1;
                    self.touch(slot);
                    LookupResult::Hit(slot)
                }
                None => {
                    self.stats.misses += 1;
                    LookupResult::Miss
                }
            }
        }

        fn update(&mut self, slot: usize) {
            self.entries[slot].as_mut().unwrap().1 = true;
            self.touch(slot);
        }

        fn fill(&mut self, addr: u32) -> (usize, Option<Eviction>) {
            let slot = match self.entries.iter().position(Option::is_none) {
                Some(s) => s,
                None => *self.lru.last().unwrap(),
            };
            let victim = self.entries[slot].map(|(addr, dirty)| {
                self.stats.evictions += 1;
                self.stats.writebacks += u64::from(dirty);
                Eviction { addr, dirty }
            });
            self.entries[slot] = Some((addr, false));
            self.touch(slot);
            (slot, victim)
        }

        fn valid_entries(&self) -> usize {
            self.entries.iter().flatten().count()
        }

        /// Position of `addr`'s slot in the list. Fills take never-used
        /// slots, which stay behind every used one, so this counts only
        /// valid entries.
        fn recency(&self, addr: u32) -> Option<usize> {
            let slot = self
                .entries
                .iter()
                .position(|e| matches!(e, Some((a, _)) if *a == addr))?;
            self.lru.iter().position(|&s| s == slot)
        }
    }

    proptest! {
        /// The stamp LRU makes every choice the MRU list makes: each
        /// lookup (plain or from any hint), fill slot, eviction, dirty
        /// bit, valid count, statistic and every address's recency
        /// agrees after every step.
        #[test]
        fn stamps_replay_the_mru_list(
            entries in 1usize..7,
            ops in proptest::collection::vec((0u8..12, 0u32..12, 0usize..8), 1..400),
        ) {
            let mut bc = cache(entries);
            let mut list = ListLru::new(entries);
            for (op, addr, hint) in ops {
                match op {
                    0 => {
                        bc.init();
                        list.init();
                    }
                    _ => {
                        let got = if op % 2 == 0 {
                            bc.lookup_hinted(addr, hint)
                        } else {
                            bc.lookup(addr)
                        };
                        prop_assert_eq!(got, list.lookup(addr));
                        match got {
                            LookupResult::Hit(slot) if op > 6 => {
                                bc.update(slot);
                                list.update(slot);
                            }
                            LookupResult::Hit(_) => {}
                            LookupResult::Miss => {
                                prop_assert_eq!(bc.fill(addr), list.fill(addr));
                            }
                        }
                    }
                }
                prop_assert_eq!(bc.valid_entries(), list.valid_entries());
                prop_assert_eq!(bc.stats(), list.stats);
                for addr in 0..12 {
                    prop_assert_eq!(bc.recency(addr), list.recency(addr));
                }
            }
        }

        /// The cache never holds more valid entries than its capacity,
        /// never holds two entries for one address, and a lookup right
        /// after a fill always hits.
        #[test]
        fn cam_invariants(ops in proptest::collection::vec((0u32..32, any::<bool>()), 1..200)) {
            let mut bc = cache(4);
            for (addr, write) in ops {
                match bc.lookup(addr) {
                    LookupResult::Hit(slot) if write => bc.update(slot),
                    LookupResult::Hit(_) => {}
                    LookupResult::Miss => { bc.fill(addr); }
                }
                // Immediately visible.
                prop_assert!(matches!(bc.lookup(addr), LookupResult::Hit(_)), "fill must be visible");
                prop_assert!(bc.valid_entries() <= 4);
            }
        }

        /// With a working set no larger than the cache, after the
        /// initial cold misses every access hits (LRU retains the set).
        #[test]
        fn small_working_set_fully_hits(rounds in 1usize..20) {
            let mut bc = cache(4);
            for addr in 0u32..4 { bc.lookup(addr); bc.fill(addr); }
            let before = bc.stats().misses;
            for _ in 0..rounds {
                for addr in 0u32..4 {
                    prop_assert!(matches!(bc.lookup(addr), LookupResult::Hit(_)));
                }
            }
            prop_assert_eq!(bc.stats().misses, before);
        }
    }
}
