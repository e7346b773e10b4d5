//! On-chip counter cache for counter-mode encryption.
//!
//! Counter-mode encryption needs the per-line write counter before it can
//! generate a pad. Counters live in DRAM; an on-chip *counter cache* holds
//! recently used counter lines so that most accesses avoid a second memory
//! round-trip. Figure 1 of the paper sweeps this cache from 24 KB to
//! 1536 KB and reports the hit rate (Fig. 1b) and the resulting IPC
//! (Fig. 1a).
//!
//! We model a set-associative, LRU, write-allocate cache with three
//! locality mechanisms layered on top of the plain LRU array:
//!
//! * **Split counters** (Yan et al., ISCA'06): one 64-byte line packs a
//!   64-bit major counter plus a run of small minor counters, so a single
//!   line covers a whole data page. The minor width is configurable
//!   ([`CounterCacheConfig::split_kilobytes`]) — 7-bit minors give the
//!   classic 4 KiB coverage, narrower minors stretch one line over more
//!   data at the price of more frequent minor-counter overflows.
//! * **Read-only regions** (GuardNN lineage: read-only model weights need
//!   no per-write version counters): a region registered via
//!   [`CounterCacheConfig::with_read_only_region`] shares one pinned major
//!   counter. The first touch fetches it (one miss); afterwards the whole
//!   region hits forever and can never be evicted by streaming traffic,
//!   because the pinned state lives outside the LRU sets.
//! * **Next-line prefetch** (Seculator lineage: fast counter management
//!   for streaming workloads): on a demand miss — or on consuming a
//!   prefetched line, which continues the stream — the next sequential
//!   counter line is filled ahead of use. Prefetched lines count as
//!   `prefetch_hits` when a demand access lands on them.
//!
//! [`CounterCache::access_run`] walks a run of consecutive pages with the
//! per-page outcome but not the per-page cost: a run inside one pinned
//! window is O(1), and a fresh ascending stream behind the prefetcher is
//! written in closed form in O(min(pages, cache lines)).

use crate::CryptoError;

/// Bits in one counter-cache line (64 bytes).
const LINE_BITS: usize = 512;

/// Bits of the shared major counter in a split-counter line.
const MAJOR_BITS: usize = 64;

/// Bytes of data protected by one minor counter (one AES block run).
const MINOR_BLOCK_BYTES: usize = 64;

/// Maximum number of pinned read-only regions one cache tracks. Small and
/// fixed so [`CounterCacheConfig`] stays `Copy` (the gpusim config fans a
/// single template out across memory controllers by struct update).
pub const MAX_READ_ONLY_REGIONS: usize = 4;

/// A pinned read-only address window: `[base, base + bytes)` of *data*
/// addresses whose counters collapse onto one shared major counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOnlyRegion {
    /// First data address covered.
    pub base: u64,
    /// Length of the window in bytes.
    pub bytes: u64,
}

impl ReadOnlyRegion {
    /// Whether `addr` falls inside the window.
    fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr - self.base < self.bytes
    }

    /// Exclusive end address; `None` when the window overflows `u64`.
    fn end(&self) -> Option<u64> {
        self.base.checked_add(self.bytes)
    }
}

/// The counter-*organisation* knob the serving stack threads from
/// `ServerConfig` down to every lane's [`CounterCache`]: how wide the
/// split-counter minors are, whether the next-line prefetcher runs, and
/// whether weight windows are pinned as GuardNN-style read-only regions.
///
/// [`CounterGeometry::classic`] reproduces the paper's baseline counter
/// organisation (plain per-page LRU, everything streams); it is what the
/// before/after benchmark uses as its "before" arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterGeometry {
    /// Split-counter minor width in bits (7 = classic 4 KiB coverage per
    /// line; narrower minors widen one line's coverage).
    pub minor_bits: u32,
    /// Run the next-line sequential prefetcher on streaming misses.
    pub prefetch: bool,
    /// Register each lane's weight window as a pinned read-only region
    /// (shared major counter, never evicted by streaming feature maps).
    pub read_only_weights: bool,
}

impl CounterGeometry {
    /// The paper's baseline organisation: 7-bit minors, no prefetch, no
    /// pinned regions. Counter behavior is identical to the pre-overhaul
    /// cost model.
    pub const fn classic() -> Self {
        CounterGeometry {
            minor_bits: 7,
            prefetch: false,
            read_only_weights: false,
        }
    }

    /// The locality-tuned organisation: classic coverage plus prefetch
    /// and pinned read-only weight windows (Seculator/GuardNN lineage).
    pub const fn tuned() -> Self {
        CounterGeometry {
            minor_bits: 7,
            prefetch: true,
            read_only_weights: true,
        }
    }

    /// Bytes of data one counter line covers under this minor width
    /// (0 when `minor_bits` is invalid).
    pub fn coverage_bytes(&self) -> usize {
        CounterCacheConfig::split_kilobytes(1, self.minor_bits).coverage_bytes
    }

    /// Validates the minor width.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidConfig`] when the minor width yields
    /// zero coverage (0 bits, or wider than the line's minor field).
    pub fn validate(&self) -> Result<(), CryptoError> {
        if self.coverage_bytes() == 0 {
            return Err(CryptoError::InvalidConfig {
                reason: format!(
                    "counter_geometry minor_bits {} leaves no minor counters in a {} B line",
                    self.minor_bits,
                    LINE_BITS / 8
                ),
            });
        }
        Ok(())
    }

    /// The cache geometry this knob implies at `kb` kilobytes of
    /// capacity (read-only regions are registered per lane on top).
    pub fn cache_config(&self, kb: usize) -> CounterCacheConfig {
        CounterCacheConfig::split_kilobytes(kb, self.minor_bits).with_prefetch(self.prefetch)
    }
}

impl Default for CounterGeometry {
    /// The locality-tuned organisation.
    fn default() -> Self {
        CounterGeometry::tuned()
    }
}

/// Geometry of a counter cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterCacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Cache line size in bytes (one line holds the counters of one page).
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Bytes of *data* covered by one counter line (split-counter page).
    pub coverage_bytes: usize,
    /// Enable the next-line sequential prefetcher.
    pub prefetch: bool,
    /// Pinned read-only regions (weight windows); `None` slots are free.
    pub read_only: [Option<ReadOnlyRegion>; MAX_READ_ONLY_REGIONS],
}

impl CounterCacheConfig {
    /// The paper's sweep point at `kb` kilobytes with the default geometry
    /// (64-byte lines, 8 ways, 4 KB coverage per line, no prefetch, no
    /// read-only regions).
    pub fn with_kilobytes(kb: usize) -> Self {
        CounterCacheConfig {
            capacity_bytes: kb * 1024,
            line_bytes: 64,
            ways: 8,
            coverage_bytes: 4096,
            prefetch: false,
            read_only: [None; MAX_READ_ONLY_REGIONS],
        }
    }

    /// A split-counter geometry at `kb` kilobytes: one 64-byte line holds
    /// a 64-bit major counter plus `(512 - 64) / minor_bits` minor
    /// counters, each guarding a 64-byte data block. `minor_bits = 7`
    /// reproduces the classic 4 KiB/line coverage; narrower minors widen
    /// the coverage (e.g. 3-bit minors cover 9 KiB per line).
    ///
    /// The geometry is validated by [`CounterCache::new`]; a `minor_bits`
    /// of zero or wider than the line's minor field yields zero coverage
    /// and is rejected there.
    pub fn split_kilobytes(kb: usize, minor_bits: u32) -> Self {
        let minors = if minor_bits == 0 {
            0
        } else {
            (LINE_BITS - MAJOR_BITS) / minor_bits as usize
        };
        CounterCacheConfig {
            coverage_bytes: minors * MINOR_BLOCK_BYTES,
            ..CounterCacheConfig::with_kilobytes(kb)
        }
    }

    /// Returns the config with the next-line prefetcher switched.
    pub fn with_prefetch(mut self, on: bool) -> Self {
        self.prefetch = on;
        self
    }

    /// Registers `[base, base + bytes)` as a pinned read-only region
    /// (GuardNN-style shared major counter; see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidConfig`] when all
    /// [`MAX_READ_ONLY_REGIONS`] slots are taken, the window is empty, or
    /// it overlaps an already-registered region.
    pub fn with_read_only_region(mut self, base: u64, bytes: u64) -> Result<Self, CryptoError> {
        let region = ReadOnlyRegion { base, bytes };
        if bytes == 0 || region.end().is_none() {
            return Err(CryptoError::InvalidConfig {
                reason: format!("read-only region [{base:#x}, +{bytes}) is empty or overflows"),
            });
        }
        for r in self.read_only.iter().flatten() {
            if base < r.end().unwrap_or(u64::MAX) && r.base < region.end().unwrap_or(u64::MAX) {
                return Err(CryptoError::InvalidConfig {
                    reason: format!(
                        "read-only region [{base:#x}, +{bytes}) overlaps [{:#x}, +{})",
                        r.base, r.bytes
                    ),
                });
            }
        }
        match self.read_only.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => {
                *slot = Some(region);
                Ok(self)
            }
            None => Err(CryptoError::InvalidConfig {
                reason: format!("more than {MAX_READ_ONLY_REGIONS} read-only regions"),
            }),
        }
    }

    /// Number of sets implied by this geometry.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.line_bytes * self.ways)
    }

    /// Checks the geometry without building a cache — exactly what
    /// [`CounterCache::new`] accepts.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidConfig`] if any geometry field is zero,
    /// the capacity does not hold at least one set, or a read-only region
    /// is empty / overflowing / overlapping another.
    pub fn validate(&self) -> Result<(), CryptoError> {
        if self.line_bytes == 0 || self.ways == 0 || self.coverage_bytes == 0 {
            return Err(CryptoError::InvalidConfig {
                reason: "line size, ways and coverage must be positive".into(),
            });
        }
        if self.sets() == 0 {
            return Err(CryptoError::InvalidConfig {
                reason: format!(
                    "capacity {} B holds no complete set of {} × {} B",
                    self.capacity_bytes, self.ways, self.line_bytes
                ),
            });
        }
        for (i, r) in self.read_only.iter().enumerate() {
            let Some(r) = r else { continue };
            if r.bytes == 0 || r.end().is_none() {
                return Err(CryptoError::InvalidConfig {
                    reason: format!(
                        "read-only region [{:#x}, +{}) is empty or overflows",
                        r.base, r.bytes
                    ),
                });
            }
            for other in self.read_only[i + 1..].iter().flatten() {
                if r.base < other.end().unwrap_or(u64::MAX)
                    && other.base < r.end().unwrap_or(u64::MAX)
                {
                    return Err(CryptoError::InvalidConfig {
                        reason: format!(
                            "read-only regions [{:#x}, +{}) and [{:#x}, +{}) overlap",
                            r.base, r.bytes, other.base, other.bytes
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

impl Default for CounterCacheConfig {
    /// The paper's baseline counter cache: 96 KB.
    fn default() -> Self {
        CounterCacheConfig::with_kilobytes(96)
    }
}

/// Hit/miss counters of a [`CounterCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterCacheStats {
    /// Accesses that found their counter line resident.
    pub hits: u64,
    /// Accesses that required a counter fetch from DRAM.
    pub misses: u64,
    /// Accesses that found their resident counter line flagged corrupt
    /// (integrity check failed) and repaired it with a DRAM re-fetch —
    /// these are also counted in `misses`, since they pay a fetch.
    pub corruptions_detected: u64,
    /// Hits served by a line the prefetcher brought in (subset of `hits`).
    pub prefetch_hits: u64,
    /// Lines the prefetcher fetched ahead of use.
    pub prefetch_fills: u64,
    /// Hits served by a pinned read-only region's shared major counter
    /// (subset of `hits`).
    pub ro_hits: u64,
}

impl CounterCacheStats {
    /// Hit rate in `[0, 1]`; 0 when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Hit/miss outcome of one [`CounterCache::access_run`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Pages of the run whose counter line was resident.
    pub hits: u64,
    /// Pages of the run that paid a DRAM counter fetch.
    pub misses: u64,
}

impl RunOutcome {
    fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// One way of a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    /// Id of the counter line held (`addr / coverage_bytes`).
    line_id: u64,
    /// LRU stamp of the last use; 0 marks the way invalid (the tick is
    /// bumped before it is stamped, so a valid way is never 0).
    last_use: u64,
    /// [`CORRUPT`] | [`PREFETCHED`].
    flags: u8,
}

/// Way flag: fault injection flipped the line's counter bits. The next
/// access detects this (modelling the counter block's own MAC / ECC check)
/// and repairs the line with a re-fetch instead of handing out a bogus
/// counter.
const CORRUPT: u8 = 1;

/// Way flag: the prefetcher filled the line and it has not been demanded
/// yet; the first demand access counts it as a `prefetch_hit`.
const PREFETCHED: u8 = 2;

/// Runtime state of one pinned read-only region.
#[derive(Debug, Clone, Copy)]
struct RoSlot {
    region: ReadOnlyRegion,
    /// The shared major counter has been fetched (first touch).
    touched: bool,
    /// Fault-injection flag on the shared major counter line.
    corrupt: bool,
}

/// A set-associative LRU counter cache.
///
/// ```
/// use seal_crypto::{CounterCache, CounterCacheConfig};
///
/// # fn main() -> Result<(), seal_crypto::CryptoError> {
/// let mut cc = CounterCache::new(CounterCacheConfig::with_kilobytes(24))?;
/// assert!(!cc.access(0x1000)); // cold miss
/// assert!(cc.access(0x1040));  // same 4 KB page → hit
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CounterCache {
    config: CounterCacheConfig,
    /// `log2(coverage_bytes)` when the coverage is a power of two.
    coverage_shift: Option<u32>,
    sets: u64,
    /// `sets - 1` when the set count is a power of two.
    set_mask: Option<u64>,
    /// Every way, set-major: set `s` owns `ways[s * assoc..(s + 1) * assoc]`.
    ways: Vec<Way>,
    /// The way the last demand access landed on: a stream revisits its
    /// counter line many times in a row, and checking this way first
    /// skips the set walk.
    recent_way: usize,
    /// The highest line id a demand miss or the prefetcher ever filled:
    /// no line above it has ever been resident, so a stream that starts
    /// at it walks into lines the sets cannot hold yet.
    high_water: u64,
    /// Scratch of [`stream_run`](Self::stream_run), one slot per way of a
    /// set: `(last_use, way)`, sorted into the order fills evict them.
    order: Vec<(u64, usize)>,
    ro: Vec<RoSlot>,
    tick: u64,
    stats: CounterCacheStats,
}

#[cfg(test)]
thread_local! {
    /// Pages [`CounterCache::stream_run`] priced in closed form on this
    /// thread: lets a test tell the closed form from the per-page walk,
    /// which is otherwise indistinguishable by contract.
    static STREAMED_PAGES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

// Ownership contract with the seal-pool parallel runtime: the cache is
// per-lane owned state — each counter-mode cost lane in seal-serve holds
// exactly one `CounterCache` behind its lane lock, and the LRU `tick`
// order stays deterministic because only the lock holder mutates it.
// `Send` (moving with the lane to whichever worker runs the batch) is
// the property that composition relies on; assert it at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CounterCache>();
};

impl CounterCache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidConfig`] if any geometry field is zero,
    /// the capacity does not hold at least one set, or a read-only region
    /// is empty / overflowing / overlapping another.
    pub fn new(config: CounterCacheConfig) -> Result<Self, CryptoError> {
        config.validate()?;
        let sets = config.sets();
        let ways = sets * config.ways;
        Ok(CounterCache {
            config,
            coverage_shift: config
                .coverage_bytes
                .is_power_of_two()
                .then(|| config.coverage_bytes.trailing_zeros()),
            sets: sets as u64,
            set_mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            ways: vec![
                Way {
                    line_id: 0,
                    last_use: 0,
                    flags: 0,
                };
                ways
            ],
            recent_way: 0,
            high_water: 0,
            order: vec![(0, 0); config.ways],
            ro: config
                .read_only
                .iter()
                .flatten()
                .map(|&region| RoSlot {
                    region,
                    touched: false,
                    corrupt: false,
                })
                .collect(),
            tick: 0,
            stats: CounterCacheStats::default(),
        })
    }

    /// The cache geometry.
    pub fn config(&self) -> &CounterCacheConfig {
        &self.config
    }

    /// Index of the pinned read-only region containing `addr`, if any.
    fn ro_index(&self, addr: u64) -> Option<usize> {
        self.ro.iter().position(|s| s.region.contains(addr))
    }

    /// Id of the counter line covering `addr`.
    fn line_id(&self, addr: u64) -> u64 {
        match self.coverage_shift {
            Some(shift) => addr >> shift,
            None => addr / self.config.coverage_bytes as u64,
        }
    }

    /// Way indices of the set counter line `line_id` maps to. In bounds
    /// by construction: the set number is below `sets` and `ways` holds
    /// `sets × config.ways` entries.
    fn set_of(&self, line_id: u64) -> std::ops::Range<usize> {
        let set = match self.set_mask {
            Some(mask) => line_id & mask,
            None => line_id % self.sets,
        };
        let start = set as usize * self.config.ways;
        start..start + self.config.ways
    }

    /// The way of `set` holding `line_id`, if it is resident.
    fn find(set: &[Way], line_id: u64) -> Option<usize> {
        // No early exit: a line is resident in at most one way, and where
        // it sits is as good as random, so a select per way beats a
        // mispredicted break.
        let mut found = usize::MAX;
        for (i, way) in set.iter().enumerate() {
            let here = (way.line_id == line_id) & (way.last_use != 0);
            found = if here { i } else { found };
        }
        (found != usize::MAX).then_some(found)
    }

    /// The way of `set` a fill replaces: the first invalid one, else the
    /// least recently used (the lowest index among equals).
    fn victim(set: &[Way]) -> usize {
        let mut victim = 0;
        for (i, way) in set.iter().enumerate() {
            if way.last_use < set[victim].last_use {
                victim = i;
            }
        }
        victim
    }

    /// Looks up the counter line covering data address `addr`, allocating it
    /// on a miss. Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        // Pinned read-only regions sit outside the LRU sets: the first
        // touch fetches the shared major counter (one miss), every later
        // access hits and nothing streaming through the sets can evict it.
        if let Some(i) = self.ro_index(addr) {
            let slot = &mut self.ro[i];
            if slot.corrupt {
                slot.corrupt = false;
                self.stats.corruptions_detected += 1;
                self.stats.misses += 1;
                return false;
            }
            if slot.touched {
                self.stats.hits += 1;
                self.stats.ro_hits += 1;
                return true;
            }
            slot.touched = true;
            self.stats.misses += 1;
            return false;
        }

        let line_id = self.line_id(addr);
        self.tick += 1;
        let tick = self.tick;
        // A clean, already-demanded repeat of the last line: a plain hit,
        // with nothing for the set walk below to add.
        let recent = &mut self.ways[self.recent_way];
        if recent.line_id == line_id && recent.last_use != 0 && recent.flags == 0 {
            recent.last_use = tick;
            self.stats.hits += 1;
            return true;
        }
        let set = self.set_of(line_id);
        let start = set.start;
        let set = &mut self.ways[set];
        let (hit, stream_next) = match Self::find(set, line_id) {
            Some(i) => {
                self.recent_way = start + i;
                let way = &mut set[i];
                way.last_use = tick;
                let flags = std::mem::take(&mut way.flags);
                if flags & CORRUPT != 0 {
                    // The line's integrity check fails: repair it with a
                    // DRAM re-fetch. Priced as a miss, surfaced in the
                    // stats, and never handed out as a (bogus) hit.
                    self.stats.corruptions_detected += 1;
                    self.stats.misses += 1;
                    return false;
                }
                self.stats.hits += 1;
                let consumed_prefetch = flags & PREFETCHED != 0;
                if consumed_prefetch {
                    self.stats.prefetch_hits += 1;
                }
                // Consuming a prefetched line continues a stream — keep
                // running ahead of it. A plain hit does not re-prefetch.
                (true, consumed_prefetch)
            }
            None => {
                let i = Self::victim(set);
                self.recent_way = start + i;
                set[i] = Way {
                    line_id,
                    last_use: tick,
                    flags: 0,
                };
                self.high_water = self.high_water.max(line_id);
                self.stats.misses += 1;
                (false, true)
            }
        };
        if self.config.prefetch && stream_next {
            self.prefetch_fill(line_id + 1);
        }
        hit
    }

    /// Fills the counter line `line_id` ahead of demand (next-line
    /// prefetch). No-op when the line is already resident or falls inside
    /// a pinned read-only region (whose major counter is already shared).
    fn prefetch_fill(&mut self, line_id: u64) {
        let addr = match line_id.checked_mul(self.config.coverage_bytes as u64) {
            Some(a) => a,
            None => return,
        };
        if self.ro_index(addr).is_some() {
            return;
        }
        let set = self.set_of(line_id);
        let set = &mut self.ways[set];
        if Self::find(set, line_id).is_some() {
            return; // already resident — nothing to fetch
        }
        set[Self::victim(set)] = Way {
            line_id,
            last_use: self.tick,
            flags: PREFETCHED,
        };
        self.high_water = self.high_water.max(line_id);
        self.stats.prefetch_fills += 1;
    }

    /// Walks `pages` consecutive counter pages starting at `base` — the
    /// batched form of the serve cost model's hot counter walk.
    ///
    /// **Determinism contract:** the outcome (stats, LRU state, prefetch
    /// state) is bitwise identical to calling [`access`](Self::access) once
    /// per page in ascending order; the batched form only short-circuits
    /// runs that sit entirely inside one pinned read-only region to O(1)
    /// and fresh ascending streams behind the prefetcher to
    /// O(min(pages, cache lines)). Pages whose address would pass
    /// `u64::MAX` saturate onto the top of the address space.
    pub fn access_run(&mut self, base: u64, pages: u64) -> RunOutcome {
        let cov = self.config.coverage_bytes as u64;
        let page_addr = |p: u64| base.saturating_add(p.saturating_mul(cov));
        if pages > 0 {
            if let Some(i) = self.ro_index(base) {
                let slot = self.ro[i];
                // A saturated `u64::MAX` lies in no region: their
                // exclusive ends are representable.
                if slot.region.contains(page_addr(pages - 1)) && !slot.corrupt {
                    // Whole run under one shared major counter: first
                    // touch is the region's single fetch, everything else
                    // hits — exactly what the per-page loop would do.
                    let slot = &mut self.ro[i];
                    if slot.touched {
                        self.stats.hits += pages;
                        self.stats.ro_hits += pages;
                        return RunOutcome {
                            hits: pages,
                            misses: 0,
                        };
                    }
                    slot.touched = true;
                    self.stats.misses += 1;
                    self.stats.hits += pages - 1;
                    self.stats.ro_hits += pages - 1;
                    return RunOutcome {
                        hits: pages - 1,
                        misses: 1,
                    };
                }
            }
        }
        let mut out = RunOutcome::default();
        let mut p = 0;
        while p < pages {
            let addr = page_addr(p);
            match self.stream_run(addr, pages - p) {
                0 => {
                    out.record(self.access(addr));
                    p += 1;
                }
                streamed => {
                    out.hits += streamed;
                    p += streamed;
                }
            }
        }
        out
    }

    /// The closed form of [`access`](Self::access) over a *fresh ascending
    /// stream*: up to `pages` consecutive pages from `addr` whose first
    /// line is resident, clean and still marked prefetched, with no line
    /// above it ever filled. Every such page is a prefetch hit followed by
    /// one fill of the next line, so the counters advance by the page
    /// count and each touched set ends up holding its last `ways` streamed
    /// lines — written directly, in the ways and with the stamps the
    /// per-page walk would have left.
    ///
    /// Returns the pages it priced; 0 when the stream head is missing or
    /// corrupt, a line above it was filled before, the cache has a single
    /// set (a demanded line and its prefetched successor then share a set
    /// and tie on `last_use`, which the ordering argument below excludes),
    /// or the very next line is pinned or past the address space. A run
    /// that reaches a pinned window or the top of the address space later
    /// is priced up to there.
    fn stream_run(&mut self, addr: u64, pages: u64) -> u64 {
        if !self.config.prefetch || self.sets < 2 {
            return 0;
        }
        let first = self.line_id(addr);
        if first != self.high_water {
            return 0;
        }
        // The walk demands lines `first .. first + n` and prefetches
        // `first + 1 ..= first + n`: bound `n` so that all of their
        // addresses exist, none falls inside a pinned window (those skip
        // the sets) and no stamp overflows.
        let mut n = pages
            .min(self.line_id(u64::MAX) - first)
            .min(u64::MAX - self.tick);
        for slot in &self.ro {
            let region = slot.region;
            if region.end().is_none_or(|end| self.line_id(end - 1) >= first) {
                let lines_below = self.line_id(region.base).saturating_sub(first);
                n = n.min(lines_below.saturating_sub(1));
            }
        }
        if n == 0 {
            return 0;
        }
        let range = self.set_of(first);
        let head_set = range.start;
        let set = &mut self.ways[range];
        let Some(i) = Self::find(set, first) else {
            return 0;
        };
        let head = &mut set[i];
        if head.flags != PREFETCHED {
            return 0;
        }
        let tick0 = self.tick;
        head.last_use = tick0 + 1;
        head.flags = 0;
        self.recent_way = head_set + i;

        // Stream line `first + j` is filled at tick `tick0 + j` and
        // demanded one tick later (the run's last fill, `j == n`, stays
        // prefetched). Both stamps top everything in the line's set —
        // old ways are at most `tick0`, the set's previous streamed line
        // is `sets >= 2` ticks older — so each fill evicts the way that
        // was oldest when the run started, then the next oldest, and
        // after `ways` fills the first streamed line again: round-robin
        // over the set's ways in their initial `(last_use, way)` order.
        let assoc = self.config.ways as u64;
        for t in 0..n.min(self.sets) {
            // This set takes the lines `j = t + 1 + q * sets`.
            let fills = (n - 1 - t) / self.sets + 1;
            let range = self.set_of(first + 1 + t);
            let set_start = range.start;
            let set = &mut self.ways[range];
            if let (1, Some(oldest)) = (fills, self.order.first_mut()) {
                // A single fill takes the oldest way: nothing to order.
                *oldest = (0, Self::victim(set));
            } else {
                for (slot, (i, way)) in self.order.iter_mut().zip(set.iter().enumerate()) {
                    *slot = (way.last_use, i);
                }
                self.order.sort_unstable();
            }
            // Only the last `ways` fills survive.
            let q0 = fills.saturating_sub(assoc);
            let victims = self.order.iter().cycle().skip((q0 % assoc) as usize);
            for (q, &(_, i)) in (q0..fills).zip(victims) {
                let j = t + 1 + q * self.sets;
                let demanded = j < n;
                set[i] = Way {
                    line_id: first + j,
                    last_use: tick0 + j + u64::from(demanded),
                    flags: if demanded { 0 } else { PREFETCHED },
                };
                if j + 1 == n {
                    self.recent_way = set_start + i;
                }
            }
        }
        self.tick = tick0 + n;
        self.high_water = first + n;
        self.stats.hits += n;
        self.stats.prefetch_hits += n;
        self.stats.prefetch_fills += n;
        #[cfg(test)]
        STREAMED_PAGES.with(|pages| pages.set(pages.get() + n));
        n
    }

    /// Flags the resident counter line covering `addr` as corrupted (a
    /// fault-injection hook modelling flipped counter bits). Returns
    /// `true` if the line was resident — a non-resident line cannot be
    /// corrupted on-chip and the next access simply re-fetches it.
    pub fn corrupt(&mut self, addr: u64) -> bool {
        if let Some(i) = self.ro_index(addr) {
            let slot = &mut self.ro[i];
            if slot.touched {
                slot.corrupt = true;
                return true;
            }
            return false;
        }
        let line_id = self.line_id(addr);
        let set = self.set_of(line_id);
        let set = &mut self.ways[set];
        match Self::find(set, line_id) {
            Some(i) => {
                set[i].flags |= CORRUPT;
                true
            }
            None => false,
        }
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> CounterCacheStats {
        self.stats
    }

    /// Clears contents and statistics (pinned regions go back to
    /// untouched).
    pub fn reset(&mut self) {
        for way in &mut self.ways {
            way.last_use = 0;
            way.flags = 0;
        }
        for slot in &mut self.ro {
            slot.touched = false;
            slot.corrupt = false;
        }
        self.recent_way = 0;
        self.high_water = 0;
        self.tick = 0;
        self.stats = CounterCacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits_after_cold_miss() {
        let mut cc = CounterCache::new(CounterCacheConfig::with_kilobytes(24)).unwrap();
        assert!(!cc.access(0x0000));
        assert!(cc.access(0x0FC0));
        assert!(!cc.access(0x1000), "next page is a new counter line");
        assert_eq!(cc.stats().hits, 1);
        assert_eq!(cc.stats().misses, 2);
    }

    #[test]
    fn capacity_bounds_resident_lines() {
        // 24 KB cache = 384 lines; touching 384 distinct pages fits, the
        // 385th within the same set range evicts.
        let cfg = CounterCacheConfig::with_kilobytes(24);
        let mut cc = CounterCache::new(cfg).unwrap();
        let lines = cfg.capacity_bytes / cfg.line_bytes;
        for i in 0..lines as u64 {
            cc.access(i * cfg.coverage_bytes as u64);
        }
        // Revisit: everything should still hit (full but not over).
        for i in 0..lines as u64 {
            assert!(cc.access(i * cfg.coverage_bytes as u64), "line {i}");
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1-set direct test: capacity = ways * line.
        let cfg = CounterCacheConfig {
            capacity_bytes: 2 * 64,
            line_bytes: 64,
            ways: 2,
            ..CounterCacheConfig::with_kilobytes(24)
        };
        let mut cc = CounterCache::new(cfg).unwrap();
        cc.access(0); // A miss
        cc.access(4096); // B miss
        cc.access(0); // A hit (B becomes LRU)
        cc.access(8192); // C miss, evicts B
        assert!(cc.access(0), "A survives");
        assert!(!cc.access(4096), "B was evicted");
    }

    #[test]
    fn hit_rate_math() {
        let s = CounterCacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CounterCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn corrupted_line_is_detected_and_repaired() {
        let mut cc = CounterCache::new(CounterCacheConfig::with_kilobytes(24)).unwrap();
        cc.access(0x2000); // cold miss, now resident
        assert!(cc.corrupt(0x2000), "resident line can be corrupted");
        // The corrupted line is never handed out as a hit: the access
        // detects it, pays a re-fetch, and repairs the line.
        assert!(!cc.access(0x2000));
        assert_eq!(cc.stats().corruptions_detected, 1);
        assert_eq!(cc.stats().misses, 2);
        // Once repaired, the line behaves normally again.
        assert!(cc.access(0x2000));
        assert_eq!(cc.stats().hits, 1);
        // A non-resident line cannot be corrupted on-chip.
        assert!(!cc.corrupt(0x8_0000));
        // Reset clears corruption flags with everything else.
        cc.corrupt(0x2000);
        cc.reset();
        cc.access(0x2000);
        assert_eq!(cc.stats().corruptions_detected, 0);
    }

    #[test]
    fn larger_cache_never_hits_less_on_a_scan_with_reuse() {
        // Cyclic scan over 3 MB of data: bigger caches hold more pages.
        let mut small = CounterCache::new(CounterCacheConfig::with_kilobytes(24)).unwrap();
        let mut big = CounterCache::new(CounterCacheConfig::with_kilobytes(1536)).unwrap();
        for _pass in 0..3u64 {
            for addr in (0..3 * 1024 * 1024).step_by(128) {
                let a = addr as u64; // same addresses each pass
                small.access(a);
                big.access(a);
            }
        }
        assert!(big.stats().hit_rate() > small.stats().hit_rate());
        assert!(big.stats().hit_rate() > 0.9, "1536 KB covers 96 MB of data");
    }

    #[test]
    fn invalid_geometry_rejected() {
        let bad = CounterCacheConfig {
            capacity_bytes: 32,
            ..CounterCacheConfig::with_kilobytes(24)
        };
        assert!(CounterCache::new(bad).is_err());
        let zero = CounterCacheConfig {
            capacity_bytes: 1024,
            line_bytes: 0,
            ways: 1,
            ..CounterCacheConfig::with_kilobytes(24)
        };
        assert!(CounterCache::new(zero).is_err());
        // Zero / oversized minor widths yield zero coverage.
        assert!(CounterCache::new(CounterCacheConfig::split_kilobytes(96, 0)).is_err());
        assert!(CounterCache::new(CounterCacheConfig::split_kilobytes(96, 1000)).is_err());
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut cc = CounterCache::new(CounterCacheConfig::default()).unwrap();
        cc.access(0);
        cc.access(0);
        cc.reset();
        assert!(!cc.access(0));
        assert_eq!(cc.stats().misses, 1);
    }

    #[test]
    fn split_geometry_scales_coverage() {
        // 7-bit minors reproduce the classic split counter: 64 minors of
        // 64 B each = 4 KiB per line.
        assert_eq!(
            CounterCacheConfig::split_kilobytes(96, 7).coverage_bytes,
            4096
        );
        // 3-bit minors stretch one line over 149 blocks (~9.3 KiB).
        let wide = CounterCacheConfig::split_kilobytes(96, 3);
        assert_eq!(wide.coverage_bytes, 149 * 64);
        // Wider coverage hits more on a dense scan: same 4 MiB walked.
        let mut classic =
            CounterCache::new(CounterCacheConfig::split_kilobytes(24, 7)).unwrap();
        let mut stretched = CounterCache::new(wide).unwrap();
        for pass in 0..2u64 {
            let _ = pass;
            for addr in (0..4 * 1024 * 1024u64).step_by(256) {
                classic.access(addr);
                stretched.access(addr);
            }
        }
        assert!(stretched.stats().hit_rate() > classic.stats().hit_rate());
    }

    #[test]
    fn read_only_region_hits_after_one_shared_fetch() {
        let cfg = CounterCacheConfig::with_kilobytes(24)
            .with_read_only_region(0x10_0000, 1 << 20)
            .unwrap();
        let mut cc = CounterCache::new(cfg).unwrap();
        assert!(!cc.access(0x10_0000), "first touch fetches the shared major");
        for p in 1..256u64 {
            assert!(cc.access(0x10_0000 + p * 4096), "page {p} pinned");
        }
        assert_eq!(cc.stats().misses, 1);
        assert_eq!(cc.stats().ro_hits, 255);
    }

    #[test]
    fn pinned_region_survives_streaming_evictions() {
        // Property: no amount of cross-window streaming can evict the
        // pinned read-only line — it lives outside the LRU sets.
        let cfg = CounterCacheConfig::with_kilobytes(24)
            .with_read_only_region(0, 1 << 20)
            .unwrap();
        let mut cc = CounterCache::new(cfg).unwrap();
        cc.access(0); // shared fetch
        let lines = cfg.capacity_bytes as u64 / cfg.line_bytes as u64;
        // Stream 64× the cache's line count of distinct cold pages from a
        // far-away window (every one a miss and an eviction attempt).
        let stream_base = 1u64 << 40;
        for i in 0..lines * 64 {
            assert!(!cc.access(stream_base + i * 4096));
        }
        let before = cc.stats();
        assert!(cc.access(4096), "pinned region still hits");
        assert_eq!(cc.stats().ro_hits, before.ro_hits + 1);
        assert_eq!(cc.stats().misses, before.misses, "no re-fetch needed");
    }

    #[test]
    fn read_only_region_validation() {
        let base = CounterCacheConfig::with_kilobytes(24);
        assert!(base.with_read_only_region(0, 0).is_err(), "empty window");
        assert!(
            base.with_read_only_region(u64::MAX, 2).is_err(),
            "overflowing window"
        );
        let one = base.with_read_only_region(0, 8192).unwrap();
        assert!(one.with_read_only_region(4096, 8192).is_err(), "overlap");
        let mut full = base;
        for i in 0..MAX_READ_ONLY_REGIONS as u64 {
            full = full.with_read_only_region(i << 30, 4096).unwrap();
        }
        assert!(full.with_read_only_region(1 << 50, 4096).is_err(), "slots full");
        // Overlapping literals are caught by the constructor too.
        let sneaky = CounterCacheConfig {
            read_only: [
                Some(ReadOnlyRegion { base: 0, bytes: 8192 }),
                Some(ReadOnlyRegion { base: 4096, bytes: 8192 }),
                None,
                None,
            ],
            ..base
        };
        assert!(CounterCache::new(sneaky).is_err());
    }

    #[test]
    fn prefetch_runs_ahead_of_a_stream() {
        let cfg = CounterCacheConfig::with_kilobytes(96).with_prefetch(true);
        let mut cc = CounterCache::new(cfg).unwrap();
        // A sequential page stream: the first access misses and pulls the
        // next line in; every later access consumes a prefetched line.
        for p in 0..64u64 {
            cc.access(p * 4096);
        }
        let s = cc.stats();
        assert_eq!(s.misses, 1, "only the stream head misses");
        assert_eq!(s.hits, 63);
        assert_eq!(s.prefetch_hits, 63);
        assert!(s.prefetch_fills >= 63);
        // Prefetch is strictly opt-in: the default geometry never fills.
        let mut plain = CounterCache::new(CounterCacheConfig::with_kilobytes(96)).unwrap();
        for p in 0..64u64 {
            plain.access(p * 4096);
        }
        assert_eq!(plain.stats().prefetch_fills, 0);
        assert_eq!(plain.stats().misses, 64);
    }

    #[test]
    fn access_run_matches_per_page_access_exactly() {
        // The batched walk's determinism contract: identical stats and
        // identical downstream behavior to the per-page loop, across a
        // mixed workload (pinned region + streaming + revisits).
        let cfg = CounterCacheConfig::with_kilobytes(24)
            .with_prefetch(true)
            .with_read_only_region(0, 1 << 20)
            .unwrap();
        let mut batched = CounterCache::new(cfg).unwrap();
        let mut looped = CounterCache::new(cfg).unwrap();
        let runs: &[(u64, u64)] = &[
            (0, 200),            // inside the pinned region
            (1 << 30, 57),       // streaming, prefetch engaged
            (0, 200),            // pinned revisit
            ((1 << 30) + 57 * 4096, 31), // stream continuation
            (1 << 35, 3),        // short cold burst
            (1 << 30, 57),       // revisit the evicted stream
            (1 << 20, 4),        // run that *leaves* the pinned region
        ];
        for &(base, pages) in runs {
            let out = batched.access_run(base, pages);
            assert_eq!(out, per_page(&mut looped, base, pages), "run ({base:#x}, {pages})");
            assert_eq!(batched.stats(), looped.stats());
        }
        // And the final probe behavior agrees too.
        for addr in [0u64, 1 << 30, (1 << 30) + 80 * 4096, 1 << 35] {
            assert_eq!(batched.access(addr), looped.access(addr), "{addr:#x}");
        }
    }

    /// Pages priced in closed form on this thread since the last call.
    fn take_streamed() -> u64 {
        STREAMED_PAGES.with(|pages| pages.replace(0))
    }

    /// The per-page oracle of `access_run`: one `access` per page in
    /// ascending order, addresses saturating at the top.
    fn per_page(cc: &mut CounterCache, base: u64, pages: u64) -> RunOutcome {
        let cov = cc.config.coverage_bytes as u64;
        let mut out = RunOutcome::default();
        for p in 0..pages {
            out.record(cc.access(base.saturating_add(p.saturating_mul(cov))));
        }
        out
    }

    /// Everything a later access reads: the whole way array, the pinned
    /// slots and every cursor.
    type State = (Vec<Way>, Vec<(bool, bool)>, [u64; 3], CounterCacheStats);

    fn state(cc: &CounterCache) -> State {
        (
            cc.ways.clone(),
            cc.ro.iter().map(|s| (s.touched, s.corrupt)).collect(),
            [cc.tick, cc.high_water, cc.recent_way as u64],
            cc.stats,
        )
    }

    /// Geometries of the streaming differential tests: the serving
    /// default with pinned windows in the stream's way, power-of-two and
    /// odd set counts, a non-power-of-two coverage, direct-mapped, and
    /// the two- and one-set caches either side of the `sets >= 2` rule.
    fn stream_geometries() -> Vec<(&'static str, CounterCacheConfig)> {
        let pin = |mut c: CounterCacheConfig| {
            for k in 1..=3u64 {
                c = c.with_read_only_region(k << 34, 5 << 20).unwrap();
            }
            c
        };
        let tiny = |sets: usize, ways: usize| CounterCacheConfig {
            capacity_bytes: sets * ways * 64,
            ways,
            ..CounterCacheConfig::with_kilobytes(24).with_prefetch(true)
        };
        vec![
            ("tuned 96 KB, 192 sets, pinned", pin(CounterGeometry::tuned().cache_config(96))),
            ("tuned 24 KB, 48 sets", CounterGeometry::tuned().cache_config(24)),
            ("16 KB, 32 sets", CounterCacheConfig::with_kilobytes(16).with_prefetch(true)),
            (
                "split 3-bit 16 KB, pinned",
                pin(CounterCacheConfig::split_kilobytes(16, 3).with_prefetch(true)),
            ),
            ("direct-mapped, 4 sets", tiny(4, 1)),
            ("two sets, two ways, pinned", pin(tiny(2, 2))),
            ("one set, two ways", tiny(1, 2)),
            ("classic 24 KB", CounterGeometry::classic().cache_config(24)),
        ]
    }

    #[test]
    fn streaming_closed_form_matches_the_per_page_walk_on_seeded_histories() {
        use seal_tensor::rng::{RngCore, SeedableRng};
        for (g, (name, cfg)) in stream_geometries().into_iter().enumerate() {
            let cov = cfg.coverage_bytes as u64;
            let lines = (cfg.capacity_bytes / cfg.line_bytes) as u64;
            let pinned: Vec<ReadOnlyRegion> = cfg.read_only.iter().flatten().copied().collect();
            take_streamed();
            for seed in 0..150u64 {
                let mut rng =
                    seal_tensor::rng::rngs::StdRng::seed_from_u64(0x57e4 + 1000 * g as u64 + seed);
                let mut fast = CounterCache::new(cfg).unwrap();
                let mut slow = CounterCache::new(cfg).unwrap();
                let mut cursor = (1 << 20) + rng.next_u64() % (1 << 24);
                for step in 0..40 {
                    let r = rng.next_u64();
                    let pages = match (r >> 8) % 20 {
                        0..=9 => 1 + (r >> 16) % 8,
                        10..=15 => 1 + (r >> 16) % (2 * cfg.sets() as u64 + 2),
                        16..=18 => 1 + (r >> 16) % lines,
                        _ => 1 + (r >> 16) % (4 * lines),
                    };
                    let mut run = None;
                    match r % 16 {
                        // The stream moves on, mostly where it left off.
                        0..=6 => {
                            run = Some((cursor, pages));
                            cursor += pages * cov;
                        }
                        // A new stream from an unaligned base further up.
                        7 => {
                            cursor += (1 + (r >> 40) % 4096) * cov + (r >> 52) % cov;
                            run = Some((cursor, pages));
                            cursor += pages * cov;
                        }
                        // A revisit below the high-water mark.
                        8 | 9 => run = Some((cursor - cursor.min((r >> 40) % (8 * lines * cov)), pages)),
                        // The prefetched stream head (or a recent line) corrupted.
                        10 => {
                            let addr = cursor - cursor.min(((r >> 40) % 3) * cov);
                            assert_eq!(fast.corrupt(addr), slow.corrupt(addr), "{name}");
                        }
                        // A stride-2 miss storm just above the stream, which
                        // then runs into the debris or restarts beyond it.
                        11 => {
                            let mut storm = cursor + (1 + (r >> 40) % 64) * cov;
                            for _ in 0..pages.min(64) {
                                assert_eq!(fast.access(storm), slow.access(storm), "{name}");
                                storm += 2 * cov;
                            }
                            if r >> 63 == 0 {
                                cursor = storm;
                            }
                        }
                        // Start just below a pinned window and run into it.
                        12 | 13 if pinned.iter().any(|p| p.base > cursor) => {
                            let region = pinned.iter().find(|p| p.base > cursor).unwrap();
                            cursor = region.base - (1 + (r >> 44) % 48) * cov + (r >> 52) % cov;
                            run = Some((cursor, pages));
                            cursor += pages * cov;
                        }
                        // One page, the way the simulator asks.
                        _ => {
                            assert_eq!(fast.access(cursor), slow.access(cursor), "{name}");
                            cursor += (r >> 40) % 2 * cov;
                        }
                    }
                    if let Some((base, pages)) = run {
                        let got = fast.access_run(base, pages);
                        let want = per_page(&mut slow, base, pages);
                        assert_eq!(got, want, "{name}, seed {seed}, step {step}: ({base:#x}, {pages})");
                    }
                    assert!(
                        state(&fast) == state(&slow),
                        "{name}, seed {seed}, step {step}: state diverged"
                    );
                }
            }
            // The comparison must be between two different computations.
            let streamed = take_streamed();
            let expect_streaming = cfg.prefetch && cfg.sets() >= 2;
            assert_eq!(streamed > 0, expect_streaming, "{name}: {streamed} pages streamed");
        }
    }

    #[test]
    fn streaming_closed_form_stops_at_a_pinned_window_and_resumes_past_it() {
        for (name, cfg) in stream_geometries() {
            let Some(region) = cfg.read_only.iter().flatten().next().copied() else {
                continue;
            };
            let cov = cfg.coverage_bytes as u64;
            let mut fast = CounterCache::new(cfg).unwrap();
            let mut slow = CounterCache::new(cfg).unwrap();
            take_streamed();
            // 20 pages below the window, through it, and 20 pages out the
            // other side, from an unaligned base.
            let base = region.base - 20 * cov + 17;
            let pages = 40 + region.bytes.div_ceil(cov);
            assert_eq!(fast.access_run(base, pages), per_page(&mut slow, base, pages), "{name}");
            assert!(state(&fast) == state(&slow), "{name}: state diverged");
            assert!(fast.stats().ro_hits > 0, "{name}: the run crossed the window");
            let streamed = take_streamed();
            assert!(
                (30..pages - region.bytes / cov).contains(&streamed),
                "{name}: both sides of the window stream, {streamed} pages did"
            );
        }
    }

    #[test]
    fn smoke_shaped_batches_are_priced_in_closed_form() {
        // The serve lane's walk: a pinned weight sweep, then each batch's
        // feature maps continue one ascending stream. Only the very first
        // page (the cold stream head) may take the per-page path, and a
        // run writes no more ways than the cache has.
        let cfg = CounterGeometry::tuned()
            .cache_config(96)
            .with_read_only_region(0, 3000 * 4096)
            .unwrap();
        let mut cc = CounterCache::new(cfg).unwrap();
        let mut slow = CounterCache::new(cfg).unwrap();
        let mut cursor = 1u64 << 40;
        let mut total = 0;
        take_streamed();
        for pages in [4849u64, 4849, 607, 2425, 4849, 1213, 1, 1, 4849] {
            cc.access_run(0, 3000);
            per_page(&mut slow, 0, 3000);
            let out = cc.access_run(cursor, pages);
            assert_eq!(out, per_page(&mut slow, cursor, pages));
            cursor += pages * 4096;
            total += pages;
        }
        assert_eq!(take_streamed(), total - 1);
        assert_eq!(cc.stats().prefetch_hits, total - 1);
        assert!(state(&cc) == state(&slow));
    }

    #[test]
    fn access_run_saturates_at_the_top_of_the_address_space() {
        // `base + p * cov` used to be computed unchecked: a debug-build
        // overflow panic, and in release a wrap into low addresses.
        for cfg in [
            CounterCacheConfig::with_kilobytes(24),
            CounterCacheConfig::with_kilobytes(24).with_prefetch(true),
        ] {
            let cov = cfg.coverage_bytes as u64;
            let base = u64::MAX - 3 * cov;
            let mut cc = CounterCache::new(cfg).unwrap();
            let mut slow = CounterCache::new(cfg).unwrap();
            // Four pages fit exactly; the run must not wrap to line 0.
            assert_eq!(cc.access_run(base, 4), per_page(&mut slow, base, 4));
            assert!(!cc.access(0), "nothing wrapped into the low addresses");
            slow.access(0);
            // Pages past the top all land on the last line: hits.
            let out = cc.access_run(base, 7);
            assert_eq!(out, RunOutcome { hits: 7, misses: 0 });
            assert_eq!(out, per_page(&mut slow, base, 7));
            assert!(state(&cc) == state(&slow));
            // A page count whose span alone overflows.
            assert_eq!(cc.access_run(1 << 40, 0), RunOutcome::default());
            assert_eq!(cc.access_run(u64::MAX, 3).hits, 3);
        }
    }

    #[test]
    fn reset_clears_the_stream_cursors() {
        let cfg = CounterCacheConfig::with_kilobytes(24).with_prefetch(true);
        let mut cc = CounterCache::new(cfg).unwrap();
        take_streamed();
        cc.access_run(1 << 30, 100);
        assert!(cc.high_water > 0 && take_streamed() == 99);
        cc.reset();
        assert_eq!((cc.high_water, cc.recent_way, cc.tick), (0, 0, 0));
        // A lower stream after the reset is fresh again, and the cache
        // is indistinguishable from a new one.
        let mut fresh = CounterCache::new(cfg).unwrap();
        assert_eq!(cc.access_run(1 << 20, 100), fresh.access_run(1 << 20, 100));
        assert_eq!(take_streamed(), 2 * 99);
        assert_eq!(cc.stats(), fresh.stats());
    }

    #[test]
    fn pinned_region_corruption_is_detected_once() {
        let cfg = CounterCacheConfig::with_kilobytes(24)
            .with_read_only_region(0, 1 << 16)
            .unwrap();
        let mut cc = CounterCache::new(cfg).unwrap();
        assert!(!cc.corrupt(0), "untouched shared counter is not on-chip");
        cc.access(0);
        assert!(cc.corrupt(4096), "any address in the region flags it");
        assert!(!cc.access(8192), "corrupt shared counter re-fetches");
        assert_eq!(cc.stats().corruptions_detected, 1);
        assert!(cc.access(0), "repaired region hits again");
    }

    /// Valid ways of set `s` as `(tag, prefetched, corrupt)` in LRU order
    /// (oldest first) — everything a later lookup's outcome depends on,
    /// independent of how the ways are stored.
    fn resident(cc: &CounterCache, s: usize) -> Vec<(u64, bool, bool)> {
        let first = s * cc.config.ways;
        let mut ways: Vec<&Way> = cc.ways[first..first + cc.config.ways]
            .iter()
            .filter(|w| w.last_use != 0)
            .collect();
        ways.sort_by_key(|w| (w.last_use, w.line_id));
        ways.iter()
            .map(|w| (w.line_id / cc.sets, w.flags & PREFETCHED != 0, w.flags & CORRUPT != 0))
            .collect()
    }

    fn fnv(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Drives a seeded mix of `access` / `access_run` / `corrupt` (line
    /// streams with same-line repeats, random reuse inside a conflict
    /// window, the pinned region and runs that cross its edge) and
    /// returns the final stats plus an FNV-1a over every return value and
    /// the final resident state of every set.
    fn golden_walk(cfg: CounterCacheConfig, seed: u64) -> (CounterCacheStats, u64) {
        let mut cc = CounterCache::new(cfg).unwrap();
        use seal_tensor::rng::{RngCore, SeedableRng};
        let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(seed);
        let cov = cfg.coverage_bytes as u64;
        let lines = (cfg.capacity_bytes / cfg.line_bytes) as u64;
        let window = 4 * lines * cov;
        let pinned = cfg.read_only.iter().flatten().next().copied();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut cursor = 0u64;
        for _ in 0..20_000 {
            let r = rng.next_u64();
            let pick = r % 100;
            let wide = r >> 8;
            let in_pinned = |w: u64| pinned.map(|p| p.base + w % p.bytes);
            if pick < 55 {
                fnv(&mut h, u64::from(cc.access(cursor)));
                cursor += 128;
            } else if pick < 75 {
                fnv(&mut h, u64::from(cc.access(wide % window)));
            } else if pick < 80 {
                let addr = in_pinned(wide).unwrap_or(wide % window);
                fnv(&mut h, u64::from(cc.access(addr)));
            } else if pick < 88 {
                let out = cc.access_run(wide % window, 1 + (r >> 40) % 40);
                fnv(&mut h, out.hits);
                fnv(&mut h, out.misses);
            } else if pick < 92 {
                // A run that starts inside the pinned window and may leave it.
                let base = pinned
                    .map(|p| p.base + p.bytes - (1 + wide % 8) * cov)
                    .unwrap_or(cursor);
                let out = cc.access_run(base, 1 + (r >> 40) % 16);
                fnv(&mut h, out.hits);
                fnv(&mut h, out.misses);
            } else if pick < 97 {
                let addr = if wide % 2 == 0 {
                    cursor.saturating_sub(128 * (wide % 64))
                } else {
                    wide % window
                };
                fnv(&mut h, u64::from(cc.corrupt(addr)));
            } else {
                if let Some(addr) = in_pinned(wide) {
                    fnv(&mut h, u64::from(cc.corrupt(addr)));
                }
                cursor = (wide % (1 << 36)) / 128 * 128;
            }
        }
        for s in 0..cfg.sets() {
            let ways = resident(&cc, s);
            fnv(&mut h, ways.len() as u64);
            for (tag, prefetched, corrupt) in ways {
                fnv(&mut h, tag);
                fnv(&mut h, u64::from(prefetched) | u64::from(corrupt) << 1);
            }
        }
        (cc.stats(), h)
    }

    #[test]
    fn golden_state_and_stats_match_the_pre_restructure_cache() {
        let pin = |c: CounterCacheConfig| c.with_read_only_region(1 << 30, 3 << 20).unwrap();
        let one_set = CounterCacheConfig {
            capacity_bytes: 2 * 64,
            ways: 2,
            ..CounterCacheConfig::with_kilobytes(24)
        };
        // (name, geometry, expected [hits, misses, corruptions, prefetch
        // hits, prefetch fills, ro hits], expected state hash) — values
        // recorded from the Vec<Vec<Way>> single-pass implementation.
        let cases: [(&str, CounterCacheConfig, [u64; 6], u64); 8] = [
            (
                "classic 24 KB, 48 sets",
                CounterGeometry::classic().cache_config(24),
                [21751, 34162, 119, 0, 0, 0],
                0x4b34_31f2_22bd_7899,
            ),
            (
                "tuned 96 KB, 192 sets, pinned",
                pin(CounterGeometry::tuned().cache_config(96)),
                [50009, 5987, 554, 25289, 29285, 3657],
                0xd02c_f424_5651_8237,
            ),
            (
                "gtx480 slice 16 KB, 32 sets",
                CounterCacheConfig::with_kilobytes(16),
                [22483, 34755, 150, 0, 0, 0],
                0xd9dd_4a5a_0322_9d78,
            ),
            (
                "gtx480 slice + prefetch",
                CounterCacheConfig::with_kilobytes(16).with_prefetch(true),
                [49151, 6258, 133, 28593, 33258, 0],
                0xae46_78cd_6604_a707,
            ),
            (
                "split 3-bit 16 KB + prefetch",
                CounterCacheConfig::split_kilobytes(16, 3).with_prefetch(true),
                [48842, 6482, 253, 28478, 33126, 0],
                0x2051_fe9d_9cd9_72c4,
            ),
            (
                "split 3-bit 96 KB, pinned",
                pin(CounterCacheConfig::split_kilobytes(96, 3)),
                [25668, 30146, 727, 0, 0, 3556],
                0x7c62_ef40_fab3_5a43,
            ),
            (
                "one set, two ways",
                one_set,
                [9191, 45297, 66, 0, 0, 0],
                0x8320_9544_f49c_b723,
            ),
            (
                "one set + prefetch",
                one_set.with_prefetch(true),
                [43603, 11210, 42, 36741, 47791, 0],
                0xbe40_eb35_bc61_04bb,
            ),
        ];
        for (i, (name, cfg, want, want_hash)) in cases.into_iter().enumerate() {
            let (s, hash) = golden_walk(cfg, 0x5ea1 + i as u64);
            let got = [
                s.hits,
                s.misses,
                s.corruptions_detected,
                s.prefetch_hits,
                s.prefetch_fills,
                s.ro_hits,
            ];
            assert_eq!((got, hash), (want, want_hash), "{name}: {got:?}, {hash:#018x}");
        }
    }
}
