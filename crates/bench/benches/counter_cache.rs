//! Micro-benchmark for counter-cache lookups (the per-request operation
//! on the counter-mode critical path), plus the batched `access_run`
//! walk against the equivalent per-page loop — the fast paths the serve
//! cost model's hot weight walk and feature-map stream ride.

use seal_bench::timing::bench;
use seal_crypto::{CounterCache, CounterCacheConfig, CounterGeometry};

fn main() {
    for kb in [24usize, 1536] {
        let mut cc = CounterCache::new(CounterCacheConfig::with_kilobytes(kb)).unwrap();
        let mut addr = 0u64;
        bench(&format!("counter_cache/access_{kb}kb"), || {
            addr = addr.wrapping_add(4096).wrapping_mul(2862933555777941757) % (1 << 30);
            cc.access(addr)
        });
    }

    // The hot weight walk, per-page vs batched, over a pinned read-only
    // region (tuned geometry): access_run collapses the whole run into
    // one region check once the shared major counter is resident.
    let pages = 4096u64;
    let page = CounterGeometry::tuned().coverage_bytes() as u64;
    let cfg = CounterCacheConfig::with_kilobytes(96)
        .with_read_only_region(0, pages * page)
        .unwrap();

    let mut cc = CounterCache::new(cfg).unwrap();
    cc.access_run(0, pages);
    bench("counter_cache/walk_per_page_4096", || {
        let mut misses = 0u64;
        for p in 0..pages {
            if !cc.access(p * page) {
                misses += 1;
            }
        }
        misses
    });

    let mut cc = CounterCache::new(cfg).unwrap();
    cc.access_run(0, pages);
    bench("counter_cache/walk_access_run_4096", || {
        cc.access_run(0, pages).misses
    });

    // The feature-map stream, per-page vs batched: each iteration walks
    // 2,400 fresh pages on from the last, so every page is a prefetch
    // hit plus a fill — access_run writes the resulting ways directly.
    let pages = 2400u64;
    let cfg = CounterGeometry::tuned().cache_config(96);

    let mut cc = CounterCache::new(cfg).unwrap();
    let mut cursor = 1u64 << 40;
    bench("counter_cache/stream_per_page_2400", || {
        let mut misses = 0u64;
        for p in 0..pages {
            if !cc.access(cursor + p * page) {
                misses += 1;
            }
        }
        cursor += pages * page;
        misses
    });

    let mut cc = CounterCache::new(cfg).unwrap();
    let mut cursor = 1u64 << 40;
    bench("counter_cache/stream_access_run_2400", || {
        let misses = cc.access_run(cursor, pages).misses;
        cursor += pages * page;
        misses
    });
}
