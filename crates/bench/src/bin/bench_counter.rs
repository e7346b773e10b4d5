//! Counter-locality perf trajectory, written to
//! `results/BENCH_counter.json`.
//!
//! Run via `scripts/bench_counter.sh` (or directly:
//! `cargo run --release -p seal-bench --bin bench_counter`).
//!
//! Three claims, measured on this machine:
//!
//! 1. **Walk**: the batched `access_run` over a pinned read-only region
//!    retires the hot weight walk in O(1) per run instead of a per-page
//!    LRU probe — ns/page collapses versus the per-page `access` loop.
//! 2. **Stream**: a fresh feature-map stream behind the prefetcher is
//!    priced in O(1), and a stream that continues the last one extends
//!    its pending run without writing a way — instead of a lookup and a
//!    fill per page.
//! 3. **Lanes**: under the tuned geometry (read-only weight window +
//!    next-line prefetch), the smoke cost model's Counter lane goes from
//!    a 0% counter hit rate and the recorded 4.238× slowdown (classic
//!    geometry, cyclic thrash) to a warm walk: hit rate > 0.5 and
//!    slowdown strictly below 4.2×.

use std::io::Write as _;

use seal_bench::timing::measure_ns;
use seal_crypto::{CounterCache, CounterCacheConfig, CounterGeometry};
use seal_nn::models::vgg16_topology;
use seal_serve::{CostModel, SchemeSummary, ServerConfig};

/// Pages in the walk micro-benchmark (a VGG-16-scale weight window under
/// the classic 4 KB page coverage).
const WALK_PAGES: u64 = 8192;

struct WalkBench {
    per_page_ns: f64,
    run_ns: f64,
}

impl WalkBench {
    fn per_page_per_page(&self) -> f64 {
        self.per_page_ns / WALK_PAGES as f64
    }
    fn run_per_page(&self) -> f64 {
        self.run_ns / WALK_PAGES as f64
    }
    fn speedup(&self) -> f64 {
        self.per_page_ns / self.run_ns
    }
}

/// Times the hot weight walk both ways over the same pinned region.
fn bench_walk() -> WalkBench {
    let page = CounterGeometry::tuned().coverage_bytes() as u64;
    let cfg = CounterCacheConfig::with_kilobytes(96)
        .with_prefetch(true)
        .with_read_only_region(0, WALK_PAGES * page)
        .expect("region fits an empty slot");
    let mut cc = CounterCache::new(cfg).expect("valid config");
    // Warm the region so both arms measure the steady-state walk.
    cc.access_run(0, WALK_PAGES);

    let per_page_ns = measure_ns(|| {
        let mut misses = 0u64;
        for p in 0..WALK_PAGES {
            if !cc.access(p * page) {
                misses += 1;
            }
        }
        misses
    });
    let run_ns = measure_ns(|| cc.access_run(0, WALK_PAGES).misses);
    WalkBench {
        per_page_ns,
        run_ns,
    }
}

/// Pages in the streaming micro-benchmark (one smoke batch's SEAL-C
/// feature-map stream is of this order).
const STREAM_PAGES: u64 = 2400;

/// ns/page of a fresh stream, walked per page and through `access_run`.
struct StreamBench {
    per_page: f64,
    batched: f64,
}

/// Interleaved repetitions of the two stream arms; each side reports its
/// fastest. The host's clock flips between two speeds every few seconds,
/// so two arms timed once, one after the other, can land in different
/// phases and read a ratio that is the host's, not the code's.
const STREAM_REPS: usize = 5;

/// One arm of the stream benchmark: its own cache and stream cursor,
/// kept across repetitions, and its fastest repetition so far.
struct StreamArm {
    cc: CounterCache,
    cursor: u64,
    page: u64,
    best_ns_per_page: f64,
}

impl StreamArm {
    fn new(cfg: CounterCacheConfig) -> StreamArm {
        StreamArm {
            cc: CounterCache::new(cfg).expect("valid config"),
            cursor: 1 << 40,
            page: cfg.coverage_bytes as u64,
            best_ns_per_page: f64::INFINITY,
        }
    }

    /// One repetition: every iteration continues the ascending stream
    /// where the last ended, as a lane's feature-map cursor does from
    /// batch to batch.
    fn time(&mut self, walk: impl Fn(&mut CounterCache, u64, u64) -> u64) {
        let ns = measure_ns(|| {
            let misses = walk(&mut self.cc, self.cursor, self.page);
            self.cursor += STREAM_PAGES * self.page;
            misses
        });
        self.best_ns_per_page = self.best_ns_per_page.min(ns / STREAM_PAGES as f64);
    }
}

/// Times a fresh `STREAM_PAGES`-page run on the tuned 96 KB geometry,
/// per page and through `access_run`.
fn bench_stream() -> StreamBench {
    let cfg = CounterGeometry::tuned().cache_config(96);
    let (mut per_page, mut batched) = (StreamArm::new(cfg), StreamArm::new(cfg));
    for _ in 0..STREAM_REPS {
        per_page.time(|cc, base, page| {
            (0..STREAM_PAGES).filter(|p| !cc.access(base + p * page)).count() as u64
        });
        batched.time(|cc, base, _| cc.access_run(base, STREAM_PAGES).misses);
    }
    StreamBench {
        per_page: per_page.best_ns_per_page,
        batched: batched.best_ns_per_page,
    }
}

struct LaneArm {
    label: &'static str,
    counter: SchemeSummary,
    seal: SchemeSummary,
}

/// Prices the smoke batch stream under one counter geometry.
fn bench_lanes(label: &'static str, geometry: CounterGeometry) -> LaneArm {
    let topo = vgg16_topology();
    let cfg = ServerConfig {
        counter_geometry: geometry,
        ..ServerConfig::smoke()
    };
    let mut cost = CostModel::new(&topo, &cfg).expect("vgg16 topology is priceable");
    for _ in 0..25 {
        cost.cost_batch(4);
    }
    let rows = cost.summaries();
    let pick = |s: seal_core::Scheme| {
        rows.iter()
            .find(|r| r.scheme == s)
            .cloned()
            .expect("lane exists")
    };
    LaneArm {
        label,
        counter: pick(seal_core::Scheme::Counter),
        seal: pick(seal_core::Scheme::SealCounter),
    }
}

fn lane_json(arm: &LaneArm) -> String {
    let row = |s: &SchemeSummary| {
        format!(
            "{{ \"counter_hit_rate\": {:.6}, \"slowdown_vs_baseline\": {:.6}, \
             \"counter_hits\": {}, \"counter_misses\": {}, \"ro_hits\": {}, \
             \"prefetch_hits\": {}, \"prefetch_fills\": {} }}",
            s.counter_hit_rate,
            s.slowdown_vs_baseline,
            s.counter_hits,
            s.counter_misses,
            s.ro_hits,
            s.prefetch_hits,
            s.prefetch_fills
        )
    };
    format!(
        "    \"{}\": {{\n      \"SEAL-C\": {},\n      \"Counter\": {}\n    }}",
        arm.label,
        row(&arm.seal),
        row(&arm.counter)
    )
}

/// The `results/BENCH_counter.json` document.
fn render(walk: &WalkBench, stream: &StreamBench, before: &LaneArm, after: &LaneArm) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"counter\",\n");
    json.push_str(
        "  \"note\": \"before_classic is the pre-overhaul split geometry (cyclic \
         weight rescans thrash the LRU to 0%); after_tuned pins the weight window \
         read-only and prefetches the fmap stream. Lane numbers are deterministic \
         cost-model results on the 25x4 smoke batch stream; walk numbers are wall \
         clock on this machine.\",\n",
    );
    json.push_str("  \"walk\": {\n");
    json.push_str(&format!("    \"pages\": {WALK_PAGES},\n"));
    json.push_str(&format!(
        "    \"per_page_access_ns_per_page\": {:.4},\n",
        walk.per_page_per_page()
    ));
    json.push_str(&format!(
        "    \"access_run_ns_per_page\": {:.6},\n",
        walk.run_per_page()
    ));
    json.push_str(&format!("    \"speedup\": {:.1},\n", walk.speedup()));
    json.push_str(&format!("    \"stream_pages\": {STREAM_PAGES},\n"));
    json.push_str(&format!(
        "    \"stream_ns_per_page\": {:.4},\n",
        stream.per_page
    ));
    json.push_str(&format!(
        "    \"stream_ns_per_page_batched\": {:.4}\n",
        stream.batched
    ));
    json.push_str("  },\n");
    json.push_str("  \"lanes\": {\n");
    json.push_str(&lane_json(before));
    json.push_str(",\n");
    json.push_str(&lane_json(after));
    json.push_str("\n  }\n}\n");
    json
}

fn main() {
    println!("counter bench: {WALK_PAGES}-page pinned walk + smoke lane geometries");

    let walk = bench_walk();
    println!(
        "{:<28} {:>12.2} ns/page",
        "walk/per_page_access",
        walk.per_page_per_page()
    );
    println!(
        "{:<28} {:>12.4} ns/page ({:.0}x)",
        "walk/access_run",
        walk.run_per_page(),
        walk.speedup()
    );

    let stream = bench_stream();
    println!(
        "{:<28} {:>12.2} ns/page",
        "stream/per_page_access", stream.per_page
    );
    println!(
        "{:<28} {:>12.2} ns/page ({:.1}x)",
        "stream/access_run",
        stream.batched,
        stream.per_page / stream.batched
    );

    let before = bench_lanes("before_classic", CounterGeometry::classic());
    let after = bench_lanes("after_tuned", CounterGeometry::tuned());
    for arm in [&before, &after] {
        println!(
            "lane {:>15}: Counter hit {:.4} slowdown {:.3}x, SEAL-C hit {:.4} slowdown {:.3}x",
            arm.label,
            arm.counter.counter_hit_rate,
            arm.counter.slowdown_vs_baseline,
            arm.seal.counter_hit_rate,
            arm.seal.slowdown_vs_baseline
        );
    }

    let json = render(&walk, &stream, &before, &after);
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_counter.json".to_string());
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::File::create(&out_path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden shape of `BENCH_counter.json`: the keys `bench_counter.sh`
    /// gates on, in order, and the deterministic lane rows verbatim.
    #[test]
    fn report_json_has_the_stable_golden_shape() {
        let walk = WalkBench {
            per_page_ns: 8192.0 * 4.0,
            run_ns: 8.192,
        };
        let stream = StreamBench {
            per_page: 32.5,
            batched: 1.25,
        };
        let before = bench_lanes("before_classic", CounterGeometry::classic());
        let after = bench_lanes("after_tuned", CounterGeometry::tuned());
        let text = render(&walk, &stream, &before, &after);
        let walk_block = "  \"walk\": {\n    \"pages\": 8192,\n    \
             \"per_page_access_ns_per_page\": 4.0000,\n    \
             \"access_run_ns_per_page\": 0.001000,\n    \"speedup\": 4000.0,\n    \
             \"stream_pages\": 2400,\n    \"stream_ns_per_page\": 32.5000,\n    \
             \"stream_ns_per_page_batched\": 1.2500\n  },\n  \"lanes\": {\n";
        assert!(text.contains(walk_block), "{text}");
        // The lane rows the closed-form walk must not move.
        assert!(
            text.contains(
                "\"Counter\": { \"counter_hit_rate\": 0.999995, \
                 \"slowdown_vs_baseline\": 3.541913, \"counter_hits\": 432698, \
                 \"counter_misses\": 2, \"ro_hits\": 372074, \"prefetch_hits\": 60624, \
                 \"prefetch_fills\": 60625 }"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "\"Counter\": { \"counter_hit_rate\": 0.000000, \
                 \"slowdown_vs_baseline\": 4.238043, \"counter_hits\": 0, \
                 \"counter_misses\": 432700,"
            ),
            "{text}"
        );
        assert!(text.starts_with("{\n  \"bench\": \"counter\",\n  \"note\": "));
        assert!(text.ends_with("\n  }\n}\n"));
    }
}
