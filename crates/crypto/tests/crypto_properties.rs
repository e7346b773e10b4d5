//! Property-based tests of the crypto substrate.
//!
//! Cases are generated with the in-tree deterministic RNG
//! (`seal_tensor::rng`) instead of an external property-testing crate so
//! the suite runs hermetically; every assertion names its case seed.

use seal_crypto::{
    Aes128, CounterCache, CounterCacheConfig, CtrCipher, EnginePipeline, EngineSpec, Key128,
};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::{Rng, SeedableRng};

const CASES: u64 = 64;

fn arb_block(rng: &mut StdRng) -> [u8; 16] {
    let mut b = [0u8; 16];
    rng.fill(&mut b);
    b
}

fn arb_bytes(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<u8> {
    let len = rng.gen_range(lo..hi);
    let mut data = vec![0u8; len];
    rng.fill(&mut data);
    data
}

/// AES is a bijection on blocks: decrypt ∘ encrypt = id, and distinct
/// plaintext blocks map to distinct ciphertext blocks.
#[test]
fn aes_is_a_bijection() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let (a, b) = (arb_block(&mut rng), arb_block(&mut rng));
        let seed: u64 = rng.gen();
        let aes = Aes128::new(&Key128::from_seed(seed));
        assert_eq!(aes.decrypt_block(&aes.encrypt_block(&a)), a, "case {case}");
        if a != b {
            assert_ne!(aes.encrypt_block(&a), aes.encrypt_block(&b), "case {case}");
        }
    }
}

/// CTR encryption is an involution under the same (addr, counter).
#[test]
fn ctr_is_self_inverse() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC7 + case);
        let data = arb_bytes(&mut rng, 0, 256);
        let addr: u64 = rng.gen();
        let c = CtrCipher::new(Aes128::new(&Key128::from_seed(1)), 42);
        let once = c.encrypt(addr, &data);
        assert_eq!(c.encrypt(addr, &once), data, "case {case}");
    }
}

/// Bumping a counter always changes the ciphertext of non-empty data.
#[test]
fn counter_bump_changes_pad() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB0B + case);
        let data = arb_bytes(&mut rng, 1, 128);
        let addr: u64 = rng.gen();
        let mut c = CtrCipher::new(Aes128::new(&Key128::from_seed(2)), 7);
        let before = c.encrypt(addr, &data);
        c.bump_counter(addr);
        assert_ne!(c.encrypt(addr, &data), before, "case {case}");
    }
}

/// Engine completions are monotone in submission order and never before
/// `now + latency`.
#[test]
fn engine_completions_are_monotone() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE71 + case);
        let n = rng.gen_range(1usize..64);
        let mut times: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..100_000)).collect();
        times.sort_unstable();
        let mut eng = EnginePipeline::new(EngineSpec::seal_default(), 1.401).unwrap();
        let mut last = 0u64;
        for t in times {
            let done = eng.submit(t, 128);
            assert!(done >= t + eng.spec().latency_cycles, "case {case}");
            assert!(done >= last, "case {case}: completions are FIFO-monotone");
            last = done;
        }
    }
}

/// Counter cache: hits + misses equals accesses, and re-touching the same
/// address immediately is always a hit.
#[test]
fn counter_cache_accounting() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xCACE + case);
        let n = rng.gen_range(1usize..512);
        let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..(1 << 24))).collect();
        let mut cc = CounterCache::new(CounterCacheConfig::with_kilobytes(24)).unwrap();
        for &a in &addrs {
            cc.access(a);
            assert!(
                cc.access(a),
                "case {case}: immediate re-access of {a:#x} must hit"
            );
        }
        let stats = cc.stats();
        assert_eq!(
            stats.hits + stats.misses,
            2 * addrs.len() as u64,
            "case {case}"
        );
        assert!(
            stats.hit_rate() >= 0.5,
            "case {case}: at least the re-touches hit"
        );
    }
}

/// A larger counter cache never yields a lower hit rate on the same trace
/// (for caches with identical geometry apart from capacity).
#[test]
fn bigger_cache_never_hurts() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB16 + case);
        let n = rng.gen_range(64usize..512);
        let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..(1 << 22))).collect();
        let mut small = CounterCache::new(CounterCacheConfig::with_kilobytes(24)).unwrap();
        let mut big = CounterCache::new(CounterCacheConfig::with_kilobytes(1536)).unwrap();
        for &a in &addrs {
            small.access(a);
            big.access(a);
        }
        // LRU with set hashing is not strictly inclusive, but at these
        // size ratios (64×) the big cache holds a superset in practice;
        // allow a tiny tolerance for set-conflict corner cases.
        assert!(
            big.stats().hit_rate() + 0.02 >= small.stats().hit_rate(),
            "case {case}"
        );
    }
}
