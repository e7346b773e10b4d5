//! Property tests: `CounterCache` and `CtrCipher` under injected
//! corruption (ISSUE 4 satellite). For any seed, eviction + re-fill must
//! restore consistent counters, and a tampered counter must never decrypt
//! silently.

use seal_crypto::{Aes128, CounterCache, CounterCacheConfig, CryptoError, CtrCipher, Key128};
use seal_faults::{FaultConfig, FaultPlan};

fn plan(seed: u64) -> FaultPlan {
    match FaultPlan::new(seed, FaultConfig::chaos_smoke()) {
        Ok(p) => p,
        Err(e) => panic!("chaos_smoke must validate: {e}"),
    }
}

#[test]
fn corruption_then_refill_restores_consistency_for_any_seed() {
    for seed in 0..32u64 {
        let p = plan(seed);
        let cfg = CounterCacheConfig::with_kilobytes(24);
        let mut cc = CounterCache::new(cfg).expect("valid geometry");
        let pages: u64 = 512; // 2 MB of data → heavier than the 24 KB cache
                              // Interleave accesses with seeded corruption of resident lines.
        for step in 0..4_000u64 {
            let addr = (p.draw(1, step) % pages) * cfg.coverage_bytes as u64;
            cc.access(addr);
            if p.draw(2, step).is_multiple_of(5) {
                let victim = (p.draw(3, step) % pages) * cfg.coverage_bytes as u64;
                cc.corrupt(victim);
            }
        }
        // Drain: touch every page once so every corruption flag planted
        // above is either evicted or detected+repaired.
        for page in 0..pages {
            cc.access(page * cfg.coverage_bytes as u64);
        }
        let after_drain = cc.stats();
        // Now the cache must be fully consistent: re-touching the resident
        // working set can only produce clean hits or clean misses — never
        // another corruption detection.
        for page in 0..pages {
            cc.access(page * cfg.coverage_bytes as u64);
        }
        assert_eq!(
            cc.stats().corruptions_detected,
            after_drain.corruptions_detected,
            "seed {seed}: drain left a corrupt line behind"
        );
        // Accounting stays coherent: every access is a hit or a miss.
        let s = cc.stats();
        assert_eq!(s.hits + s.misses, 4_000 + 2 * pages, "seed {seed}");
        assert!(s.corruptions_detected <= s.misses, "seed {seed}");
    }
}

#[test]
fn corrupted_resident_line_is_never_served_as_a_hit() {
    for seed in 0..16u64 {
        let p = plan(seed ^ 0xABCD);
        let cfg = CounterCacheConfig::with_kilobytes(24);
        let mut cc = CounterCache::new(cfg).expect("valid geometry");
        for i in 0..64u64 {
            cc.access(i * cfg.coverage_bytes as u64);
        }
        let victim = (p.draw(7, seed) % 64) * cfg.coverage_bytes as u64;
        if cc.corrupt(victim) {
            let before = cc.stats().corruptions_detected;
            assert!(
                !cc.access(victim),
                "seed {seed}: corrupted line must be re-fetched, not hit"
            );
            assert_eq!(cc.stats().corruptions_detected, before + 1);
            // Repaired: next touch is an ordinary hit.
            assert!(cc.access(victim), "seed {seed}");
        }
    }
}

#[test]
fn tampered_counter_never_decrypts_silently_for_any_seed() {
    for seed in 0..24u64 {
        let p = plan(seed.wrapping_mul(0x9E37) + 1);
        let mut cipher = CtrCipher::new(Aes128::new(&Key128::from_seed(seed)), seed ^ 0xF00D);
        let addr = (p.draw(11, 0) % 1024) * 64;
        let true_ctr = 1 + p.draw(12, 0) % 100;
        cipher.set_counter(addr, true_ctr);
        let data: Vec<u8> = (0..64).map(|i| (p.draw(13, i) & 0xFF) as u8).collect();
        let tc = cipher.encrypt_tagged(addr, &data);

        // Any wrong counter value — rollback, bit-flip, zeroing — must be
        // caught by tag verification, never returned as plaintext.
        let mut tampered = [true_ctr ^ (1 << (p.draw(14, 0) % 20)), true_ctr - 1, 0];
        if tampered[0] == true_ctr {
            tampered[0] = true_ctr + 1;
        }
        for wrong in tampered {
            cipher.set_counter(addr, wrong);
            match cipher.decrypt_verified(addr, &tc) {
                Err(CryptoError::TagMismatch { addr: a, .. }) => assert_eq!(a, addr),
                other => panic!("seed {seed}, ctr {wrong}: expected TagMismatch, got {other:?}"),
            }
        }

        // Counter re-fetch (recovery) restores the true counter and the
        // data decrypts verified again.
        cipher.set_counter(addr, true_ctr);
        assert_eq!(
            cipher.decrypt_verified(addr, &tc).expect("recovered"),
            data,
            "seed {seed}"
        );
    }
}

#[test]
fn every_planned_tamper_bit_is_detected() {
    // The chaos schedule's tamper events, replayed against the real
    // cipher: each planned bit-flip must produce a TagMismatch.
    for seed in [3u64, 17, 91] {
        let p = plan(seed);
        let cipher = CtrCipher::new(Aes128::new(&Key128::from_seed(seed)), 7);
        let data = vec![0x6Bu8; 128];
        for event in 0..50u64 {
            let addr = (p.draw(20, event) % 4096) * 64;
            let mut tc = cipher.encrypt_tagged(addr, &data);
            let flipped = tc
                .flip_ciphertext_bit(p.draw(21, event))
                .expect("non-empty ciphertext");
            match cipher.decrypt_verified(addr, &tc) {
                Err(CryptoError::TagMismatch { block, .. }) => {
                    assert_eq!(block, flipped, "seed {seed} event {event}")
                }
                other => panic!("seed {seed} event {event}: silent corruption! {other:?}"),
            }
        }
    }
}
