//! AES-128 known-answer tests from FIPS-197 and NIST SP 800-38A, plus a
//! CTR-mode encrypt/decrypt roundtrip property test.
//!
//! These vectors pin the block cipher to the published standard: if the
//! S-box, key schedule, or round structure regresses, the bus-level
//! ciphertext the whole SEAL security argument rests on is wrong even if
//! encrypt/decrypt still roundtrip.

use seal_crypto::{Aes128, CtrCipher, Key128};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::{Rng, SeedableRng};

/// FIPS-197 Appendix C.1 (also Appendix B): the canonical AES-128 vector.
#[test]
fn fips197_appendix_c1_encrypt() {
    let key = Key128::new([
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e,
        0x0f,
    ]);
    let plaintext = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff,
    ];
    let expected = [
        0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5,
        0x5a,
    ];
    let aes = Aes128::new(&key);
    assert_eq!(aes.encrypt_block(&plaintext), expected);
    assert_eq!(aes.encrypt_block_reference(&plaintext), expected);
    assert_eq!(aes.decrypt_block(&expected), plaintext);
}

/// The FIPS-197 Appendix A.1 cipher key (2b7e1516…) with the four
/// ECB-AES128.Encrypt blocks of NIST SP 800-38A Appendix F.1.1.
#[test]
fn sp800_38a_f11_ecb_encrypt() {
    let key = Key128::new([
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ]);
    let aes = Aes128::new(&key);
    // The four ECB-AES128.Encrypt blocks of SP 800-38A Appendix F.1.1.
    let blocks: [([u8; 16], [u8; 16]); 4] = [
        (
            [
                0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
                0x17, 0x2a,
            ],
            [
                0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
                0xef, 0x97,
            ],
        ),
        (
            [
                0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
                0x8e, 0x51,
            ],
            [
                0xf5, 0xd3, 0xd5, 0x85, 0x03, 0xb9, 0x69, 0x9d, 0xe7, 0x85, 0x89, 0x5a, 0x96, 0xfd,
                0xba, 0xaf,
            ],
        ),
        (
            [
                0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19, 0x1a, 0x0a,
                0x52, 0xef,
            ],
            [
                0x43, 0xb1, 0xcd, 0x7f, 0x59, 0x8e, 0xce, 0x23, 0x88, 0x1b, 0x00, 0xe3, 0xed, 0x03,
                0x06, 0x88,
            ],
        ),
        (
            [
                0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c,
                0x37, 0x10,
            ],
            [
                0x7b, 0x0c, 0x78, 0x5e, 0x27, 0xe8, 0xad, 0x3f, 0x82, 0x23, 0x20, 0x71, 0x04, 0x72,
                0x5d, 0xd4,
            ],
        ),
    ];
    for (i, (pt, ct)) in blocks.iter().enumerate() {
        assert_eq!(aes.encrypt_block(pt), *ct, "block {i}");
        assert_eq!(aes.decrypt_block(ct), *pt, "block {i}");
    }
}

/// The fast T-table path and the straightforward reference path must
/// agree on random blocks under random keys.
#[test]
fn table_and_reference_paths_agree() {
    let mut rng = StdRng::seed_from_u64(0xA5);
    for case in 0..256 {
        let aes = Aes128::new(&Key128::from_seed(rng.gen()));
        let mut block = [0u8; 16];
        rng.fill(&mut block);
        assert_eq!(
            aes.encrypt_block(&block),
            aes.encrypt_block_reference(&block),
            "case {case}"
        );
    }
}

/// CTR encrypt/decrypt roundtrip property: arbitrary lengths (including
/// empty and non-block-aligned), arbitrary addresses, arbitrary keys and
/// nonces. Also checks that two distinct addresses produce distinct
/// keystreams (no pad reuse across cache lines).
#[test]
fn ctr_roundtrip_property() {
    let mut rng = StdRng::seed_from_u64(0xC72);
    for case in 0..128 {
        let key = Key128::from_seed(rng.gen());
        let nonce: u64 = rng.gen();
        let ctr = CtrCipher::new(Aes128::new(&key), nonce);
        let len = rng.gen_range(0usize..300);
        let mut data = vec![0u8; len];
        rng.fill(&mut data);
        let addr: u64 = rng.gen();

        let ct = ctr.encrypt(addr, &data);
        assert_eq!(
            ct.len(),
            data.len(),
            "case {case}: CTR is length-preserving"
        );
        assert_eq!(ctr.decrypt(addr, &ct), data, "case {case}: roundtrip");
        if len >= 16 {
            assert_ne!(
                ct, data,
                "case {case}: ciphertext must differ from plaintext"
            );
            let other = ctr.encrypt(addr ^ 0x40, &data);
            assert_ne!(ct, other, "case {case}: distinct addresses, distinct pads");
        }
    }
}
