//! Per-tenant key and counter-space isolation.
//!
//! GuardNN's per-model-key MEE argument (PAPERS.md) puts the security
//! boundary at the tenant/model edge: two tenants sharing an accelerator
//! must not share an AES key, a CTR nonce, **or** a counter address
//! window — otherwise a tamper (or a counter rollback) in one tenant's
//! traffic could alias into another's. [`TenantCrypto`] packages the
//! three isolating artefacts, all derived deterministically from one
//! master seed so the serving harness stays reproducible:
//!
//! * a per-tenant [`Key128`] (domain-separated splitmix64 expansion — a
//!   reproducibility helper, not a production KDF);
//! * a per-tenant CTR nonce, so even an (impossible) key collision would
//!   not align keystreams;
//! * a disjoint counter-address window of [`TENANT_SPAN`] bytes: tenant
//!   `t` owns addresses `[t·SPAN, (t+1)·SPAN)`, so ciphertext/counter
//!   addresses can never alias across tenants by construction.

use crate::error::CryptoError;
use crate::key::Key128;

/// Size of each tenant's private counter-address window (2^56 bytes of
/// virtual address space — vastly larger than any model's weight + fmap
/// footprint, so per-lane region offsets fit inside one window).
pub const TENANT_SPAN: u64 = 1 << 56;

/// Maximum number of tenants the address-window packing supports
/// (`MAX_TENANTS · TENANT_SPAN` must stay below `u64::MAX`).
pub const MAX_TENANTS: u32 = 255;

/// One round of splitmix64 (the in-tree RNG finaliser).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain tags keeping the key and nonce derivations decorrelated even
/// for the same `(master_seed, tenant)` pair.
const DOMAIN_KEY: u64 = 0x005E_A17E_4A00_0001;
const DOMAIN_NONCE: u64 = 0x005E_A17E_4A00_0002;

/// The isolated cryptographic identity of one serving tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantCrypto {
    tenant: u32,
    key: Key128,
    nonce: u64,
    counter_base: u64,
}

impl TenantCrypto {
    /// Derives tenant `tenant`'s key material from the master seed.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidConfig`] when `tenant` exceeds
    /// [`MAX_TENANTS`] (the address-window packing would overflow).
    pub fn derive(master_seed: u64, tenant: u32) -> Result<TenantCrypto, CryptoError> {
        if tenant > MAX_TENANTS {
            return Err(CryptoError::InvalidConfig {
                reason: format!("tenant id {tenant} exceeds MAX_TENANTS {MAX_TENANTS}"),
            });
        }
        let mix = |domain: u64| {
            splitmix64(
                splitmix64(master_seed ^ domain.wrapping_mul(0xA076_1D64_78BD_642F))
                    .wrapping_add(u64::from(tenant)),
            )
        };
        Ok(TenantCrypto {
            tenant,
            key: Key128::from_seed(mix(DOMAIN_KEY)),
            nonce: mix(DOMAIN_NONCE),
            counter_base: u64::from(tenant) * TENANT_SPAN,
        })
    }

    /// The tenant id this material belongs to.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// The tenant's private AES-128 key.
    pub fn key(&self) -> &Key128 {
        &self.key
    }

    /// The tenant's CTR nonce (per-tenant keystream domain separation).
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// Base of the tenant's counter-address window. All of the tenant's
    /// ciphertext/counter addresses are offsets into
    /// `[counter_base, counter_base + TENANT_SPAN)`.
    pub fn counter_base(&self) -> u64 {
        self.counter_base
    }

    /// `true` when `addr` falls inside this tenant's address window —
    /// the isolation predicate the property tests assert.
    pub fn owns_address(&self, addr: u64) -> bool {
        addr >= self.counter_base && addr - self.counter_base < TENANT_SPAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aes128, CtrCipher};

    #[test]
    fn derivation_is_deterministic() {
        for t in 0..16 {
            assert_eq!(
                TenantCrypto::derive(42, t).unwrap(),
                TenantCrypto::derive(42, t).unwrap()
            );
        }
    }

    #[test]
    fn keys_and_nonces_are_pairwise_distinct() {
        let tenants: Vec<TenantCrypto> = (0..64)
            .map(|t| TenantCrypto::derive(7, t).unwrap())
            .collect();
        for (i, a) in tenants.iter().enumerate() {
            for b in tenants.iter().skip(i + 1) {
                assert_ne!(
                    a.key(),
                    b.key(),
                    "key collision {} vs {}",
                    a.tenant(),
                    b.tenant()
                );
                assert_ne!(a.nonce(), b.nonce(), "nonce collision");
            }
        }
    }

    #[test]
    fn different_master_seeds_give_different_keys() {
        assert_ne!(
            TenantCrypto::derive(1, 0).unwrap().key(),
            TenantCrypto::derive(2, 0).unwrap().key()
        );
    }

    #[test]
    fn counter_windows_are_disjoint_and_ordered() {
        let a = TenantCrypto::derive(9, 3).unwrap();
        let b = TenantCrypto::derive(9, 4).unwrap();
        assert_eq!(a.counter_base() + TENANT_SPAN, b.counter_base());
        // No address is owned by both tenants.
        for addr in [a.counter_base(), a.counter_base() + TENANT_SPAN - 1] {
            assert!(a.owns_address(addr));
            assert!(!b.owns_address(addr));
        }
        assert!(b.owns_address(b.counter_base()));
        assert!(!a.owns_address(b.counter_base()));
    }

    #[test]
    fn tenant_id_overflow_rejected() {
        assert!(TenantCrypto::derive(0, MAX_TENANTS).is_ok());
        assert!(TenantCrypto::derive(0, MAX_TENANTS + 1).is_err());
    }

    #[test]
    fn ciphertexts_do_not_collide_across_tenants() {
        // Same plaintext, same in-window offset: the bus bytes must still
        // differ between tenants (different key *and* different nonce).
        let a = TenantCrypto::derive(5, 0).unwrap();
        let b = TenantCrypto::derive(5, 1).unwrap();
        let ca = CtrCipher::new(Aes128::new(a.key()), a.nonce());
        let cb = CtrCipher::new(Aes128::new(b.key()), b.nonce());
        let plain = vec![0x5A; 64];
        let ct_a = ca.encrypt(a.counter_base(), &plain);
        let ct_b = cb.encrypt(b.counter_base(), &plain);
        assert_ne!(ct_a, ct_b);
        // And each decrypts only under its own tenant's material.
        assert_eq!(ca.decrypt(a.counter_base(), &ct_a), plain);
        assert_ne!(cb.decrypt(b.counter_base(), &ct_a), plain);
    }
}
