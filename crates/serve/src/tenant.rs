//! The multi-tenant model registry.
//!
//! Each serving tenant owns four isolated artefacts, all derived
//! deterministically from the server's master seeds:
//!
//! * a [`TenantCrypto`] — private AES-128 key, private CTR nonce and a
//!   disjoint counter-address window (see `seal-crypto`);
//! * its own model weights (a per-tenant weight seed, so tenants never
//!   share parameters and cross-tenant perturbation is observable);
//! * a per-tenant [`CostModel`] whose counter pages, feature-map cursor,
//!   storm cursor and tamper targets all live inside the tenant's window;
//! * per-tenant serving state: latency histogram, completion/rejection
//!   counters and a circuit breaker gating admission.
//!
//! The registry is immutable after construction — workers look tenants up
//! by id and mutate only the per-tenant locked state, so no request ever
//! touches another tenant's key, counters or statistics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use seal_crypto::{TenantCrypto, MAX_TENANTS};

use crate::breaker::CircuitBreaker;
use crate::cost::CostModel;
use crate::metrics::LatencyHistogram;
use crate::model::ServedModel;
use crate::{locked, ServeError, ServerConfig};

/// One round of splitmix64, used to derive per-tenant weight seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Static description of one tenant: its wire id and its weighted-fair
/// share of serving capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant id carried in every frame header.
    pub tenant: u32,
    /// Deficit-round-robin weight (relative share of throughput).
    pub weight: u32,
}

impl TenantSpec {
    /// A uniform-weight spec set for tenants `0..count`.
    pub fn uniform(count: u32) -> Vec<TenantSpec> {
        (0..count)
            .map(|t| TenantSpec {
                tenant: t,
                weight: 1,
            })
            .collect()
    }

    /// A skewed spec set for tenants `0..count`: tenant `t` gets weight
    /// `t + 1`, so fairness checks exercise non-trivial shares.
    pub fn skewed(count: u32) -> Vec<TenantSpec> {
        (0..count)
            .map(|t| TenantSpec {
                tenant: t,
                weight: t + 1,
            })
            .collect()
    }
}

/// Everything one tenant owns at runtime. Shared state is individually
/// locked so tenants never contend on each other's accounting.
#[derive(Debug)]
pub struct TenantState {
    spec: TenantSpec,
    crypto: Option<TenantCrypto>,
    model: ServedModel,
    /// Per-tenant scheme lanes, all addresses inside the tenant's window.
    pub cost: Mutex<CostModel>,
    /// Server-side latency of this tenant's completed requests.
    pub latency: Mutex<LatencyHistogram>,
    /// Per-tenant admission breaker.
    pub breaker: Mutex<CircuitBreaker>,
    /// Requests served to completion.
    pub completed: AtomicU64,
    /// Admissions refused because the tenant's queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Admissions refused by the tenant's open breaker.
    pub rejected_breaker: AtomicU64,
    /// Requests shed past their deadline.
    pub shed: AtomicU64,
    /// Requests typed-rejected because the server was draining (queue
    /// closed at admission, or still queued when the drain window
    /// expired) — the "never silently dropped" ledger.
    pub rejected_drain: AtomicU64,
}

impl TenantState {
    /// Builds one tenant. With `crypto` it is a registered tenant: private
    /// weights, cost lanes inside its counter window, tampers under its
    /// key. Without, it is the in-process server's solo tenant, which
    /// predicts and prices exactly what [`ServedModel::load`] with
    /// `config.seed` and [`CostModel::new`] do offline.
    fn new(
        config: &ServerConfig,
        spec: TenantSpec,
        crypto: Option<TenantCrypto>,
    ) -> Result<TenantState, ServeError> {
        let weight_seed = match crypto {
            Some(_) => splitmix64(config.seed ^ u64::from(spec.tenant)),
            None => config.seed,
        };
        let model = ServedModel::load(&config.model, weight_seed)?;
        let cost = CostModel::build(model.topology(), config, crypto.as_ref())?;
        Ok(TenantState {
            spec,
            crypto,
            model,
            cost: Mutex::new(cost),
            latency: Mutex::new(LatencyHistogram::new()),
            breaker: Mutex::new(CircuitBreaker::new(
                config.breaker_trip_threshold,
                config.breaker_probe_interval,
            )),
            completed: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_breaker: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected_drain: AtomicU64::new(0),
        })
    }

    /// The tenant's static spec (id and weight).
    pub fn spec(&self) -> TenantSpec {
        self.spec
    }

    /// The tenant's isolated key material and counter window; `None` for
    /// the in-process server's solo tenant, which owns the whole counter
    /// space.
    pub fn crypto(&self) -> Option<&TenantCrypto> {
        self.crypto.as_ref()
    }

    /// The tenant's private model (per-tenant weights).
    pub fn model(&self) -> &ServedModel {
        &self.model
    }
}

/// The immutable tenant table built at server start.
#[derive(Debug)]
pub struct TenantRegistry {
    tenants: Vec<TenantState>,
    by_id: HashMap<u32, usize>,
}

impl TenantRegistry {
    /// Builds every tenant's key material, model and cost lanes.
    ///
    /// `config.seed` seeds the per-tenant weight derivation and
    /// `config.fault_seed` seeds each tenant's (shared-schedule) chaos
    /// plan; key material comes from `master_seed` so crypto isolation is
    /// independent of the workload seed.
    ///
    /// # Errors
    ///
    /// Rejects empty or duplicate-id spec sets, zero weights and tenant
    /// ids beyond [`MAX_TENANTS`]; propagates model/cost construction
    /// failures.
    pub fn build(
        config: &ServerConfig,
        master_seed: u64,
        specs: &[TenantSpec],
    ) -> Result<Self, ServeError> {
        if specs.is_empty() {
            return Err(ServeError::InvalidConfig {
                reason: "tenant registry needs at least one tenant".into(),
            });
        }
        let mut tenants = Vec::with_capacity(specs.len());
        let mut by_id = HashMap::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            if spec.weight == 0 {
                return Err(ServeError::InvalidConfig {
                    reason: format!("tenant {} has zero weight", spec.tenant),
                });
            }
            if spec.tenant > MAX_TENANTS {
                return Err(ServeError::InvalidConfig {
                    reason: format!(
                        "tenant id {} exceeds MAX_TENANTS {MAX_TENANTS}",
                        spec.tenant
                    ),
                });
            }
            if by_id.insert(spec.tenant, i).is_some() {
                return Err(ServeError::InvalidConfig {
                    reason: format!("duplicate tenant id {}", spec.tenant),
                });
            }
            let crypto = TenantCrypto::derive(master_seed, spec.tenant)?;
            tenants.push(TenantState::new(config, *spec, Some(crypto))?);
        }
        Ok(TenantRegistry { tenants, by_id })
    }

    /// The one-tenant registry the in-process [`Server`](crate::Server)
    /// runs on (tenant 0, weight 1, no counter window).
    pub(crate) fn solo(config: &ServerConfig) -> Result<Self, ServeError> {
        let spec = TenantSpec {
            tenant: 0,
            weight: 1,
        };
        Ok(TenantRegistry {
            tenants: vec![TenantState::new(config, spec, None)?],
            by_id: HashMap::from([(spec.tenant, 0)]),
        })
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// `true` when no tenant is registered (never, post-build).
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Tenant state by registry index (dense, `0..len`).
    pub fn by_index(&self, index: usize) -> &TenantState {
        &self.tenants[index]
    }

    /// Registry index of the tenant with wire id `tenant`.
    pub fn index_of(&self, tenant: u32) -> Option<usize> {
        self.by_id.get(&tenant).copied()
    }

    /// All tenant states in registry order.
    pub fn all(&self) -> &[TenantState] {
        &self.tenants
    }

    /// The `(tenant, weight)` pairs in registry order — the fair queue is
    /// built from exactly this table.
    pub fn weights(&self) -> Vec<(u32, u32)> {
        self.tenants
            .iter()
            .map(|t| (t.spec.tenant, t.spec.weight))
            .collect()
    }

    /// Sum of all weights (Jain-index normalisation).
    pub fn total_weight(&self) -> u64 {
        self.tenants.iter().map(|t| u64::from(t.spec.weight)).sum()
    }

    /// Fleet-wide scheme rows: every tenant's cost-lane summaries rolled
    /// up per scheme ([`SchemeSummary::aggregate`] semantics). Makespans
    /// and hit rates depend on how traffic batched, so these rows are
    /// *reported* but never part of a deterministic signature.
    pub fn scheme_rollup(&self) -> Vec<crate::cost::SchemeSummary> {
        let per_tenant: Vec<_> = self
            .tenants
            .iter()
            .map(|t| locked(&t.cost).summaries())
            .collect();
        crate::cost::SchemeSummary::aggregate(&per_tenant)
    }

    /// Snapshot of the deterministic per-tenant counters, in registry
    /// order: `(tenant, completed, rejected_queue_full, rejected_breaker,
    /// shed, rejected_drain)`.
    pub fn counter_snapshot(&self) -> Vec<(u32, u64, u64, u64, u64, u64)> {
        self.tenants
            .iter()
            .map(|t| {
                (
                    t.spec.tenant,
                    t.completed.load(Ordering::Relaxed),
                    t.rejected_queue_full.load(Ordering::Relaxed),
                    t.rejected_breaker.load(Ordering::Relaxed),
                    t.shed.load(Ordering::Relaxed),
                    t.rejected_drain.load(Ordering::Relaxed),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlp_config() -> ServerConfig {
        ServerConfig {
            model: "mlp".into(),
            ..ServerConfig::smoke()
        }
    }

    #[test]
    fn registry_isolates_keys_models_and_windows() {
        let reg = TenantRegistry::build(&mlp_config(), 42, &TenantSpec::uniform(4)).unwrap();
        assert_eq!(reg.len(), 4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                let (a, b) = (
                    reg.by_index(i).crypto().unwrap(),
                    reg.by_index(j).crypto().unwrap(),
                );
                assert_ne!(a.key(), b.key());
                assert_ne!(a.nonce(), b.nonce());
                assert!(!a.owns_address(b.counter_base()));
            }
        }
        // Per-tenant weight seeds: tenants classify the same input
        // differently often enough that shared weights would be caught.
        let t0 = reg.by_index(0);
        assert_eq!(reg.index_of(t0.spec().tenant), Some(0));
    }

    #[test]
    fn bad_specs_are_rejected() {
        let cfg = mlp_config();
        assert!(TenantRegistry::build(&cfg, 1, &[]).is_err());
        assert!(TenantRegistry::build(
            &cfg,
            1,
            &[TenantSpec {
                tenant: 0,
                weight: 0
            }]
        )
        .is_err());
        assert!(TenantRegistry::build(
            &cfg,
            1,
            &[
                TenantSpec {
                    tenant: 3,
                    weight: 1
                },
                TenantSpec {
                    tenant: 3,
                    weight: 2
                }
            ]
        )
        .is_err());
        assert!(TenantRegistry::build(
            &cfg,
            1,
            &[TenantSpec {
                tenant: MAX_TENANTS + 1,
                weight: 1
            }]
        )
        .is_err());
    }

    #[test]
    fn registry_is_deterministic_per_seed() {
        let cfg = mlp_config();
        let a = TenantRegistry::build(&cfg, 7, &TenantSpec::skewed(3)).unwrap();
        let b = TenantRegistry::build(&cfg, 7, &TenantSpec::skewed(3)).unwrap();
        for i in 0..3 {
            assert!(a.by_index(i).crypto().is_some());
            assert_eq!(a.by_index(i).crypto(), b.by_index(i).crypto());
        }
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.total_weight(), 6);
    }
}
