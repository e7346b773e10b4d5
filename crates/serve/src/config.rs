//! Server configuration: batching, admission control and the cost-model
//! knobs that tie serving throughput to the SEAL encryption schemes.

use std::time::Duration;

use seal_crypto::CounterGeometry;
use seal_faults::FaultConfig;

use crate::ServeError;

/// Configuration of a [`Server`](crate::Server).
///
/// The first block configures the *real* runtime (threads, batching,
/// admission control); the second configures the *virtual* cost model that
/// prices every realized batch's weight/feature-map traffic under the
/// memory-encryption schemes.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Zoo model to serve: `mlp`, `vgg16` or `resnet18`.
    pub model: String,
    /// Number of worker threads, each running whole batches.
    pub workers: usize,
    /// Largest batch a worker may assemble from the queue.
    pub max_batch: usize,
    /// How long a worker waits for the queue to fill a batch beyond the
    /// first request before running what it has (the batching deadline).
    pub batch_deadline: Duration,
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// [`ServeError::QueueFull`] (admission control).
    pub queue_capacity: usize,
    /// SEAL smart-encryption ratio for the `SEAL-C` scheme column (the
    /// paper's security study fixes 0.5).
    pub se_ratio: f64,
    /// Accelerator core clock in GHz (cycle domain of the cost model).
    pub clock_ghz: f64,
    /// Counter-cache capacity in KiB for the counter-mode schemes.
    pub counter_cache_kb: usize,
    /// Counter *organisation* of every lane's cache: split-counter minor
    /// width, next-line prefetch, and pinned read-only weight windows.
    /// [`CounterGeometry::classic`] reproduces the pre-locality model;
    /// the default is [`CounterGeometry::tuned`]. Threaded through
    /// [`CostModel::for_tenant`](crate::cost::CostModel::for_tenant) so
    /// each tenant's pinned window stays inside its own counter window.
    pub counter_geometry: CounterGeometry,
    /// Sustained accelerator arithmetic throughput in FLOPs per cycle,
    /// used to convert a batch's FLOPs into compute cycles.
    pub flops_per_cycle: f64,
    /// Seed for model weights (the zoo is randomly initialised but
    /// deterministic per seed).
    pub seed: u64,
    /// Intra-batch kernel threads on the shared `seal-pool` runtime
    /// (`0` = leave the pool on its `SEAL_THREADS`/auto default). This
    /// composes *under* `workers`: workers share one global kernel pool,
    /// and a worker whose batch arrives while another worker holds the
    /// pool simply runs its kernels inline — outputs are bitwise
    /// identical either way. Best-effort: the process-global pool is
    /// configured once, first caller wins.
    pub kernel_threads: usize,
    /// Per-request queueing deadline: a request that has waited longer
    /// than this when a worker picks it up is *shed* with a typed
    /// [`ServeError::DeadlineExceeded`] instead of served late.
    /// `Duration::ZERO` disables organic deadline shedding (injected
    /// deadline-bust requests are always born expired and still shed).
    pub request_deadline: Duration,
    /// Consecutive sheds that trip the circuit breaker from closed to
    /// open (admission then refused with [`ServeError::CircuitOpen`]).
    pub breaker_trip_threshold: u32,
    /// Admissions refused while open before the breaker half-opens and
    /// lets one probe request through (event-counted, not timed, so
    /// breaker traversals are reproducible).
    pub breaker_probe_interval: u32,
    /// Respawn budget per supervised worker: how many panics a worker
    /// absorbs before it is quarantined.
    pub worker_respawn_budget: u64,
    /// Fault-injection schedule; `None` serves the happy path.
    pub faults: Option<FaultConfig>,
    /// Seed of the fault plan (independent of the model/request seed so
    /// chaos schedules can vary while the workload stays fixed).
    pub fault_seed: u64,
    /// Service-time inflation applied to a batch carrying an injected
    /// slow request.
    pub chaos_slow_delay: Duration,
    /// Serve through the **int8 quantized** compiled plan
    /// ([`ServedModel::compile_plan`](crate::ServedModel::compile_plan)) and
    /// price every lane at int8 traffic (1 byte/element plus the
    /// per-channel scale sideband) instead of f32. Quantized predictions
    /// are *not* bitwise identical to the f32 path — they carry the
    /// quantization error the plan-layer accuracy gate bounds.
    pub quantized: bool,
}

impl ServerConfig {
    /// A small fast preset for smoke tests and CI: the reduced VGG-16
    /// behind two workers with gentle batching. (A CONV model, so the
    /// paper's boundary rule leaves mid-network layers selectively
    /// encrypted and the three scheme columns stay strictly ordered;
    /// an all-FC model would collapse SEAL-C into Counter.)
    pub fn smoke() -> Self {
        ServerConfig {
            model: "vgg16".into(),
            workers: 2,
            max_batch: 8,
            batch_deadline: Duration::from_micros(500),
            queue_capacity: 64,
            se_ratio: 0.5,
            clock_ghz: 1.401,
            counter_cache_kb: 96,
            counter_geometry: CounterGeometry::tuned(),
            flops_per_cycle: 512.0,
            seed: 7,
            kernel_threads: 0,
            request_deadline: Duration::ZERO,
            breaker_trip_threshold: 64,
            breaker_probe_interval: 8,
            worker_respawn_budget: 8,
            faults: None,
            fault_seed: 0,
            chaos_slow_delay: Duration::from_millis(2),
            quantized: false,
        }
    }

    /// The chaos-smoke preset: the smoke runtime on the small `mlp` model
    /// with every fault class of [`FaultConfig::chaos_smoke`] enabled.
    ///
    /// Organic deadline shedding stays off (`request_deadline == 0`) so
    /// the only sheds are the plan's born-expired deadline-bust requests —
    /// that is what makes the chaos run's fault/recovery counts a pure
    /// function of the seed. The respawn budget is sized so planned panics
    /// can never quarantine the whole pool.
    pub fn chaos_smoke(fault_seed: u64) -> Self {
        ServerConfig {
            model: "mlp".into(),
            max_batch: 4,
            batch_deadline: Duration::from_micros(200),
            faults: Some(FaultConfig::chaos_smoke()),
            fault_seed,
            worker_respawn_budget: 10_000,
            breaker_trip_threshold: 10_000,
            ..ServerConfig::smoke()
        }
    }

    /// The base runtime of the TCP front-end's smoke/chaos presets: the
    /// small `mlp` model, gentle batching, a real per-request deadline
    /// (network queues can hold requests across a drain) and a queue
    /// deep enough for windowed multi-client load. Network-specific
    /// knobs (ports, lifecycle limits) layer on top in
    /// `NetServerConfig`; this lives here so the in-process and TCP
    /// serving stacks share one source of runtime defaults.
    pub fn net_smoke() -> Self {
        ServerConfig {
            model: "mlp".into(),
            workers: 2,
            max_batch: 8,
            batch_deadline: Duration::from_micros(200),
            queue_capacity: 256,
            request_deadline: Duration::from_secs(2),
            ..ServerConfig::smoke()
        }
    }

    /// Validates every field, returning the first violation.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        let fail = |reason: String| Err(ServeError::InvalidConfig { reason });
        if self.workers == 0 {
            return fail("workers must be >= 1".into());
        }
        if self.max_batch == 0 {
            return fail("max_batch must be >= 1".into());
        }
        if self.queue_capacity == 0 {
            return fail("queue_capacity must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.se_ratio) {
            return fail(format!("se_ratio {} must be in [0, 1]", self.se_ratio));
        }
        if self.clock_ghz <= 0.0 {
            return fail(format!("clock_ghz {} must be positive", self.clock_ghz));
        }
        if self.counter_cache_kb == 0 {
            return fail("counter_cache_kb must be >= 1".into());
        }
        if let Err(e) = self.counter_geometry.validate() {
            return fail(format!("counter_geometry invalid: {e}"));
        }
        if self.flops_per_cycle <= 0.0 {
            return fail(format!(
                "flops_per_cycle {} must be positive",
                self.flops_per_cycle
            ));
        }
        if self.breaker_trip_threshold == 0 {
            return fail("breaker_trip_threshold must be >= 1".into());
        }
        if self.breaker_probe_interval == 0 {
            return fail("breaker_probe_interval must be >= 1".into());
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        Ok(())
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::smoke()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_preset_is_valid() {
        assert!(ServerConfig::smoke().validate().is_ok());
    }

    #[test]
    fn net_smoke_preset_is_valid() {
        let c = ServerConfig::net_smoke();
        assert!(c.validate().is_ok());
        assert_eq!(c.model, "mlp");
        assert!(
            c.request_deadline > Duration::ZERO,
            "net queues need a deadline"
        );
    }

    #[test]
    fn chaos_preset_is_valid_and_armed() {
        let c = ServerConfig::chaos_smoke(42);
        assert!(c.validate().is_ok());
        assert_eq!(c.fault_seed, 42);
        assert!(c.faults.expect("armed").any_enabled());
        assert_eq!(c.request_deadline, Duration::ZERO, "no organic sheds");
    }

    #[test]
    fn each_bad_field_is_rejected() {
        let ok = ServerConfig::smoke();
        for (mutate, needle) in [
            (
                Box::new(|c: &mut ServerConfig| c.workers = 0) as Box<dyn Fn(&mut ServerConfig)>,
                "workers",
            ),
            (
                Box::new(|c: &mut ServerConfig| c.max_batch = 0),
                "max_batch",
            ),
            (
                Box::new(|c: &mut ServerConfig| c.queue_capacity = 0),
                "queue_capacity",
            ),
            (
                Box::new(|c: &mut ServerConfig| c.se_ratio = 1.5),
                "se_ratio",
            ),
            (
                Box::new(|c: &mut ServerConfig| c.clock_ghz = 0.0),
                "clock_ghz",
            ),
            (
                Box::new(|c: &mut ServerConfig| c.counter_cache_kb = 0),
                "counter_cache_kb",
            ),
            (
                Box::new(|c: &mut ServerConfig| c.counter_geometry.minor_bits = 0),
                "counter_geometry",
            ),
            (
                Box::new(|c: &mut ServerConfig| c.flops_per_cycle = -1.0),
                "flops_per_cycle",
            ),
            (
                Box::new(|c: &mut ServerConfig| c.breaker_trip_threshold = 0),
                "breaker_trip_threshold",
            ),
            (
                Box::new(|c: &mut ServerConfig| c.breaker_probe_interval = 0),
                "breaker_probe_interval",
            ),
            (
                Box::new(|c: &mut ServerConfig| {
                    c.faults = Some(seal_faults::FaultConfig {
                        panic_per_mille: 800,
                        slow_per_mille: 800,
                        ..seal_faults::FaultConfig::chaos_smoke()
                    })
                }),
                "fault",
            ),
        ] {
            let mut bad = ok.clone();
            mutate(&mut bad);
            let err = bad.validate().unwrap_err().to_string();
            assert!(err.contains(needle), "{err} should mention {needle}");
        }
    }
}
