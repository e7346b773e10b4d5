//! Compile-only guard for the stand-alone `benchmark/` package.
//!
//! `benchmark/src/replay.rs` lives outside this workspace (its own
//! `[workspace]`), so `scripts/check.sh` never compiles it — but it calls
//! the `seal_tensor::ops` items below by name and matches `KernelMode`
//! exhaustively on its four variants. Each is pinned here with the exact
//! signature the benchmark relies on, so renaming one, changing its
//! arguments or adding a kernel mode fails in this workspace's build
//! rather than in the benchmark pipeline.
//!
//! `benchmark/src/sim.rs` and the crypto replays do the same with
//! `seal-gpusim`, `seal-crypto` and `seal-core`: the second test pins the
//! constructors, methods and public field names they use.
//!
//! `benchmark/src/{serve,net,replay}.rs` drive the serving stack through
//! the `seal_serve` facade; the third test pins every item, signature and
//! public field they touch.

use seal_core::workload::{network_workloads, DEFAULT_BATCH};
use seal_core::{CoreError, EncryptionPlan, Scheme};
use seal_crypto::{
    CounterCache, CounterCacheConfig, CounterCacheStats, CounterGeometry, CryptoError,
    EnginePipeline, EngineSpec, ReadOnlyRegion, RunOutcome, MAX_READ_ONLY_REGIONS,
};
use seal_gpusim::{EncryptionMode, GpuConfig, McReport, SimError, SimReport, Simulator, Workload};
use seal_net::reactor::ReactorStats;
use seal_nn::{CompiledModel, NetworkTopology, Sequential};
use seal_serve::{
    BatchStats, BoundedQueue, CostModel, FairBatch, FairQueue, NetServer, NetServerConfig,
    NetStats, PushRefused, QueueDepthStats, Response, ResponseHandle, SchemeSummary, ServeError,
    ServeStats, ServedModel, Server, ServerConfig, TenantRegistry, TenantSpec, TenantState,
};
use seal_tensor::ops::{
    conv2d_infer_packed, gather_patches_u8, gemm_i8, gemm_prepacked, kernel_mode, quantize_rows_u8,
    quantized_row_len, ConvPlanDims, Im2colGather, KernelMode, PackedB, PackedBI8, PatchGather,
};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::{Shape, Tensor, TensorError};
use std::sync::Mutex;
use std::time::Duration;

#[test]
fn the_names_and_signatures_the_benchmark_uses_still_exist() {
    #[allow(clippy::type_complexity)]
    let _: fn(
        &[f32],
        usize,
        &ConvPlanDims,
        &Im2colGather,
        &[f32],
        &[f32],
        &mut [f32],
        bool,
        KernelMode,
    ) -> Result<(), TensorError> = conv2d_infer_packed;
    let _: fn(&[f32], &PackedB, &mut [f32], usize, KernelMode, bool) = gemm_prepacked;
    let _: fn(&[u8], &PackedBI8, &mut [i32], usize, KernelMode) = gemm_i8;
    let _: fn(&[u8], &PatchGather, &mut [u8]) = gather_patches_u8;
    let _: fn(&[f32], usize, usize, &mut [u8], &mut [f32]) = quantize_rows_u8;
    let _: fn(usize) -> usize = quantized_row_len;
    let _: fn() -> KernelMode = kernel_mode;
    let _: fn(&ConvPlanDims) -> Im2colGather = Im2colGather::compile;
    let _: fn(&ConvPlanDims) -> PatchGather = PatchGather::compile;
    let _: fn(&PatchGather) -> usize = PatchGather::spatial;
    let _: fn(&[f32], usize, usize) -> PackedB = PackedB::from_slice;
    let _: fn(&[f32], usize, usize) -> Result<PackedBI8, TensorError> = PackedBI8::pack_conv;
    // No wildcard arm: a fifth variant must break this match, as it
    // would break `benchmark/src/replay.rs::kernel_mode_code`.
    match kernel_mode() {
        KernelMode::Scalar | KernelMode::Avx2 | KernelMode::Fma | KernelMode::Avx512 => {}
    }
}

#[test]
fn the_simulator_and_crypto_items_the_benchmark_uses_still_exist() {
    // `benchmark/src/sim.rs`: one `Simulator::run` per op.
    let _: fn(GpuConfig, EncryptionMode) -> Result<Simulator, SimError> = Simulator::new;
    let _: fn(&Simulator, &Workload) -> Result<SimReport, SimError> = Simulator::run;
    let _: fn(&Scheme) -> EncryptionMode = Scheme::mode;
    let _: fn(&Workload) -> &str = Workload::name;
    let _: fn(&Workload) -> u64 = Workload::traffic_bytes;
    #[allow(clippy::type_complexity)]
    let _: fn(
        &NetworkTopology,
        &EncryptionPlan,
        Scheme,
        usize,
    ) -> Result<Vec<Workload>, CoreError> = network_workloads;
    let _: usize = DEFAULT_BATCH;
    // Its checksum and totals read every report field by name; the
    // exhaustive patterns break when one is renamed, removed or added.
    let SimReport {
        workload: _,
        mode: _,
        cycles: _,
        instructions: _,
        requests: _,
        traffic_bytes: _,
        encrypted_bytes: _,
        per_mc,
    } = SimReport {
        workload: String::new(),
        mode: EncryptionMode::None,
        cycles: 0.0f64,
        instructions: 0u64,
        requests: 0u64,
        traffic_bytes: 0u64,
        encrypted_bytes: 0u64,
        per_mc: vec![McReport {
            lines: 0u64,
            encrypted_lines: 0u64,
            dram_busy: 0.0f64,
            engine_busy: 0.0f64,
            extra_counter_lines: 0u64,
            counter_hits: 0u64,
            counter_misses: 0u64,
        }],
    };
    let McReport {
        lines: _,
        encrypted_lines: _,
        dram_busy: _,
        engine_busy: _,
        extra_counter_lines: _,
        counter_hits: _,
        counter_misses: _,
    } = per_mc[0];
    // No wildcard arm and a fixed length: it indexes per-scheme arrays by
    // position in `Scheme::ALL`.
    const _: () = assert!(Scheme::ALL.len() == 5);
    for scheme in Scheme::ALL {
        match scheme {
            Scheme::Baseline
            | Scheme::Direct
            | Scheme::Counter
            | Scheme::SealDirect
            | Scheme::SealCounter => {}
        }
    }

    // It builds the per-controller slice by struct update from
    // `GpuConfig::counter_cache`, so every field must stay public.
    let gpu = GpuConfig::gtx480();
    let _: (usize, u64, f64) = (gpu.num_channels, gpu.line_bytes, gpu.core_clock_ghz);
    let slice = CounterCacheConfig {
        capacity_bytes: gpu.counter_cache.capacity_bytes / gpu.num_channels,
        ..gpu.counter_cache
    };
    let CounterCacheConfig {
        capacity_bytes: _,
        line_bytes: _,
        ways: _,
        coverage_bytes: _,
        prefetch: _,
        read_only: _,
    } = slice;
    let _: [Option<ReadOnlyRegion>; MAX_READ_ONLY_REGIONS] = slice.read_only;

    // `benchmark/src/replay.rs`: the counter-cache and engine replays.
    let _: fn(CounterCacheConfig) -> Result<CounterCache, CryptoError> = CounterCache::new;
    let _: fn(&mut CounterCache, u64) -> bool = CounterCache::access;
    let _: fn(&mut CounterCache, u64, u64) -> RunOutcome = CounterCache::access_run;
    let _: fn(&CounterCache) -> CounterCacheStats = CounterCache::stats;
    let _: fn(usize) -> CounterCacheConfig = CounterCacheConfig::with_kilobytes;
    let _: fn(CounterCacheConfig, u64, u64) -> Result<CounterCacheConfig, CryptoError> =
        CounterCacheConfig::with_read_only_region;
    let _: fn(&CounterGeometry, usize) -> CounterCacheConfig = CounterGeometry::cache_config;
    let _: bool = CounterGeometry::tuned().read_only_weights;
    let _: fn(EngineSpec, f64) -> Result<EnginePipeline, CryptoError> = EnginePipeline::new;
    let _: fn(&mut EnginePipeline, u64, u64) -> u64 = EnginePipeline::submit;
    let _: fn() -> EngineSpec = EngineSpec::seal_default;
}

#[test]
#[allow(clippy::type_complexity)]
fn the_serving_facade_the_benchmark_uses_still_exists() {
    // `benchmark/src/serve.rs`: the in-process server under lock-step load.
    let _: fn(ServerConfig) -> Result<Server, ServeError> = Server::start;
    let _: fn(&Server, Tensor) -> Result<ResponseHandle, ServeError> = Server::submit;
    let _: fn(Server) -> Result<ServeStats, ServeError> = Server::shutdown;
    let _: fn(&ResponseHandle) -> u64 = ResponseHandle::id;
    let _: fn(ResponseHandle) -> Result<Response, ServeError> = ResponseHandle::wait;
    let _: fn(ResponseHandle, Duration) -> Result<Response, ServeError> =
        ResponseHandle::wait_timeout;
    // It verifies every answer field by field.
    let Response {
        id: _,
        prediction: _,
        batch_size: _,
        queue_wait: _,
        latency: _,
    } = Response {
        id: 0u64,
        prediction: 0usize,
        batch_size: 0usize,
        queue_wait: Duration::ZERO,
        latency: Duration::ZERO,
    };
    // Type-checked, never called: the `ServeStats` fields it reads.
    fn _serve_stats(stats: ServeStats) {
        let _: BatchStats = stats.batches;
        let _: f64 = stats.batches.mean();
        let _: QueueDepthStats = stats.queue_depth;
        let _: f64 = stats.queue_depth.mean();
        let _: Vec<SchemeSummary> = stats.schemes;
        let _: (u64, u64, u64) = (stats.shed, stats.panicked, stats.drained);
        let _: Vec<ServeError> = stats.worker_errors;
    }
    // `..ServerConfig::smoke()` under the six fields it sets, plus what
    // its tests and `replay.rs::Lanes::metrics` read back.
    let cfg = ServerConfig {
        workers: 1usize,
        kernel_threads: 1usize,
        max_batch: 8usize,
        queue_capacity: 64usize,
        batch_deadline: Duration::from_millis(100),
        quantized: false,
        ..ServerConfig::smoke()
    };
    let _: fn(&ServerConfig) -> Result<(), ServeError> = ServerConfig::validate;
    let _: (&str, u64, f64, usize) = (
        cfg.model.as_str(),
        cfg.seed,
        cfg.clock_ghz,
        cfg.counter_cache_kb,
    );
    let _: CounterGeometry = cfg.counter_geometry;

    let _: fn(usize) -> BoundedQueue<u64> = BoundedQueue::new;
    let _: fn(&BoundedQueue<u64>, u64) -> Result<(), (u64, PushRefused)> = BoundedQueue::try_push;
    let _: fn(&BoundedQueue<u64>, usize, Duration) -> Option<Vec<u64>> = BoundedQueue::pop_batch;

    let _: fn(&NetworkTopology, &ServerConfig) -> Result<CostModel, ServeError> = CostModel::new;
    let _: fn(&mut CostModel, usize) = CostModel::cost_batch;

    let _: fn(&str, u64) -> Result<ServedModel, ServeError> = ServedModel::load;
    let _: fn(&ServedModel, &mut StdRng) -> Tensor = ServedModel::sample;
    let _: fn(&ServedModel, &[&Tensor]) -> Result<Tensor, ServeError> = ServedModel::concat_batch;
    let _: fn(&ServedModel, usize, bool) -> Result<CompiledModel, ServeError> =
        ServedModel::compile_plan;
    let _: fn(&ServedModel) -> &NetworkTopology = ServedModel::topology;
    let _: fn(&ServedModel) -> &Sequential = ServedModel::model;
    let _: fn(&ServedModel) -> &Shape = ServedModel::input_shape;

    // `benchmark/src/net.rs`: the TCP server and the tenant registry.
    let _: fn(NetServerConfig) -> Result<NetServer, ServeError> = NetServer::start;
    let _: fn(&NetServer) -> u16 = NetServer::port;
    let _: fn(NetServer) -> Result<NetStats, ServeError> = NetServer::shutdown;
    let net: NetServerConfig = NetServerConfig::smoke(8u32);
    let _: (&ServerConfig, &Vec<TenantSpec>, u64, u64, usize) = (
        &net.base,
        &net.tenants,
        net.master_seed,
        net.quantum,
        net.max_pipeline,
    );
    fn _net_stats(stats: NetStats) {
        let _: Vec<(u32, u64, u64, u64, u64, u64)> = stats.tenants;
        let _: ReactorStats = stats.reactor;
        let _: u64 = stats.drained;
        let _: Vec<ServeError> = stats.worker_errors;
        let _: Vec<SchemeSummary> = stats.schemes;
    }
    let _: fn(&ServerConfig, u64, &[TenantSpec]) -> Result<TenantRegistry, ServeError> =
        TenantRegistry::build;
    let _: fn(&TenantRegistry) -> usize = TenantRegistry::len;
    let _: fn(&TenantRegistry) -> &[TenantState] = TenantRegistry::all;
    let _: fn(&TenantRegistry) -> Vec<(u32, u32)> = TenantRegistry::weights;
    let _: fn(&TenantRegistry, u32) -> Option<usize> = TenantRegistry::index_of;
    let _: fn(&TenantRegistry, usize) -> &TenantState = TenantRegistry::by_index;
    let _: fn(&TenantState) -> &ServedModel = TenantState::model;
    let _: fn(&TenantState) -> TenantSpec = TenantState::spec;
    // It prices a batch through the tenant's own mutex, as the worker does.
    fn _tenant_cost(tenant: &TenantState) -> &Mutex<CostModel> {
        &tenant.cost
    }
    let _: fn(u32) -> Vec<TenantSpec> = TenantSpec::skewed;
    let TenantSpec {
        tenant: _,
        weight: _,
    } = TenantSpec {
        tenant: 0u32,
        weight: 1u32,
    };
    let _: fn(&[(u32, u32)], usize, u64) -> FairQueue<u64> = FairQueue::new;
    let _: fn(&FairQueue<u64>, usize, u64) -> Result<(), (u64, PushRefused)> = FairQueue::try_push;
    let _: fn(&FairQueue<u64>, usize, Duration) -> Option<FairBatch<u64>> = FairQueue::pop_batch;
    let _: fn(&FairQueue<u64>) -> bool = FairQueue::is_empty;

    // `benchmark/src/replay.rs::Lanes`: every lane row field, so a rename
    // or a new field breaks here.
    fn _lane_row(row: SchemeSummary) {
        let SchemeSummary {
            scheme,
            batches: _,
            samples: _,
            enc_bytes: _,
            total_bytes: _,
            makespan_cycles: _,
            virtual_seconds: _,
            throughput_rps: _,
            counter_hit_rate: _,
            counter_hits: _,
            counter_misses: _,
            prefetch_hits: _,
            prefetch_fills: _,
            ro_hits: _,
            slowdown_vs_baseline: _,
        } = row;
        let _: Scheme = scheme;
    }
}
