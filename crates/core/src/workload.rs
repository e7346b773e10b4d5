//! Conversion of network layers into `seal-gpusim` workloads.
//!
//! The traffic model follows how 2011-era GPU DL stacks actually executed
//! (the paper models a GTX480 and GPGPU-Sim v3.2.2, pre-cuDNN):
//!
//! * **CONV** runs as im2col + SGEMM. The im2col buffer (`k²·C_in × OH·OW`)
//!   is materialised in DRAM, then the GEMM re-reads it once per
//!   output-channel tile. Weights stream once when their `K × tile` panel
//!   fits in L2 and twice when it spills.
//! * **POOL** is a strided streaming pass (read ifmap, write ofmap) with
//!   poor row locality (`dram_efficiency` 0.5).
//! * **FC** streams its weight matrix once.
//! * **Matrix multiply** (the Fig. 1 workload) is a classic tile-blocked
//!   SGEMM on `n × n` matrices.
//!
//! Front-end instruction budgets are calibrated so the modelled GTX480
//! reproduces the paper's observable: full memory encryption costs a
//! 1024³ matrix multiply 45–54% of its IPC (Fig. 1), CONV layers up to
//! ~40% and POOL layers up to ~50% (Figs. 5–6).

use seal_gpusim::{GpuConfig, Region, SimReport, Simulator, Workload};
use seal_nn::{LayerRole, LayerTopo, NetworkTopology};

use crate::{traffic::LayerTrafficSplit, CoreError, EncryptionPlan, Scheme};

/// GEMM tile edge (elements) used by the traffic model.
pub const GEMM_TILE: u64 = 64;
/// Modelled L2 capacity deciding whether a weight panel streams once or
/// spills (GTX480: 768 KB).
pub const L2_BYTES: u64 = 768 * 1024;

const F32: u64 = 4;
/// Address stride separating regions so they never alias.
const REGION_STRIDE: u64 = 1 << 33;

fn push_split(
    regions: &mut Vec<Region>,
    name: &str,
    base: &mut u64,
    enc_bytes: u64,
    plain_bytes: u64,
    write: bool,
    passes: f64,
) {
    for (suffix, bytes, enc) in [("enc", enc_bytes, true), ("plain", plain_bytes, false)] {
        if bytes == 0 {
            continue;
        }
        let r = if write {
            Region::write(format!("{name}_{suffix}"), *base, bytes)
        } else {
            Region::read(format!("{name}_{suffix}"), *base, bytes)
        };
        regions.push(r.encrypted(enc).passes(passes));
        *base += REGION_STRIDE;
    }
}

/// Like [`push_split`] but with the tile-blocked reuse walk a blocked GEMM
/// really performs: `tile_bytes` blocks re-read `reads` times back-to-back
/// instead of cyclic full-buffer rescans. Total traffic is identical to
/// `push_split(…, passes = reads)`; only the re-reference distance — and
/// hence the counter-cache hit rate — changes.
fn push_split_reuse(
    regions: &mut Vec<Region>,
    name: &str,
    base: &mut u64,
    enc_bytes: u64,
    plain_bytes: u64,
    tile_bytes: u64,
    reads: f64,
) {
    for (suffix, bytes, enc) in [("enc", enc_bytes, true), ("plain", plain_bytes, false)] {
        if bytes == 0 {
            continue;
        }
        let r = Region::read(format!("{name}_{suffix}"), *base, bytes)
            .encrypted(enc)
            .tiled_reuse(tile_bytes, reads);
        regions.push(r);
        *base += REGION_STRIDE;
    }
}

/// Inference batch size used by the full-network experiments (Figs. 7–8).
/// Weights stream once per batch, so batching raises the arithmetic
/// intensity of the weight-heavy deep layers exactly as it does on real
/// accelerators.
pub const DEFAULT_BATCH: usize = 4;

/// Builds the simulator workload for one network layer, given its traffic
/// split and an inference batch size.
///
/// Feature maps (and the im2col buffer) scale with the batch; weights are
/// read once per batch.
///
/// # Errors
///
/// Returns [`CoreError`] if the workload fails validation (it cannot for
/// well-formed topologies).
pub fn layer_workload(
    layer: &LayerTopo,
    split: &LayerTrafficSplit,
    batch: usize,
) -> Result<Workload, CoreError> {
    if batch == 0 {
        return Err(CoreError::InvalidPolicy {
            reason: "batch size must be positive".into(),
        });
    }
    let batch_u = batch as u64;
    let mut regions = Vec::new();
    let mut base = 0u64;
    match layer.role {
        LayerRole::Conv {
            in_channels,
            out_channels,
            kernel,
            ..
        } => {
            let m = layer.ofmap.dim(2) as u64 * layer.ofmap.dim(3) as u64;
            let k = (kernel * kernel * in_channels) as u64;
            let im2col_bytes = k * m * F32;
            let ifrac = {
                let t = split.ifmap_enc + split.ifmap_plain;
                if t == 0 {
                    0.0
                } else {
                    split.ifmap_enc as f64 / t as f64
                }
            };
            let (col_enc, col_plain) = {
                let enc = (im2col_bytes as f64 * ifrac).round() as u64;
                (enc.min(im2col_bytes), im2col_bytes - enc.min(im2col_bytes))
            };
            let read_passes = (out_channels as f64 / GEMM_TILE as f64).max(1.0);
            let panel = k * GEMM_TILE * F32;
            let weight_passes = if panel <= L2_BYTES { 1.0 } else { 2.0 };

            // The GEMM re-reads blocks at tile distance, not buffer
            // distance: each im2col column block is consumed by every
            // output-channel tile while resident, and a spilling weight
            // panel is re-fetched right after its first read.
            let panel_bytes = k * GEMM_TILE * F32;
            push_split(
                &mut regions,
                "ifmap",
                &mut base,
                split.ifmap_enc * batch_u,
                split.ifmap_plain * batch_u,
                false,
                1.0,
            );
            push_split(
                &mut regions,
                "im2col_w",
                &mut base,
                col_enc * batch_u,
                col_plain * batch_u,
                true,
                1.0,
            );
            push_split_reuse(
                &mut regions,
                "im2col_r",
                &mut base,
                col_enc * batch_u,
                col_plain * batch_u,
                panel_bytes,
                read_passes,
            );
            push_split_reuse(
                &mut regions,
                "weights",
                &mut base,
                split.weight_enc,
                split.weight_plain,
                panel_bytes,
                weight_passes,
            );
            push_split(
                &mut regions,
                "ofmap",
                &mut base,
                split.ofmap_enc * batch_u,
                split.ofmap_plain * batch_u,
                true,
                1.0,
            );

            Ok(Workload::builder(layer.name.clone())
                .instructions(layer.flops() * batch_u)
                .frontend_efficiency(0.85)
                .dram_efficiency(0.80)
                .regions_from(regions)
                .build()?)
        }
        LayerRole::Pool { .. } => {
            push_split(
                &mut regions,
                "ifmap",
                &mut base,
                split.ifmap_enc * batch_u,
                split.ifmap_plain * batch_u,
                false,
                1.0,
            );
            push_split(
                &mut regions,
                "ofmap",
                &mut base,
                split.ofmap_enc * batch_u,
                split.ofmap_plain * batch_u,
                true,
                1.0,
            );
            Ok(Workload::builder(layer.name.clone())
                // Pooling is pure data movement: a handful of compare/index
                // instructions per element.
                .instructions(layer.flops() * 4 * batch_u)
                .frontend_efficiency(0.85)
                .dram_efficiency(0.50)
                .regions_from(regions)
                .build()?)
        }
        LayerRole::Fc { .. } => {
            push_split(
                &mut regions,
                "weights",
                &mut base,
                split.weight_enc,
                split.weight_plain,
                false,
                1.0,
            );
            push_split(
                &mut regions,
                "ifmap",
                &mut base,
                split.ifmap_enc * batch_u,
                split.ifmap_plain * batch_u,
                false,
                1.0,
            );
            push_split(
                &mut regions,
                "ofmap",
                &mut base,
                split.ofmap_enc * batch_u,
                split.ofmap_plain * batch_u,
                true,
                1.0,
            );
            Ok(Workload::builder(layer.name.clone())
                .instructions(layer.flops() * batch_u)
                .frontend_efficiency(0.85)
                .dram_efficiency(0.80)
                .regions_from(regions)
                .build()?)
        }
    }
}

/// Builds workloads for every layer of a network under a scheme.
///
/// # Errors
///
/// Returns [`CoreError::PlanMismatch`] if plan and topology disagree.
pub fn network_workloads(
    topo: &NetworkTopology,
    plan: &EncryptionPlan,
    scheme: Scheme,
    batch: usize,
) -> Result<Vec<Workload>, CoreError> {
    let splits = crate::traffic::network_traffic(topo, plan, scheme)?;
    topo.layers()
        .iter()
        .zip(&splits)
        .map(|(l, s)| layer_workload(l, s, batch))
        .collect()
}

/// The Fig. 1 workload: a tile-blocked `n × n` f32 matrix multiply
/// (`C = A·B`), fully encrypted or fully plain.
///
/// # Errors
///
/// Returns [`CoreError`] for `n` smaller than one tile.
pub fn matmul_workload(n: u64, encrypted: bool) -> Result<Workload, CoreError> {
    if n < GEMM_TILE {
        return Err(CoreError::InvalidPolicy {
            reason: format!("matmul needs n ≥ {GEMM_TILE}, got {n}"),
        });
    }
    let row_bytes = n * F32;
    let mat_bytes = n * row_bytes;
    // Rectangular 40×64 SGEMM tiles (a Fermi-era register/shared-memory
    // blocking): A (M×K) is re-read once per N-tile, B (K×N) once per
    // M-tile. 64-element column slices are exact multiples of the 128-byte
    // line, so the walk fetches no partial lines.
    let (tile_m, tile_n) = (40u64, 64u64);
    let a = Region::read("a", 0, mat_bytes).encrypted(encrypted).tiled(
        n,
        row_bytes,
        tile_n,
        tile_n * F32,
        n as f64 / tile_n as f64,
    );
    let b = Region::read("b", REGION_STRIDE, mat_bytes)
        .encrypted(encrypted)
        .tiled(n, row_bytes, tile_m, tile_n * F32, n as f64 / tile_m as f64);
    let c = Region::write("c", 2 * REGION_STRIDE, mat_bytes).encrypted(encrypted);
    Ok(Workload::builder(format!("matmul{n}"))
        .instructions(2 * n * n * n)
        .frontend_efficiency(0.85)
        .dram_efficiency(0.85)
        .region(a)
        .region(b)
        .region(c)
        .build()?)
}

/// Aggregate result of simulating every layer of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSimResult {
    /// Per-layer reports, in execution order.
    pub per_layer: Vec<SimReport>,
}

impl NetworkSimResult {
    /// Total cycles across all layers (layers execute sequentially).
    pub fn total_cycles(&self) -> f64 {
        self.per_layer.iter().map(|r| r.cycles).sum()
    }

    /// Total front-end instructions.
    pub fn total_instructions(&self) -> u64 {
        self.per_layer.iter().map(|r| r.instructions).sum()
    }

    /// Overall IPC (total instructions over total cycles) — the Fig. 7
    /// metric.
    pub fn overall_ipc(&self) -> f64 {
        let c = self.total_cycles();
        if c <= 0.0 {
            0.0
        } else {
            self.total_instructions() as f64 / c
        }
    }

    /// End-to-end inference latency in milliseconds — the Fig. 8 metric.
    pub fn latency_ms(&self, clock_ghz: f64) -> f64 {
        self.total_cycles() / (clock_ghz * 1e9) * 1e3
    }

    /// Aggregate counter-cache hit rate across every layer and memory
    /// controller (0.0 when no counter was ever consulted) — the Fig. 6–8
    /// capacity-sensitivity metric.
    pub fn counter_hit_rate(&self) -> f64 {
        let mut hits = 0u64;
        let mut misses = 0u64;
        for layer in &self.per_layer {
            for mc in &layer.per_mc {
                hits += mc.counter_hits;
                misses += mc.counter_misses;
            }
        }
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

/// Simulates one full network inference at [`DEFAULT_BATCH`].
///
/// # Errors
///
/// Propagates plan and simulator errors.
pub fn simulate_network(
    config: &GpuConfig,
    topo: &NetworkTopology,
    plan: &EncryptionPlan,
    scheme: Scheme,
) -> Result<NetworkSimResult, CoreError> {
    simulate_network_batched(config, topo, plan, scheme, DEFAULT_BATCH)
}

/// Simulates one full network inference at an explicit batch size.
///
/// # Errors
///
/// Propagates plan and simulator errors.
pub fn simulate_network_batched(
    config: &GpuConfig,
    topo: &NetworkTopology,
    plan: &EncryptionPlan,
    scheme: Scheme,
    batch: usize,
) -> Result<NetworkSimResult, CoreError> {
    let sim = Simulator::new(config.clone(), scheme.mode())?;
    let per_layer = network_workloads(topo, plan, scheme, batch)?
        .iter()
        .map(|wl| sim.run(wl))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(NetworkSimResult { per_layer })
}

/// Extension trait adding bulk region insertion to the workload builder.
trait RegionsFrom {
    fn regions_from(self, regions: Vec<Region>) -> Self;
}

impl RegionsFrom for seal_gpusim::WorkloadBuilder {
    fn regions_from(mut self, regions: Vec<Region>) -> Self {
        for r in regions {
            self = self.region(r);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SePolicy;
    use seal_gpusim::EncryptionMode;
    use seal_nn::models::vgg16_topology;

    #[test]
    fn matmul_reproduces_paper_ipc_drop() {
        // Fig. 1a: memory encryption costs the 1024³ matmul 45–54% IPC.
        let cfg = GpuConfig::gtx480();
        let plain = matmul_workload(1024, false).unwrap();
        let enc = matmul_workload(1024, true).unwrap();
        let base = Simulator::new(cfg.clone(), EncryptionMode::None)
            .unwrap()
            .run(&plain)
            .unwrap();
        let direct = Simulator::new(cfg, EncryptionMode::Direct)
            .unwrap()
            .run(&enc)
            .unwrap();
        let drop = 1.0 - direct.ipc() / base.ipc();
        assert!(
            (0.35..=0.60).contains(&drop),
            "matmul IPC drop {drop:.2} outside the paper's 45–54% band"
        );
        // Baseline IPC in the high hundreds, like GPGPU-Sim's Fig. 1a.
        assert!((500.0..1000.0).contains(&base.ipc()), "{}", base.ipc());
    }

    #[test]
    fn conv_layer_drop_is_moderate() {
        // Fig. 5: Direct/Counter cost CONV layers up to ~40%.
        let topo = vgg16_topology();
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let cfg = GpuConfig::gtx480();
        let base = simulate_network(&cfg, &topo, &plan, Scheme::Baseline).unwrap();
        let direct = simulate_network(&cfg, &topo, &plan, Scheme::Direct).unwrap();
        // Compare one mid CONV layer.
        let i = topo
            .layers()
            .iter()
            .position(|l| l.name == "conv2_1")
            .unwrap();
        let drop = 1.0 - direct.per_layer[i].ipc() / base.per_layer[i].ipc();
        assert!((0.10..=0.60).contains(&drop), "conv drop {drop:.2}");
    }

    #[test]
    fn seal_recovers_ipc_over_direct() {
        let topo = vgg16_topology();
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let cfg = GpuConfig::gtx480();
        let direct = simulate_network(&cfg, &topo, &plan, Scheme::Direct).unwrap();
        let seal = simulate_network(&cfg, &topo, &plan, Scheme::SealDirect).unwrap();
        let speedup = seal.overall_ipc() / direct.overall_ipc();
        assert!(speedup > 1.1, "SEAL-D must beat Direct; got ×{speedup:.2}");
        let baseline = simulate_network(&cfg, &topo, &plan, Scheme::Baseline).unwrap();
        assert!(seal.overall_ipc() <= baseline.overall_ipc() * 1.001);
    }

    #[test]
    fn pool_layers_suffer_more_than_conv() {
        // Fig. 6 vs Fig. 5: POOL is more bandwidth-bound.
        let topo = vgg16_topology();
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let cfg = GpuConfig::gtx480();
        let base = simulate_network(&cfg, &topo, &plan, Scheme::Baseline).unwrap();
        let direct = simulate_network(&cfg, &topo, &plan, Scheme::Direct).unwrap();
        let drop_at = |name: &str| {
            let i = topo.layers().iter().position(|l| l.name == name).unwrap();
            1.0 - direct.per_layer[i].ipc() / base.per_layer[i].ipc()
        };
        assert!(
            drop_at("pool1") > drop_at("conv2_1"),
            "pool {} vs conv {}",
            drop_at("pool1"),
            drop_at("conv2_1")
        );
    }

    #[test]
    fn latency_orderings_match_fig8() {
        let topo = vgg16_topology();
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let cfg = GpuConfig::gtx480();
        let base = simulate_network(&cfg, &topo, &plan, Scheme::Baseline).unwrap();
        let direct = simulate_network(&cfg, &topo, &plan, Scheme::Direct).unwrap();
        let seal = simulate_network(&cfg, &topo, &plan, Scheme::SealDirect).unwrap();
        let clock = cfg.core_clock_ghz;
        assert!(base.latency_ms(clock) < seal.latency_ms(clock));
        assert!(seal.latency_ms(clock) < direct.latency_ms(clock));
    }

    #[test]
    fn matmul_too_small_rejected() {
        assert!(matmul_workload(16, true).is_err());
    }

    #[test]
    fn workload_traffic_matches_split_totals() {
        let topo = vgg16_topology();
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let splits = crate::traffic::network_traffic(&topo, &plan, Scheme::SealDirect).unwrap();
        let layer = &topo.layers()[0];
        let wl = layer_workload(layer, &splits[0], 1).unwrap();
        // Workload traffic ≥ raw layer bytes (im2col amplification).
        assert!(wl.traffic_bytes() >= splits[0].total_bytes());
    }
}

#[cfg(test)]
mod capacity_sweep {
    //! Fig. 6–8 sensitivity validation: with locality-aware (tile-reuse)
    //! traces, the modelled counter-cache hit rate is monotone in
    //! capacity and saturates by 1536 KB, like the paper's sweeps.

    use super::*;
    use crate::SePolicy;
    use seal_nn::models::vgg16_topology;

    #[test]
    fn counter_hit_rate_is_monotone_in_capacity_and_saturates_by_1536kb() {
        let topo = vgg16_topology();
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let mut rates = Vec::new();
        for kb in [24usize, 96, 384, 1536] {
            let cfg = GpuConfig::gtx480().with_counter_cache_kb(kb);
            let r = simulate_network_batched(&cfg, &topo, &plan, Scheme::Counter, 1).unwrap();
            rates.push((kb, r.counter_hit_rate()));
        }
        for pair in rates.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1 - 1e-12,
                "hit rate must be monotone in capacity: {rates:?}"
            );
        }
        let (first, last) = (rates[0].1, rates[rates.len() - 1].1);
        assert!(last > first + 0.05, "capacity must matter: {rates:?}");
        assert!(last > 0.85, "1536 KB must be warm: {rates:?}");
        // Saturation: 384 KB already covers the reuse tiles, so the last
        // two points coincide.
        assert!(
            (rates[3].1 - rates[2].1).abs() < 0.005,
            "sweep must saturate by 1536 KB: {rates:?}"
        );
    }
}
