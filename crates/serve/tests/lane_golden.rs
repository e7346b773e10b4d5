//! Lane-level goldens for the virtual cost model: every field of
//! [`CostModel::summaries`] (all three lanes) plus the fault ledger after
//! a fixed mixed batch stream, recorded at the commit *before* the
//! counter cache's streaming closed form landed. A host-side change to
//! how the counter walk is computed must not move any of them.

use seal_crypto::{CounterGeometry, TenantCrypto};
use seal_nn::models::{mlp_topology, vgg16_topology, MlpConfig};
use seal_nn::NetworkTopology;
use seal_serve::{CostModel, SchemeSummary, ServerConfig};
use seal_tensor::Shape;

/// `(digest, Counter lane [makespan, hits, misses, prefetch fills])`.
type Golden = (u64, [u64; 4]);

/// `ServerConfig::smoke()` at f32 on full-size VGG-16.
const SMOKE_F32: Golden = (0x4649_b953_01ab_e260, [3_891_296_300, 3_613_098, 2, 636_500]);

/// The mixed batch stream every golden prices, repeated 25 times.
const STREAM: [usize; 8] = [8, 8, 1, 4, 8, 2, 8, 3];

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over every field of every lane row and the fault ledger.
fn digest(model: &CostModel) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in model.summaries() {
        // Exhaustive: a new field must be added to the digest.
        let SchemeSummary {
            scheme,
            batches,
            samples,
            enc_bytes,
            total_bytes,
            makespan_cycles,
            virtual_seconds,
            throughput_rps,
            counter_hit_rate,
            counter_hits,
            counter_misses,
            prefetch_hits,
            prefetch_fills,
            ro_hits,
            slowdown_vs_baseline,
        } = row;
        for v in [
            scheme as u64,
            batches,
            samples,
            enc_bytes,
            total_bytes,
            makespan_cycles,
            virtual_seconds.to_bits(),
            throughput_rps.to_bits(),
            counter_hit_rate.to_bits(),
            counter_hits,
            counter_misses,
            prefetch_hits,
            prefetch_fills,
            ro_hits,
            slowdown_vs_baseline.to_bits(),
        ] {
            fnv(&mut h, v);
        }
    }
    if let Some(f) = model.fault_stats() {
        for v in [
            f.tampers_injected,
            f.tampers_detected,
            f.silent_corruptions,
            f.stalls_injected,
            f.storms_injected,
            f.recoveries,
            f.recovery_cycles,
            f.stall_cycles,
        ] {
            fnv(&mut h, v);
        }
    }
    h
}

/// Prices the stream and returns the digest plus the Counter lane's
/// `(makespan, hits, misses, prefetch fills)` — readable anchors for
/// when the digest moves.
fn price(mut model: CostModel) -> Golden {
    for _ in 0..25 {
        for batch in STREAM {
            model.cost_batch(batch);
        }
    }
    let rows = model.summaries();
    let counter = rows.last().expect("three lanes");
    let anchors = [
        counter.makespan_cycles,
        counter.counter_hits,
        counter.counter_misses,
        counter.prefetch_fills,
    ];
    (digest(&model), anchors)
}

fn single(topo: &NetworkTopology, cfg: &ServerConfig) -> Golden {
    price(CostModel::new(topo, cfg).expect("priceable"))
}

#[test]
fn lane_summaries_match_the_pre_closed_form_walk() {
    let vgg = vgg16_topology();
    let mlp = mlp_topology(&MlpConfig::reduced(), Shape::nchw(1, 3, 8, 8)).expect("mlp topology");
    let smoke = ServerConfig::smoke();
    let quantized = ServerConfig {
        quantized: true,
        ..ServerConfig::smoke()
    };
    let classic = ServerConfig {
        counter_geometry: CounterGeometry::classic(),
        ..ServerConfig::smoke()
    };
    let chaos = ServerConfig::chaos_smoke(7);
    // (name, got, want (digest, Counter lane [makespan, hits, misses,
    // prefetch fills])) — recorded at the parent of the closed form.
    let cases: [(&str, Golden, Golden); 5] = [
        ("smoke f32", single(&vgg, &smoke), SMOKE_F32),
        (
            "smoke int8",
            single(&vgg, &quantized),
            (0x9dde_5c0a_c4bd_59bd, [1_938_833_650, 904_448, 2, 159_250]),
        ),
        (
            "classic geometry",
            single(&vgg, &classic),
            (0xcaff_ff2d_25ec_6ead, [4_601_185_900, 0, 3_613_100, 0]),
        ),
        (
            "chaos_smoke(7), vgg16",
            single(&vgg, &chaos),
            (0x143c_6b9b_0d8e_39ea, [6_756_170_150, 3_613_098, 5_602, 642_100]),
        ),
        (
            "chaos_smoke(7), mlp",
            single(&mlp, &chaos),
            (0xedd3_984f_1c57_2171, [11_119_010, 2_348, 5_602, 6_150]),
        ),
    ];
    for (name, got, want) in cases {
        assert_eq!(got, want, "{name}: ({:#018x}, {:?})", got.0, got.1);
    }
}

#[test]
fn tenant_window_lanes_match_the_pre_closed_form_walk() {
    // Eight tenants, each pricing the stream inside its own counter
    // window (pinned weights at the window base, fmaps 1 << 40 above).
    let vgg = vgg16_topology();
    let cfg = ServerConfig::smoke();
    for tenant in 0..8u32 {
        let crypto = TenantCrypto::derive(cfg.seed, tenant).expect("tenant id in range");
        let model = CostModel::for_tenant(&vgg, &cfg, &crypto).expect("priceable");
        // Windows are translations of one another: the set mapping
        // rotates, no outcome moves, so every tenant prices exactly like
        // tenant-less smoke.
        let got = price(model);
        assert_eq!(got, SMOKE_F32, "tenant {tenant}: ({:#018x}, {:?})", got.0, got.1);
    }
}
