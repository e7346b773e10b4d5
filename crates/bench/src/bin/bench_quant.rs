//! Quantized-inference perf + lane-economics trajectory, written to
//! `results/BENCH_quant.json`.
//!
//! Run via `scripts/bench_quant.sh` (or directly:
//! `cargo run --release -p seal-bench --bin bench_quant`).
//!
//! Two claims, measured on this machine:
//!
//! 1. **Kernel**: the int8 GEMM (`gemm_i8`, including the per-call
//!    activation quantization the compiled plan pays in steady state)
//!    beats the blocked f32 GEMM by ≥ 2× in its best available kernel
//!    mode — VNNI `vpdpbusd` where the host has it, AVX2 `vpmaddwd`
//!    otherwise. Every mode's time is recorded so the dispatch trajectory
//!    is visible, each beside the micro-kernel it dispatched
//!    (`scalar|avx2|vnni`). Next to the 256³ row sits one row per conv/FC
//!    GEMM of the served reduced VGG-16 at batch 8, run the way the
//!    compiled plan runs it in the default kernel mode — so the headline
//!    ratio can never again be for a kernel the server does not call. A
//!    conv row also times what ISSUE 25 replaced: the old run-copy patch
//!    gather (`gather_ns`, next to `int8_ns`, the GEMM over its patch
//!    matrix) against the one implicit-GEMM call that reads the padded
//!    image in place (`implicit_ns`).
//!    Correctness (bit-exactness across modes and threads) is proved by
//!    the determinism suite, not here.
//! 2. **Lanes**: pricing the reduced VGG-16 at int8 instead of f32
//!    shrinks every SEAL cost-model lane's encrypted bytes ~4× and its
//!    makespan accordingly — the serving-side payoff of quantization in
//!    the paper's encryption-cost domain.

use std::io::Write as _;

use seal_bench::timing::measure_ns;
use seal_nn::layers::{Conv2d, Linear};
use seal_nn::models::{vgg16, vgg16_topology, VggConfig};
use seal_pool::{with_pool, Pool};
use seal_serve::{CostModel, ServerConfig, COSTED_SCHEMES};
use seal_tensor::ops::{
    gemm_i8, gemm_i8_conv, gemm_prepacked, i8_kernel_name, kernel_mode, matmul, quantize_rows_u8,
    quantized_row_len, reset_kernel_mode, set_kernel_mode, ConvPlanDims, ImplicitConv, KernelMode,
    NhwcImage, PackedB, PackedBI8, PATCH_SLACK,
};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::{uniform, Shape};

const M: usize = 256;
const K: usize = 256;
const N: usize = 256;

struct ModeTime {
    mode: KernelMode,
    ns: f64,
}

struct GemmBench {
    f32_ns: f64,
    /// Per-call activation quantization (`quantize_rows_u8`), the
    /// steady-state cost a compiled plan pays before each int8 GEMM.
    /// Elementwise and mode-independent, so timed once.
    quantize_ns: f64,
    int8: Vec<ModeTime>,
}

impl GemmBench {
    fn ops(&self) -> f64 {
        2.0 * (M * K * N) as f64
    }
    fn int8_best(&self) -> &ModeTime {
        self.int8
            .iter()
            .min_by(|a, b| a.ns.partial_cmp(&b.ns).expect("times are finite"))
            .expect("scalar mode always present")
    }
    /// The kernel claim: pure int8 GEMM over pure f32 blocked GEMM.
    fn int8_best_x_f32(&self) -> f64 {
        self.f32_ns / self.int8_best().ns
    }
    /// The steady-state claim: int8 GEMM *plus* per-call activation
    /// quantization over the f32 GEMM (which needs no quantization).
    fn int8_steady_x_f32(&self) -> f64 {
        self.f32_ns / (self.int8_best().ns + self.quantize_ns)
    }
}

fn bench_gemm(threads: usize) -> GemmBench {
    let mut rng = StdRng::seed_from_u64(91);
    let a = uniform(&mut rng, Shape::matrix(M, K), -1.0, 1.0);
    let b = uniform(&mut rng, Shape::matrix(K, N), -1.0, 1.0);
    let packed = PackedBI8::pack(&b).expect("K is far below MAX_QGEMM_K");
    let mut qa = vec![0u8; M * quantized_row_len(K)];
    let mut scales = vec![0.0f32; M];
    let mut acc = vec![0i32; M * N];

    let pool = Pool::new(threads);
    reset_kernel_mode();
    let f32_ns = with_pool(&pool, || {
        measure_ns(|| std::hint::black_box(matmul(&a, &b).expect("shapes are valid")))
    });

    let quantize_ns = measure_ns(|| {
        quantize_rows_u8(a.as_slice(), M, K, &mut qa, &mut scales);
        std::hint::black_box(scales[0]);
    });

    let mut int8 = Vec::new();
    for mode in [KernelMode::Scalar, KernelMode::Avx2, KernelMode::Avx512] {
        if set_kernel_mode(mode) != mode {
            continue; // not available on this host
        }
        let ns = with_pool(&pool, || {
            measure_ns(|| {
                gemm_i8(&qa, &packed, &mut acc, M, mode);
                std::hint::black_box(acc[0]);
            })
        });
        int8.push(ModeTime { mode, ns });
    }
    reset_kernel_mode();
    GemmBench {
        f32_ns,
        quantize_ns,
        int8,
    }
}

/// Batch the served-shape rows run at (the serving smoke's `max_batch`).
const SERVED_BATCH: usize = 8;

/// One GEMM of the served reduced VGG-16, timed at [`SERVED_BATCH`] the
/// way the compiled plan issues it.
struct ServedShape {
    layer: String,
    /// Output channels (conv) or output features (FC).
    c_out: usize,
    /// Reduction depth: `c_in·k·k` (conv) or input features (FC).
    kdim: usize,
    /// Output positions per image (`1` for FC).
    s: usize,
    f32_ns: f64,
    int8_ns: f64,
    /// The old run-copy patch gather of the batch (conv rows; 0 for FC).
    gather_ns: f64,
    /// The plan's int8 call(s) today: the implicit-GEMM conv over the
    /// padded images, which replaces gather + GEMM (FC: `int8_ns`).
    implicit_ns: f64,
}

/// The run-copy patch gather the int8 plan ran before its convolutions
/// read the image in place (PRs 19–24, `gather_patches_nhwc`), kept only
/// to time what the implicit conv removed: per output pixel, `k` runs of
/// `k·c_in` padded-image bytes into one row of the `[oh·ow × ka]` patch
/// matrix, each run copied as `BLOCKS` whole 16-byte blocks (`0`: at its
/// exact width) that overshoot into the next run or the buffers'
/// `PATCH_SLACK`, then the quad tail set to 128.
fn gather_runs<const BLOCKS: usize>(img: &[u8], dims: &ConvPlanDims, out: &mut [u8]) {
    let (k, stride, c_in) = (dims.geom.kernel, dims.geom.stride, dims.c_in);
    let (run, row_bytes) = (k * c_in, (dims.w + 2 * dims.geom.padding) * c_in);
    let ka = quantized_row_len(k * run);
    let width = if BLOCKS == 0 {
        run
    } else {
        BLOCKS * PATCH_SLACK
    };
    for p in 0..dims.oh * dims.ow {
        let field = (p / dims.ow) * stride * row_bytes + (p % dims.ow) * stride * c_in;
        for ky in 0..k {
            let src = &img[field + ky * row_bytes..][..width];
            out[p * ka + ky * run..][..width].copy_from_slice(src);
        }
        out[p * ka + k * run..][..ka - k * run].fill(128);
    }
}

/// [`gather_runs`] with the block count the deleted gather picked.
fn gather_patches(img: &[u8], dims: &ConvPlanDims, out: &mut [u8]) {
    match (dims.geom.kernel * dims.c_in).div_ceil(PATCH_SLACK) {
        1 => gather_runs::<1>(img, dims, out),
        2 => gather_runs::<2>(img, dims, out),
        3 => gather_runs::<3>(img, dims, out),
        _ => gather_runs::<0>(img, dims, out),
    }
}

/// Times one conv layer's batch the way the int8 plan ran it before and
/// after ISSUE 25: `(gather_ns, implicit_ns)` — the run-copy gather of
/// every image (the GEMM over its patches is `time_pair`'s `int8_ns`),
/// and the implicit-GEMM conv over the stacked padded images, one call
/// per image or one for the batch when the shape folds.
fn time_conv_i8(dims: &ConvPlanDims) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(93);
    let mode = kernel_mode();
    let (img, s) = (NhwcImage::for_conv(dims), dims.oh * dims.ow);
    let kdim = dims.c_in * dims.geom.kernel * dims.geom.kernel;
    let stack = vec![131u8; SERVED_BATCH * img.stride() + PATCH_SLACK];
    let weights = uniform(&mut rng, Shape::vector(dims.c_out * kdim), -1.0, 1.0);
    let packed =
        PackedBI8::pack_conv_runs(weights.as_slice(), dims).expect("kdim is far below MAX_QGEMM_K");
    let group = if dims.folds_batch_i8() {
        SERVED_BATCH
    } else {
        1
    };
    let conv = ImplicitConv::compile(dims, group).expect("a served conv reads its image in place");
    let mut patches = vec![128u8; group * s * quantized_row_len(kdim) + PATCH_SLACK];
    let gather_ns = measure_ns(|| {
        for i in 0..SERVED_BATCH {
            let dst = (i % group) * s * quantized_row_len(kdim);
            gather_patches(&stack[i * img.stride()..], dims, &mut patches[dst..]);
        }
        std::hint::black_box(patches[0])
    });
    let mut acc = vec![0i32; group * s * dims.c_out];
    let implicit_ns = measure_ns(|| {
        for g0 in (0..SERVED_BATCH).step_by(group) {
            gemm_i8_conv(
                &stack[g0 * img.stride()..],
                &conv,
                group,
                &packed,
                &mut acc,
                mode,
            );
        }
        std::hint::black_box(acc[0])
    });
    (gather_ns, implicit_ns)
}

/// Times back-to-back GEMMs of reduction depth `kdim` in f32
/// (`[m × kdim]·[kdim × n]`, B pre-packed) and in int8 (`[m × kdim]` u8
/// activations against `n` packed weight columns), each with its own
/// `(calls, m, n)`: a conv keeps its weights on the left in f32 and packs
/// them on the right in int8, so the two orientations are transposes, and
/// each path has its own rule for folding a batch into one call.
fn time_pair(
    kdim: usize,
    f32_calls_mn: (usize, usize, usize),
    i8_calls_mn: (usize, usize, usize),
) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(92);
    let mode = kernel_mode();
    let (calls, m, n) = f32_calls_mn;
    let a = uniform(&mut rng, Shape::matrix(m, kdim), -1.0, 1.0);
    let b = PackedB::pack(&uniform(&mut rng, Shape::matrix(kdim, n), -1.0, 1.0))
        .expect("rank-2 operand");
    let mut out = vec![0.0f32; m * n];
    let f32_ns = measure_ns(|| {
        for _ in 0..calls {
            out.fill(0.0); // the plan's bias fill
            gemm_prepacked(a.as_slice(), &b, &mut out, m, mode, false);
        }
        std::hint::black_box(out[0])
    });
    let (calls, m, n) = i8_calls_mn;
    let packed = PackedBI8::pack(&uniform(&mut rng, Shape::matrix(kdim, n), -1.0, 1.0))
        .expect("kdim is far below MAX_QGEMM_K");
    let qa = vec![131u8; m * quantized_row_len(kdim)];
    let mut acc = vec![0i32; m * n];
    let int8_ns = measure_ns(|| {
        for _ in 0..calls {
            gemm_i8(&qa, &packed, &mut acc, m, mode);
        }
        std::hint::black_box(acc[0])
    });
    (f32_ns, int8_ns)
}

/// Walks the reduced VGG-16 the serving smoke loads and times every
/// conv/FC GEMM at [`SERVED_BATCH`], single-threaded like one worker.
fn bench_served_shapes() -> Vec<ServedShape> {
    let cfg = VggConfig::reduced();
    let model = vgg16(&mut StdRng::seed_from_u64(7), &cfg).expect("reduced VGG-16 builds");
    let mut shape = Shape::nchw(1, cfg.input_channels, cfg.input_hw, cfg.input_hw);
    let mut rows = Vec::new();
    reset_kernel_mode();
    let pool = Pool::new(1);
    for layer in model.layers() {
        let out = layer.output_shape(&shape).expect("model shape-checks");
        let any = layer.as_any();
        if let Some(conv) = any.and_then(|a| a.downcast_ref::<Conv2d>()) {
            let dims = ConvPlanDims {
                c_in: shape.dim(1),
                h: shape.dim(2),
                w: shape.dim(3),
                c_out: out.dim(1),
                oh: out.dim(2),
                ow: out.dim(3),
                geom: *conv.geometry(),
            };
            let s = dims.oh * dims.ow;
            let kdim = dims.c_in * dims.geom.kernel * dims.geom.kernel;
            // One GEMM per image, or one for the batch when the shape folds.
            let grouped = |folds: bool| match folds {
                true => (1, SERVED_BATCH * s),
                false => (SERVED_BATCH, s),
            };
            let (f_calls, f_cols) = grouped(dims.folds_batch());
            let (q_calls, q_cols) = grouped(dims.folds_batch_i8());
            let (f32_ns, int8_ns) = with_pool(&pool, || {
                time_pair(
                    kdim,
                    (f_calls, dims.c_out, f_cols),
                    (q_calls, q_cols, dims.c_out),
                )
            });
            let (gather_ns, implicit_ns) = with_pool(&pool, || time_conv_i8(&dims));
            rows.push(ServedShape {
                layer: layer.name().to_string(),
                c_out: dims.c_out,
                kdim,
                s,
                f32_ns,
                int8_ns,
                gather_ns,
                implicit_ns,
            });
        } else if let Some(fc) = any.and_then(|a| a.downcast_ref::<Linear>()) {
            let (in_f, out_f) = (fc.in_features(), fc.out_features());
            let mn = (1, SERVED_BATCH, out_f);
            let (f32_ns, int8_ns) = with_pool(&pool, || time_pair(in_f, mn, mn));
            rows.push(ServedShape {
                layer: layer.name().to_string(),
                c_out: out_f,
                kdim: in_f,
                s: 1,
                f32_ns,
                int8_ns,
                gather_ns: 0.0,
                implicit_ns: int8_ns,
            });
        }
        shape = out;
    }
    rows
}

/// The `served_shapes.rows` entries of `BENCH_quant.json`, one per line.
fn served_rows_json(served: &[ServedShape]) -> String {
    let rows: Vec<String> = served
        .iter()
        .map(|r| {
            format!(
                "      {{ \"layer\": \"{}\", \"c_out\": {}, \"kdim\": {}, \"s\": {}, \
                 \"f32_ns\": {:.0}, \"int8_ns\": {:.0}, \"int8_x_f32\": {:.3}, \
                 \"gather_ns\": {:.0}, \"implicit_ns\": {:.0} }}",
                r.layer,
                r.c_out,
                r.kdim,
                r.s,
                r.f32_ns,
                r.int8_ns,
                r.f32_ns / r.int8_ns,
                r.gather_ns,
                r.implicit_ns
            )
        })
        .collect();
    rows.join(",\n")
}

struct LaneDelta {
    label: &'static str,
    f32_enc: u64,
    int8_enc: u64,
    f32_makespan: u64,
    int8_makespan: u64,
}

impl LaneDelta {
    fn enc_ratio(&self) -> f64 {
        if self.f32_enc > 0 {
            self.int8_enc as f64 / self.f32_enc as f64
        } else {
            0.0
        }
    }
    fn makespan_ratio(&self) -> f64 {
        if self.f32_makespan > 0 {
            self.int8_makespan as f64 / self.f32_makespan as f64
        } else {
            1.0
        }
    }
}

/// Prices the same batch stream at f32 and int8 through the serving cost
/// model and returns the per-scheme lane deltas.
fn bench_lanes() -> Vec<LaneDelta> {
    let topo = vgg16_topology();
    let f_cfg = ServerConfig::smoke();
    let q_cfg = ServerConfig {
        quantized: true,
        ..ServerConfig::smoke()
    };
    let mut f_cost = CostModel::new(&topo, &f_cfg).expect("vgg16 topology is priceable");
    let mut q_cost = CostModel::new(&topo, &q_cfg).expect("vgg16 topology is priceable");
    for batch in [8usize, 8, 4, 8, 2] {
        f_cost.cost_batch(batch);
        q_cost.cost_batch(batch);
    }
    let (f_rows, q_rows) = (f_cost.summaries(), q_cost.summaries());
    COSTED_SCHEMES
        .iter()
        .map(|&scheme| {
            let f = f_rows.iter().find(|r| r.scheme == scheme).expect("lane");
            let q = q_rows.iter().find(|r| r.scheme == scheme).expect("lane");
            LaneDelta {
                label: scheme.label(),
                f32_enc: f.enc_bytes,
                int8_enc: q.enc_bytes,
                f32_makespan: f.makespan_cycles,
                int8_makespan: q.makespan_cycles,
            }
        })
        .collect()
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(4);
    println!("quant bench: {M}x{K}x{N} GEMM, {threads} pool thread(s) on {cores} core(s)");

    let gemm = bench_gemm(threads);
    println!(
        "{:<18} {:>12} {:>10}",
        "kernel", "time", "GOPS"
    );
    println!(
        "{:<18} {:>10.3}ms {:>10.2}",
        "f32_blocked",
        gemm.f32_ns / 1e6,
        gemm.ops() / gemm.f32_ns
    );
    println!(
        "{:<18} {:>10.3}ms {:>10}",
        "a_quantize", gemm.quantize_ns / 1e6, "-"
    );
    for t in &gemm.int8 {
        println!(
            "{:<18} {:>10.3}ms {:>10.2}",
            format!("int8_{}", t.mode.name()),
            t.ns / 1e6,
            gemm.ops() / t.ns
        );
    }
    println!(
        "int8 best ({}) vs f32 blocked: {:.2}x kernel, {:.2}x with per-call quantization",
        gemm.int8_best().mode.name(),
        gemm.int8_best_x_f32(),
        gemm.int8_steady_x_f32()
    );

    let served = bench_served_shapes();
    let (mode_name, int8_kernel) = (kernel_mode().name(), i8_kernel_name(kernel_mode()));
    println!(
        "served reduced VGG-16 GEMMs at batch {SERVED_BATCH}, kernel_mode {mode_name} (int8 {int8_kernel}):"
    );
    for r in &served {
        println!(
            "  {:<10} c_out {:>3} kdim {:>4} s {:>3}: f32 {:>8.1}us int8 {:>8.1}us ({:.2}x) \
             | gather {:>6.1}us + int8 vs implicit {:>8.1}us",
            r.layer,
            r.c_out,
            r.kdim,
            r.s,
            r.f32_ns / 1e3,
            r.int8_ns / 1e3,
            r.f32_ns / r.int8_ns,
            r.gather_ns / 1e3,
            r.implicit_ns / 1e3
        );
    }

    let lanes = bench_lanes();
    for l in &lanes {
        println!(
            "lane {:>8}: int8 enc bytes x{:.3}, makespan x{:.3}",
            l.label,
            l.enc_ratio(),
            l.makespan_ratio()
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"quant\",\n");
    json.push_str(&format!("  \"detected_cores\": {cores},\n"));
    json.push_str(&format!("  \"pool_threads\": {threads},\n"));
    json.push_str(&format!(
        "  \"kernel_mode\": \"{mode_name}\",\n  \"int8_kernel\": \"{int8_kernel}\",\n"
    ));
    json.push_str(
        "  \"note\": \"int8_best_x_f32 is the pure GEMM-vs-GEMM kernel ratio; \
         int8_steady_x_f32 additionally charges the int8 side its per-call \
         activation quantization (the steady-state plan cost — pessimistic here, \
         since a real conv layer quantizes O(image) elements against an \
         O(image*kdim) GEMM). Weight packing is compile-time and excluded. \
         Lane ratios are deterministic cost-model cycles, not wall clock.\",\n",
    );
    json.push_str("  \"gemm\": {\n");
    json.push_str(&format!(
        "    \"shape\": \"{M}x{K}x{N}\",\n    \"ops\": {},\n",
        gemm.ops()
    ));
    json.push_str(&format!(
        "    \"f32_blocked_ns\": {:.0},\n    \"f32_gflops\": {:.4},\n",
        gemm.f32_ns,
        gemm.ops() / gemm.f32_ns
    ));
    json.push_str(&format!(
        "    \"quantize_ns\": {:.0},\n",
        gemm.quantize_ns
    ));
    json.push_str("    \"int8_modes\": {\n");
    let rows: Vec<String> = gemm
        .int8
        .iter()
        .map(|t| {
            format!(
                "      \"{}\": {{ \"ns\": {:.0}, \"gops\": {:.4}, \"int8_kernel\": \"{}\" }}",
                t.mode.name(),
                t.ns,
                gemm.ops() / t.ns,
                i8_kernel_name(t.mode)
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    },\n");
    json.push_str(&format!(
        "    \"int8_best_mode\": \"{}\",\n",
        gemm.int8_best().mode.name()
    ));
    json.push_str(&format!(
        "    \"int8_best_x_f32\": {:.3},\n",
        gemm.int8_best_x_f32()
    ));
    json.push_str(&format!(
        "    \"int8_steady_x_f32\": {:.3}\n",
        gemm.int8_steady_x_f32()
    ));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"served_shapes\": {{\n    \"model\": \"vgg16-reduced\",\n    \"batch\": {SERVED_BATCH},\n    \"rows\": [\n"
    ));
    json.push_str(&served_rows_json(&served));
    json.push_str("\n    ]\n  },\n");
    json.push_str("  \"lanes\": {\n");
    json.push_str("    \"model\": \"vgg16\",\n");
    json.push_str("    \"per_scheme\": {\n");
    let rows: Vec<String> = lanes
        .iter()
        .map(|l| {
            format!(
                "      \"{}\": {{ \"f32_enc_bytes\": {}, \"int8_enc_bytes\": {}, \
                 \"enc_bytes_ratio\": {:.6}, \"f32_makespan_cycles\": {}, \
                 \"int8_makespan_cycles\": {}, \"makespan_ratio\": {:.6} }}",
                l.label,
                l.f32_enc,
                l.int8_enc,
                l.enc_ratio(),
                l.f32_makespan,
                l.int8_makespan,
                l.makespan_ratio()
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n    }\n  }\n}\n");

    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_quant.json".to_string());
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

    /// Golden shape of a `served_shapes.rows` entry: the keys, in order,
    /// and their formats — a conv row with the gather / implicit split and
    /// an FC row, whose plan call is the dense GEMM itself.
    #[test]
    fn served_rows_have_the_stable_golden_shape() {
        let row = |layer: &str, s, gather_ns, implicit_ns| ServedShape {
            layer: layer.into(),
            c_out: 6,
            kdim: 27,
            s,
            f32_ns: 2000.0,
            int8_ns: 800.0,
            gather_ns,
            implicit_ns,
        };
        let text = served_rows_json(&[
            row("conv1_1", 1024, 1200.4, 900.6),
            row("fc3", 1, 0.0, 800.0),
        ]);
        assert_eq!(
            text,
            "      { \"layer\": \"conv1_1\", \"c_out\": 6, \"kdim\": 27, \"s\": 1024, \
             \"f32_ns\": 2000, \"int8_ns\": 800, \"int8_x_f32\": 2.500, \"gather_ns\": 1200, \
             \"implicit_ns\": 901 },\n      { \"layer\": \"fc3\", \"c_out\": 6, \"kdim\": 27, \
             \"s\": 1, \"f32_ns\": 2000, \"int8_ns\": 800, \"int8_x_f32\": 2.500, \
             \"gather_ns\": 0, \"implicit_ns\": 800 }"
        );
    }
}
