//! Single-thread replays of the kernels and crypto models underneath the
//! workloads. Every figure is the fast decile over repeats of a call into a
//! layer's public function, made by the benchmark itself and recorded as
//! a span on the replay path.

use seal_core::Scheme;
use seal_crypto::{CounterCache, CounterCacheConfig, CounterGeometry, EnginePipeline, EngineSpec};
use seal_nn::layers::{Conv2d, Linear};
use seal_nn::Sequential;
use seal_serve::{SchemeSummary, ServerConfig};
use seal_tensor::ops::{
    conv2d_infer_packed, gather_patches_u8, gemm_i8, gemm_prepacked, kernel_mode, quantize_rows_u8,
    quantized_row_len, ConvPlanDims, Im2colGather, KernelMode, PackedB, PackedBI8, PatchGather,
};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::{Rng, SeedableRng};
use seal_tensor::Shape;

use crate::report::Metric;
use crate::stats::time_us;
use crate::trace::Tracer;

/// `tensor.kernel_mode` as a number (the name is printed beside it):
/// 0 scalar, 1 avx2, 2 fma, 3 avx512.
pub fn kernel_mode_code() -> f64 {
    match kernel_mode() {
        KernelMode::Scalar => 0.0,
        KernelMode::Avx2 => 1.0,
        KernelMode::Fma => 2.0,
        KernelMode::Avx512 => 3.0,
    }
}

/// Times `f` like [`time_us`], recording each repeat as a span.
pub fn timed(tracer: &mut Tracer, name: &'static str, repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut op = 0u64;
    tracer.set_enabled(true);
    let us = time_us(repeats, || {
        op += 1;
        tracer.span(name, op, &mut f);
    });
    tracer.set_enabled(false);
    us
}

fn random_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// One convolution of the served model as the GEMM the plan runs for it.
#[derive(Debug, Clone)]
pub struct ConvGemm {
    pub dims: ConvPlanDims,
    /// `[c_out × kdim]`, the plan's A operand.
    pub weights: Vec<f32>,
}

impl ConvGemm {
    pub fn kdim(&self) -> usize {
        self.dims.c_in * self.dims.geom.kernel * self.dims.geom.kernel
    }

    pub fn spatial(&self) -> usize {
        self.dims.oh * self.dims.ow
    }

    /// Multiply-accumulates per image.
    pub fn macs(&self) -> usize {
        self.dims.c_out * self.kdim() * self.spatial()
    }
}

/// One fully connected layer's GEMM shape (`[batch × in_f] · [in_f × out_f]`).
/// Its replay uses random weights: GEMM time does not depend on values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FcGemm {
    pub in_f: usize,
    pub out_f: usize,
}

/// The GEMM shapes of `model`, found by walking its layers from `input`
/// (`[1, C, H, W]`). Layers inside composite blocks are not visited; the
/// served VGG has none.
pub fn gemm_shapes(
    model: &Sequential,
    input: &Shape,
) -> Result<(Vec<ConvGemm>, Vec<FcGemm>), String> {
    let (mut convs, mut fcs) = (Vec::new(), Vec::new());
    let mut shape = input.clone();
    for layer in model.layers() {
        let out = layer
            .output_shape(&shape)
            .map_err(|e| format!("{}: {e}", layer.name()))?;
        let any = layer.as_any();
        if let Some(conv) = any.and_then(|a| a.downcast_ref::<Conv2d>()) {
            convs.push(ConvGemm {
                dims: ConvPlanDims {
                    c_in: shape.dim(1),
                    h: shape.dim(2),
                    w: shape.dim(3),
                    c_out: out.dim(1),
                    oh: out.dim(2),
                    ow: out.dim(3),
                    geom: *conv.geometry(),
                },
                weights: conv.weights().value.as_slice().to_vec(),
            });
        } else if let Some(fc) = any.and_then(|a| a.downcast_ref::<Linear>()) {
            fcs.push(FcGemm {
                in_f: fc.in_features(),
                out_f: fc.out_features(),
            });
        }
        shape = out;
    }
    Ok((convs, fcs))
}

/// Indices of the three convolutions with the most work per image, ties
/// broken towards the earlier layer.
pub fn three_largest(convs: &[ConvGemm]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..convs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(convs[i].macs()), i));
    order.truncate(3);
    order
}

/// f32 operands of one convolution at a batch size, built once.
struct ConvF32<'a> {
    conv: &'a ConvGemm,
    gather: Im2colGather,
    /// A random im2col matrix `[kdim × s]`, pre-packed as the B operand.
    packed: PackedB,
    input: Vec<f32>,
    bias: Vec<f32>,
    out: Vec<f32>,
    batch: usize,
}

impl<'a> ConvF32<'a> {
    fn new(conv: &'a ConvGemm, batch: usize, rng: &mut StdRng) -> ConvF32<'a> {
        let (kdim, s, d) = (conv.kdim(), conv.spatial(), conv.dims);
        ConvF32 {
            conv,
            gather: Im2colGather::compile(&d),
            packed: PackedB::from_slice(&random_vec(rng, kdim * s), kdim, s),
            input: random_vec(rng, batch * d.c_in * d.h * d.w),
            bias: vec![0.0; d.c_out],
            out: vec![0.0; batch * d.c_out * s],
            batch,
        }
    }

    /// The GEMMs alone: one `[c_out × kdim] · [kdim × s]` per image.
    fn gemm(&mut self, mode: KernelMode) {
        let per_image = self.conv.dims.c_out * self.conv.spatial();
        for image in self.out.chunks_exact_mut(per_image) {
            image.fill(0.0);
            gemm_prepacked(
                &self.conv.weights,
                &self.packed,
                image,
                self.conv.dims.c_out,
                mode,
                false,
            );
        }
        std::hint::black_box(&self.out);
    }

    /// The planned convolution: im2col gather + the same GEMMs.
    fn conv(&mut self, mode: KernelMode) {
        conv2d_infer_packed(
            &self.input,
            self.batch,
            &self.conv.dims,
            &self.gather,
            &self.conv.weights,
            &self.bias,
            &mut self.out,
            false,
            mode,
        )
        .expect("planned conv dims come from the model's own shape inference");
        std::hint::black_box(&self.out);
    }
}

/// `(tensor.gemm_f32_us, tensor.im2col_us)` summed over `which` convs at
/// `batch`. The f32 gather is not a public function of its own, so it is
/// the planned convolution's time minus the GEMMs it contains.
pub fn tensor_f32(
    convs: &[ConvGemm],
    which: &[usize],
    batch: usize,
    repeats: usize,
    tracer: &mut Tracer,
) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(0xF32);
    let mode = kernel_mode();
    let mut ops: Vec<ConvF32> = which
        .iter()
        .map(|&i| ConvF32::new(&convs[i], batch, &mut rng))
        .collect();
    let gemm = timed(tracer, "tensor.gemm_f32", repeats, || {
        ops.iter_mut().for_each(|o| o.gemm(mode))
    });
    let conv = timed(tracer, "tensor.conv_f32", repeats, || {
        ops.iter_mut().for_each(|o| o.conv(mode))
    });
    (gemm, (conv - gemm).max(0.0))
}

/// int8 operands of one convolution, one image at a time like the plan.
struct ConvI8 {
    gather: PatchGather,
    packed: PackedBI8,
    image_q: Vec<u8>,
    patches: Vec<u8>,
    acc: Vec<i32>,
}

impl ConvI8 {
    fn new(conv: &ConvGemm, rng: &mut StdRng) -> ConvI8 {
        let (kdim, s, d) = (conv.kdim(), conv.spatial(), conv.dims);
        let ka = quantized_row_len(kdim);
        ConvI8 {
            gather: PatchGather::compile(&d),
            packed: PackedBI8::pack_conv(&conv.weights, d.c_out, kdim)
                .expect("the plan packed these same weights"),
            image_q: (0..d.c_in * d.h * d.w)
                .map(|_| rng.gen_range(0u32..256) as u8)
                .collect(),
            patches: vec![128; s * ka],
            acc: vec![0; s * d.c_out],
        }
    }
}

/// `(tensor.gemm_i8_us, tensor.quantize_rows_us, tensor.gather_patches_u8_us)`:
/// the GEMM and the patch gather summed over `which` convs, `batch` images
/// each; `quantize_rows_u8` over the `[batch × in_f]` activations of every
/// FC, which is where the int8 plan calls it.
pub fn tensor_i8(
    convs: &[ConvGemm],
    which: &[usize],
    fcs: &[FcGemm],
    batch: usize,
    repeats: usize,
    tracer: &mut Tracer,
) -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(0x18);
    let mode = kernel_mode();
    let mut ops: Vec<ConvI8> = which
        .iter()
        .map(|&i| ConvI8::new(&convs[i], &mut rng))
        .collect();
    let gather = timed(tracer, "tensor.gather_patches_u8", repeats, || {
        for o in ops.iter_mut() {
            for _ in 0..batch {
                gather_patches_u8(&o.image_q, &o.gather, &mut o.patches);
            }
            std::hint::black_box(&o.patches);
        }
    });
    let gemm = timed(tracer, "tensor.gemm_i8", repeats, || {
        for o in ops.iter_mut() {
            for _ in 0..batch {
                gemm_i8(&o.patches, &o.packed, &mut o.acc, o.gather.spatial(), mode);
            }
            std::hint::black_box(&o.acc);
        }
    });
    let mut rows: Vec<(usize, Vec<f32>, Vec<u8>)> = fcs
        .iter()
        .map(|f| {
            (
                f.in_f,
                random_vec(&mut rng, batch * f.in_f),
                vec![128u8; batch * quantized_row_len(f.in_f)],
            )
        })
        .collect();
    let mut scales = vec![0.0f32; batch];
    let quantize = timed(tracer, "tensor.quantize_rows_u8", repeats, || {
        for (in_f, x, q) in rows.iter_mut() {
            quantize_rows_u8(x, batch, *in_f, q, &mut scales);
            std::hint::black_box(&q);
        }
    });
    (gemm, quantize, gather)
}

/// Time of every GEMM one `batch`-sized execute contains (all convs, all
/// FCs), f32 or int8 — the numerator of `nn.plan_gemm_share`.
pub fn all_gemms_us(
    convs: &[ConvGemm],
    fcs: &[FcGemm],
    quantized: bool,
    batch: usize,
    repeats: usize,
    tracer: &mut Tracer,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(0xA11);
    let mode = kernel_mode();
    let all: Vec<usize> = (0..convs.len()).collect();
    if quantized {
        let mut conv_ops: Vec<ConvI8> = convs.iter().map(|c| ConvI8::new(c, &mut rng)).collect();
        let mut fc_ops: Vec<(PackedBI8, Vec<u8>, Vec<i32>)> = fcs
            .iter()
            .map(|f| {
                let packed =
                    PackedBI8::pack_conv(&random_vec(&mut rng, f.out_f * f.in_f), f.out_f, f.in_f)
                        .expect("FC depth is far below the int8 accumulator bound");
                (
                    packed,
                    vec![128u8; batch * quantized_row_len(f.in_f)],
                    vec![0i32; batch * f.out_f],
                )
            })
            .collect();
        timed(tracer, "nn.plan_gemms", repeats, || {
            for o in conv_ops.iter_mut() {
                for _ in 0..batch {
                    gemm_i8(&o.patches, &o.packed, &mut o.acc, o.gather.spatial(), mode);
                }
            }
            for (packed, a, out) in fc_ops.iter_mut() {
                gemm_i8(a, packed, out, batch, mode);
            }
            std::hint::black_box((&conv_ops, &fc_ops));
        })
    } else {
        let mut conv_ops: Vec<ConvF32> = all
            .iter()
            .map(|&i| ConvF32::new(&convs[i], batch, &mut rng))
            .collect();
        let mut fc_ops: Vec<(PackedB, Vec<f32>, Vec<f32>)> = fcs
            .iter()
            .map(|f| {
                (
                    PackedB::from_slice(&random_vec(&mut rng, f.in_f * f.out_f), f.in_f, f.out_f),
                    random_vec(&mut rng, batch * f.in_f),
                    vec![0.0f32; batch * f.out_f],
                )
            })
            .collect();
        timed(tracer, "nn.plan_gemms", repeats, || {
            conv_ops.iter_mut().for_each(|o| o.gemm(mode));
            for (packed, a, out) in fc_ops.iter_mut() {
                out.fill(0.0);
                gemm_prepacked(a, packed, out, batch, mode, false);
            }
            std::hint::black_box(&fc_ops);
        })
    }
}

/// Calls per repeat of a crypto replay: large enough that one repeat is
/// far above the clock's resolution.
const CRYPTO_CALLS: u64 = 20_000;

/// `crypto.counter_access_run_ns`: one warm `access_run` over a pinned
/// read-only weight window of `weight_bytes` — the serve lanes' hot walk.
pub fn counter_access_run_ns(
    geometry: CounterGeometry,
    cache_kb: usize,
    weight_bytes: u64,
    repeats: usize,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let mut config = geometry.cache_config(cache_kb);
    let page = config.coverage_bytes as u64;
    let pages = weight_bytes.div_ceil(page).max(1);
    if geometry.read_only_weights {
        config = config
            .with_read_only_region(0, pages * page)
            .map_err(|e| e.to_string())?;
    }
    let mut cache = CounterCache::new(config).map_err(|e| e.to_string())?;
    let us = timed(tracer, "crypto.counter_access_run", repeats, || {
        for _ in 0..CRYPTO_CALLS {
            std::hint::black_box(cache.access_run(std::hint::black_box(0), pages));
        }
    });
    Ok(us * 1e3 / CRYPTO_CALLS as f64)
}

/// `crypto.counter_access_ns`: one `access` while streaming a region line
/// by line through a per-controller cache slice — the simulator's walk.
pub fn counter_access_ns(
    config: CounterCacheConfig,
    line_bytes: u64,
    repeats: usize,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let mut cache = CounterCache::new(config).map_err(|e| e.to_string())?;
    let mut addr = 0u64;
    let us = timed(tracer, "crypto.counter_access", repeats, || {
        for _ in 0..CRYPTO_CALLS {
            std::hint::black_box(cache.access(addr));
            addr += line_bytes;
        }
    });
    Ok(us * 1e3 / CRYPTO_CALLS as f64)
}

/// `crypto.engine_submit_ns`: one `EnginePipeline::submit` of a line.
pub fn engine_submit_ns(
    clock_ghz: f64,
    line_bytes: u64,
    repeats: usize,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let mut engine =
        EnginePipeline::new(EngineSpec::seal_default(), clock_ghz).map_err(|e| e.to_string())?;
    let mut now = 0u64;
    let us = timed(tracer, "crypto.engine_submit", repeats, || {
        for _ in 0..CRYPTO_CALLS {
            now = std::hint::black_box(engine.submit(now, line_bytes));
        }
    });
    Ok(us * 1e3 / CRYPTO_CALLS as f64)
}

/// The three virtual encryption lanes a serving workload priced its
/// traffic on (`ServeStats.schemes` or the tenant roll-up).
pub struct Lanes<'a> {
    pub baseline: &'a SchemeSummary,
    pub seal_c: &'a SchemeSummary,
    pub counter: &'a SchemeSummary,
}

impl<'a> Lanes<'a> {
    pub fn of(schemes: &'a [SchemeSummary]) -> Result<Lanes<'a>, String> {
        let lane = |scheme: Scheme| {
            schemes
                .iter()
                .find(|s| s.scheme == scheme)
                .ok_or_else(|| format!("the server reported no {} lane", scheme.label()))
        };
        Ok(Lanes {
            baseline: lane(Scheme::Baseline)?,
            seal_c: lane(Scheme::SealCounter)?,
            counter: lane(Scheme::Counter)?,
        })
    }

    /// The `crypto.*` and `core.*` per-layer metrics of a serving workload:
    /// exact counts from the lanes, plus replays of the two crypto calls
    /// `cost_batch` makes, sized by the server's own configuration.
    pub fn metrics(
        &self,
        cfg: &ServerConfig,
        weight_bytes: u64,
        repeats: usize,
        tracer: &mut Tracer,
    ) -> Result<Vec<Metric>, String> {
        let access_run = counter_access_run_ns(
            cfg.counter_geometry,
            cfg.counter_cache_kb,
            weight_bytes,
            repeats,
            tracer,
        )?;
        Ok(vec![
            Metric::new("crypto.counter_access_run_ns", access_run),
            Metric::new(
                "crypto.engine_submit_ns",
                engine_submit_ns(cfg.clock_ghz, 128, repeats, tracer)?,
            ),
            Metric::new("crypto.counter_hit_rate", self.counter.counter_hit_rate),
            Metric::new("crypto.prefetch_hits", self.counter.prefetch_hits as f64),
            Metric::new("crypto.ro_hits", self.counter.ro_hits as f64),
            Metric::new(
                "core.enc_bytes_ratio",
                self.seal_c.enc_bytes as f64 / self.seal_c.total_bytes as f64,
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_serve::ServedModel;

    #[test]
    fn served_vgg_has_thirteen_convs_and_three_fcs() {
        let model = ServedModel::load("vgg16", 7).unwrap();
        let (convs, fcs) = gemm_shapes(model.model(), model.input_shape()).unwrap();
        assert_eq!((convs.len(), fcs.len()), (13, 3));
        assert_eq!(convs[0].dims.c_in, 3);
        assert_eq!((convs[0].dims.h, convs[0].dims.oh), (16, 16));
        assert!(convs
            .iter()
            .all(|c| c.weights.len() == c.dims.c_out * c.kdim()));
        assert_eq!(fcs.last().unwrap().out_f, 10);
        let top = three_largest(&convs);
        assert_eq!(top.len(), 3);
        assert!(top.iter().all(|&i| convs[i].macs() == convs[top[0]].macs()));
        assert!(top.windows(2).all(|w| w[0] < w[1]), "ties keep layer order");
    }

    #[test]
    fn replays_return_positive_times_and_record_spans() {
        let model = ServedModel::load("vgg16", 7).unwrap();
        let (convs, fcs) = gemm_shapes(model.model(), model.input_shape()).unwrap();
        let top = three_largest(&convs);
        let mut tracer = Tracer::new();
        let (gemm, im2col) = tensor_f32(&convs, &top, 2, 3, &mut tracer);
        assert!(gemm > 0.0 && im2col >= 0.0);
        let (g8, q, p) = tensor_i8(&convs, &top, &fcs, 2, 3, &mut tracer);
        assert!(g8 > 0.0 && q > 0.0 && p > 0.0);
        assert!(all_gemms_us(&convs, &fcs, false, 2, 3, &mut tracer) > 0.0);
        assert!(all_gemms_us(&convs, &fcs, true, 2, 3, &mut tracer) > 0.0);
        let names: std::collections::BTreeSet<_> = tracer.spans().iter().map(|s| s.name).collect();
        assert!(names.contains("tensor.gemm_f32") && names.contains("tensor.gemm_i8"));
        // 1 warm-up + 3 repeats per timed() call.
        assert_eq!(
            tracer
                .spans()
                .iter()
                .filter(|s| s.name == "tensor.gemm_f32")
                .count(),
            4
        );
    }

    #[test]
    fn crypto_replays_run() {
        let mut tracer = Tracer::new();
        let run =
            counter_access_run_ns(CounterGeometry::tuned(), 96, 1 << 20, 3, &mut tracer).unwrap();
        let one =
            counter_access_ns(CounterCacheConfig::with_kilobytes(16), 128, 3, &mut tracer).unwrap();
        let submit = engine_submit_ns(1.401, 128, 3, &mut tracer).unwrap();
        assert!(run > 0.0 && one > 0.0 && submit > 0.0);
    }
}
