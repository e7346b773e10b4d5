//! Contracts of the quantized (int8) compiled plans.
//!
//! Determinism: a quantized plan accumulates in exact i32 and dequantizes
//! elementwise, so its logits are **bitwise identical** across thread
//! counts *and* across every available `SEAL_KERNEL` mode (scalar, AVX2
//! `vpmaddwd`, AVX-512 VNNI `vpdpbusd`) — a strictly stronger guarantee
//! than the f32 plans, whose FMA mode is allowed to differ.
//!
//! Accuracy: against the served f32 plan the quantized plan must stay
//! within quantization tolerance on logits and within one percentage
//! point of top-1 agreement on a 128-sample fixture batch of both zoo
//! networks.

use seal_nn::layers::{AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU, ResidualBlock};
use seal_nn::models::{mlp, resnet, vgg16, MlpConfig, ResNetConfig, VggConfig};
use seal_nn::{CompiledModel, Layer, Sequential};
use seal_pool::{with_pool, Pool};
use seal_tensor::ops::{
    avg_pool2d_into, dequantize_bias_relu, dequantize_transpose_bias_relu, gather_patches_u8,
    gemm_i8, max_pool2d_into, quantize_rows_u8, quantize_slice_u8, quantized_row_len,
    reset_kernel_mode, set_kernel_mode, Conv2dGeometry, ConvPlanDims, KernelMode, PackedBI8,
    PatchGather, PoolGeometry,
};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::{Shape, Tensor};

const THREADS: [usize; 3] = [1, 2, 8];

fn sample(seed: u64, n: usize, c: usize, hw: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    seal_tensor::uniform(&mut rng, Shape::nchw(n, c, hw, hw), -1.0, 1.0)
}

fn assert_bitwise(out: &[f32], reference: &[f32], what: &str) {
    assert_eq!(out.len(), reference.len(), "{what}: length mismatch");
    for (i, (p, r)) in out.iter().zip(reference).enumerate() {
        assert_eq!(
            p.to_bits(),
            r.to_bits(),
            "{what}: logit {i} differs ({p} vs {r})"
        );
    }
}

/// Runs `f` under a pool of each width in [`THREADS`] × every kernel mode
/// this host can install (`fma` shares the int8 kernels with `avx2`).
fn for_each_pool_and_mode(mut f: impl FnMut(usize, KernelMode)) {
    for threads in THREADS {
        let pool = Pool::new(threads);
        for mode in [
            KernelMode::Scalar,
            KernelMode::Avx2,
            KernelMode::Avx512,
            KernelMode::Fma,
        ] {
            if set_kernel_mode(mode) == mode {
                with_pool(&pool, || f(threads, mode));
            }
        }
        reset_kernel_mode();
    }
}

/// Single-thread scalar-kernel run of a quantized plan — the reference
/// every other (threads × kernel mode) combination must reproduce bit for
/// bit.
fn quant_reference(model: &Sequential, c: usize, hw: usize, x: &Tensor) -> Vec<f32> {
    let input = Shape::nchw(1, c, hw, hw);
    let mut plan = CompiledModel::compile(model, &input, 8, true).unwrap();
    let pool = Pool::new(1);
    set_kernel_mode(KernelMode::Scalar);
    let out = with_pool(&pool, || plan.execute_into(x).unwrap().to_vec());
    reset_kernel_mode();
    out
}

fn check_quant_bitwise(model: &Sequential, c: usize, hw: usize, seed: u64, what: &str) {
    let input = Shape::nchw(1, c, hw, hw);
    let mut plan = CompiledModel::compile(model, &input, 8, true).unwrap();
    for n in [1usize, 5, 8] {
        let x = sample(seed + n as u64, n, c, hw);
        let reference = quant_reference(model, c, hw, &x);
        for_each_pool_and_mode(|threads, mode| {
            let logits = plan.execute_into(&x).unwrap();
            assert_bitwise(
                logits,
                &reference,
                &format!(
                    "{what} quantized plan, batch {n}, {threads} threads, {}",
                    mode.name()
                ),
            );
        });
    }
}

#[test]
fn vgg16_quantized_plan_bitwise_across_threads_and_kernels() {
    let mut rng = StdRng::seed_from_u64(401);
    let cfg = VggConfig::reduced();
    let model = vgg16(&mut rng, &cfg).unwrap();
    check_quant_bitwise(&model, cfg.input_channels, cfg.input_hw, 410, "vgg16");
}

#[test]
fn resnet18_quantized_plan_bitwise_across_threads_and_kernels() {
    let mut rng = StdRng::seed_from_u64(402);
    let cfg = ResNetConfig::reduced(18);
    let model = resnet(&mut rng, &cfg).unwrap();
    check_quant_bitwise(&model, cfg.input_channels, cfg.input_hw, 420, "resnet18");
}

/// The accuracy gate: over 128 fixture samples the quantized plan's
/// logits must stay within quantization tolerance of the served f32 plan,
/// and its top-1 prediction must agree wherever the f32 decision is
/// *stable* — the fixture models are randomly initialised, so some logit
/// rows are exact ties at quantization resolution, and flipping such a
/// tie is not an accuracy loss. A disagreement counts against the 1%
/// budget only when the f32 margin between its top choice and the
/// quantized plan's choice exceeds the pinned logit tolerance.
fn check_quant_accuracy(model: &Sequential, c: usize, hw: usize, seed: u64, what: &str) {
    let input = Shape::nchw(1, c, hw, hw);
    let batch = 8usize;
    let batches = 16usize; // 128 samples total
    let mut f32_plan = CompiledModel::compile(model, &input, batch, false).unwrap();
    let classes = f32_plan.num_classes();
    let mut q_plan = CompiledModel::compile(model, &input, batch, true).unwrap();
    let pool = Pool::new(2);
    let mut agree = 0usize;
    let mut total = 0usize;
    with_pool(&pool, || {
        for b in 0..batches {
            let x = sample(seed + b as u64, batch, c, hw);
            let fl = f32_plan.execute_into(&x).unwrap().to_vec();
            let ql = q_plan.execute_into(&x).unwrap();
            let scale = fl.iter().fold(1.0f32, |m, v| m.max(v.abs()));
            let tol = 0.05 * scale;
            // Logits track the f32 plan to quantization tolerance
            // (relative to the magnitude of the logit slab).
            for (p, r) in ql.iter().zip(&fl) {
                assert!(
                    (p - r).abs() <= tol,
                    "{what}: quantized logit {p} too far from f32 {r} (scale {scale})"
                );
            }
            for s in 0..batch {
                let frow = &fl[s * classes..(s + 1) * classes];
                let qrow = &ql[s * classes..(s + 1) * classes];
                let argmax = |row: &[f32]| {
                    row.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        .map(|(i, _)| i)
                        .unwrap()
                };
                let (ft, qt) = (argmax(frow), argmax(qrow));
                total += 1;
                // Stable agreement, or a tie at quantization resolution.
                if ft == qt || frow[ft] - frow[qt] <= tol {
                    agree += 1;
                }
            }
        }
    });
    let agreement = agree as f64 / total as f64;
    assert!(
        agreement >= 0.99,
        "{what}: quantized top-1 agreement {agreement:.4} below 0.99 ({agree}/{total})"
    );
}

#[test]
fn vgg16_quantized_top1_within_one_percent_of_f32() {
    let mut rng = StdRng::seed_from_u64(403);
    let cfg = VggConfig::reduced();
    let model = vgg16(&mut rng, &cfg).unwrap();
    check_quant_accuracy(&model, cfg.input_channels, cfg.input_hw, 430, "vgg16");
}

#[test]
fn resnet18_quantized_top1_within_one_percent_of_f32() {
    let mut rng = StdRng::seed_from_u64(404);
    let cfg = ResNetConfig::reduced(18);
    let model = resnet(&mut rng, &cfg).unwrap();
    check_quant_accuracy(&model, cfg.input_channels, cfg.input_hw, 440, "resnet18");
}

/// Oversized batches and wrong shapes are rejected by quantized plans
/// exactly like f32 plans, and compile-time packing rejects nothing on
/// the zoo models (every reduction depth is far below `MAX_QGEMM_K`).
#[test]
fn quantized_plan_rejects_bad_batches() {
    let mut rng = StdRng::seed_from_u64(405);
    let cfg = VggConfig::reduced();
    let model = vgg16(&mut rng, &cfg).unwrap();
    let input = Shape::nchw(1, cfg.input_channels, cfg.input_hw, cfg.input_hw);
    let mut plan = CompiledModel::compile(&model, &input, 2, true).unwrap();
    let too_big = Tensor::zeros(Shape::nchw(
        3,
        cfg.input_channels,
        cfg.input_hw,
        cfg.input_hw,
    ));
    assert!(plan.execute_into(&too_big).is_err());
    let wrong = Tensor::zeros(Shape::nchw(1, cfg.input_channels + 1, 4, 4));
    assert!(plan.execute_into(&wrong).is_err());
}

/// FNV-1a 64-bit over the raw little-endian bit patterns of `values`.
fn fnv1a(h: &mut u64, values: &[f32]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of the int8 logits of `model` at batch 1, 5 and 8 (fixed input
/// seeds) — pinned below, so any change to the int8 data path has to
/// leave every served value where it was, in every kernel mode and at
/// every thread count.
fn check_pinned_hash(model: &Sequential, c: usize, hw: usize, seed: u64, pinned: u64, what: &str) {
    let input = Shape::nchw(1, c, hw, hw);
    let mut plan = CompiledModel::compile(model, &input, 8, true).unwrap();
    for_each_pool_and_mode(|threads, mode| {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for n in [1usize, 5, 8] {
            let x = sample(seed + n as u64, n, c, hw);
            fnv1a(&mut h, plan.execute_into(&x).unwrap());
        }
        assert_eq!(
            h,
            pinned,
            "{what}: int8 logits hash {h:#018x} moved off the pinned {pinned:#018x} \
             ({threads} threads, {})",
            mode.name()
        );
    });
}

#[test]
fn int8_logits_of_the_three_zoo_models_are_pinned() {
    let mut rng = StdRng::seed_from_u64(406);
    let cfg = VggConfig::reduced();
    let model = vgg16(&mut rng, &cfg).unwrap();
    check_pinned_hash(
        &model,
        cfg.input_channels,
        cfg.input_hw,
        450,
        0xbb0d_dd60_a713_f71b,
        "vgg16",
    );
    let cfg = ResNetConfig::reduced(18);
    let model = resnet(&mut rng, &cfg).unwrap();
    check_pinned_hash(
        &model,
        cfg.input_channels,
        cfg.input_hw,
        460,
        0x84e0_ee33_8917_4779,
        "resnet18",
    );
    let model = mlp(&mut rng, &MlpConfig::reduced()).unwrap();
    check_pinned_hash(&model, 3, 8, 470, 0x557d_8dcc_4a37_ab85, "mlp");
}

// ---------------------------------------------------------------------
// Edge rules of the int8 data path, against a reference composed from the
// public per-op kernels: every quantized layer quantizes its f32 NCHW
// input per image, gathers patches through the `PatchGather` table, runs
// the exact-i32 GEMM and dequantizes back to f32 NCHW; max-pool runs on
// f32. The plan may keep activations in any format it likes between
// steps — its logits have to equal this composition bit for bit.
// ---------------------------------------------------------------------

/// One image through `layers`; `shape` is `(c, h, w)` (flat: `(f, 1, 1)`).
fn reference_int8(
    layers: &[Box<dyn Layer>],
    x: &[f32],
    shape: &mut (usize, usize, usize),
) -> Vec<f32> {
    let mode = KernelMode::Scalar;
    let mut cur = x.to_vec();
    for layer in layers {
        let any = layer.as_any().expect("every test layer is introspectable");
        let (c, h, w) = *shape;
        if let Some(conv) = any.downcast_ref::<Conv2d>() {
            let geom = *conv.geometry();
            let (oh, ow) = (geom.output_size(h).unwrap(), geom.output_size(w).unwrap());
            let c_out = conv.out_channels();
            let dims = ConvPlanDims {
                c_in: c,
                h,
                w,
                c_out,
                oh,
                ow,
                geom,
            };
            let gather = PatchGather::compile(&dims);
            let kdim = c * geom.kernel * geom.kernel;
            let packed =
                PackedBI8::pack_conv(conv.weights().value.as_slice(), c_out, kdim).unwrap();
            let mut img_q = vec![0u8; cur.len()];
            let a_scale = quantize_slice_u8(&cur, &mut img_q);
            let mut qa = vec![0u8; gather.patch_bytes()];
            gather_patches_u8(&img_q, &gather, &mut qa);
            let mut acc = vec![0i32; oh * ow * c_out];
            gemm_i8(&qa, &packed, &mut acc, oh * ow, mode);
            let mut out = vec![0.0f32; acc.len()];
            dequantize_transpose_bias_relu(
                &acc,
                a_scale,
                packed.scales(),
                Some(conv.bias().value.as_slice()),
                &mut out,
                oh * ow,
                c_out,
                false,
            );
            cur = out;
            *shape = (c_out, oh, ow);
        } else if let Some(fc) = any.downcast_ref::<Linear>() {
            let (in_f, out_f) = (fc.in_features(), fc.out_features());
            assert_eq!(in_f, cur.len());
            let packed = PackedBI8::pack(&fc.weights().value.transpose().unwrap()).unwrap();
            let mut qa = vec![0u8; quantized_row_len(in_f)];
            let mut a_scale = [0.0f32];
            quantize_rows_u8(&cur, 1, in_f, &mut qa, &mut a_scale);
            let mut acc = vec![0i32; out_f];
            gemm_i8(&qa, &packed, &mut acc, 1, mode);
            let mut out = vec![0.0f32; out_f];
            dequantize_bias_relu(
                &acc,
                &a_scale,
                packed.scales(),
                Some(fc.bias().value.as_slice()),
                &mut out,
                1,
                out_f,
                false,
            );
            cur = out;
            *shape = (out_f, 1, 1);
        } else if any.downcast_ref::<ReLU>().is_some() {
            cur.iter_mut().for_each(|v| *v = v.max(0.0));
        } else if let Some(pool) = any.downcast_ref::<MaxPool2d>() {
            let g = pool.geometry();
            let (oh, ow) = (g.output_size(h).unwrap(), g.output_size(w).unwrap());
            let mut out = vec![0.0f32; c * oh * ow];
            max_pool2d_into(&cur, &mut out, 1, c, h, w, g).unwrap();
            cur = out;
            *shape = (c, oh, ow);
        } else if let Some(pool) = any.downcast_ref::<AvgPool2d>() {
            let g = pool.geometry();
            let (oh, ow) = (g.output_size(h).unwrap(), g.output_size(w).unwrap());
            let mut out = vec![0.0f32; c * oh * ow];
            avg_pool2d_into(&cur, &mut out, 1, c, h, w, g).unwrap();
            cur = out;
            *shape = (c, oh, ow);
        } else if any.downcast_ref::<Flatten>().is_some() {
            *shape = (c * h * w, 1, 1);
        } else if let Some(res) = any.downcast_ref::<ResidualBlock>() {
            let mut main_shape = *shape;
            let f = reference_int8(res.main_branch(), &cur, &mut main_shape);
            let s = reference_int8(res.shortcut_branch(), &cur, shape);
            assert_eq!(main_shape, *shape);
            cur = f.iter().zip(&s).map(|(f, s)| (f + s).max(0.0)).collect();
        } else {
            panic!("reference_int8: unhandled layer {}", layer.name());
        }
    }
    cur
}

/// Random biases everywhere (layers are born with zero bias), so a conv
/// without ReLU produces both signs and pooled maxima can be negative.
fn randomize_biases(model: &mut Sequential, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for p in model.params_mut() {
        if p.value.shape().rank() == 1 {
            p.value = seal_tensor::uniform(&mut rng, p.value.shape().clone(), -0.6, 0.4);
        }
    }
}

/// Plan logits for `x` in every kernel mode at 1/2/8 threads must equal
/// the per-image composed reference — NaN where it is NaN, bit-identical
/// elsewhere.
fn check_against_composed(model: &Sequential, c: usize, hw: usize, x: &Tensor, what: &str) {
    let n = x.shape().dim(0);
    let vol = c * hw * hw;
    let mut reference = Vec::new();
    for i in 0..n {
        let mut shape = (c, hw, hw);
        reference.extend(reference_int8(
            model.layers(),
            &x.as_slice()[i * vol..(i + 1) * vol],
            &mut shape,
        ));
    }
    let input = Shape::nchw(1, c, hw, hw);
    let mut plan = CompiledModel::compile(model, &input, 8, true).unwrap();
    for_each_pool_and_mode(|threads, mode| {
        let logits = plan.execute_into(x).unwrap();
        assert_eq!(logits.len(), reference.len(), "{what}: logits length");
        for (i, (g, w)) in logits.iter().zip(&reference).enumerate() {
            assert!(
                (g.is_nan() && w.is_nan()) || g.to_bits() == w.to_bits(),
                "{what}: logit {i} is {g}, composed reference {w} \
                 (batch {n}, {threads} threads, {})",
                mode.name()
            );
        }
    });
}

fn conv(
    rng: &mut StdRng,
    name: &str,
    c_in: usize,
    c_out: usize,
    k: usize,
    s: usize,
    p: usize,
) -> Box<dyn Layer> {
    let geom = Conv2dGeometry {
        kernel: k,
        stride: s,
        padding: p,
    };
    Box::new(Conv2d::new(rng, name, c_in, c_out, geom).unwrap())
}

fn relu(name: &str) -> Box<dyn Layer> {
    Box::new(ReLU::new(name))
}

fn pool2(name: &str) -> Box<dyn Layer> {
    Box::new(MaxPool2d::new(name, PoolGeometry::halving()))
}

/// conv **without** ReLU → max-pool (negative maxima must survive the
/// fused pool) on a 7×7 map (odd: the pool drops the last row and
/// column), a stride-2 conv, a 1×1/pad-0 conv, and a 2×2 map flattened
/// into the first linear layer (NCHW flatten order ≠ NHWC).
fn edge_rule_cnn(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Sequential::new("edge-cnn")
        .with(conv(&mut rng, "c1", 3, 6, 3, 1, 1)) // 7×7, no ReLU
        .with(pool2("p1")) // 3×3, row/col 6 dropped
        .with(conv(&mut rng, "c2", 6, 10, 3, 1, 1))
        .with(relu("r2"))
        .with(conv(&mut rng, "c3", 10, 17, 1, 1, 0)) // 1×1, pad 0
        .with(relu("r3"))
        .with(conv(&mut rng, "c4", 17, 12, 3, 2, 1)) // stride 2 → 2×2
        .with(relu("r4"))
        .with(Box::new(Flatten::new("flat")))
        .with(Box::new(
            Linear::new(&mut rng, "fc1", 12 * 2 * 2, 20).unwrap(),
        ))
        .with(relu("r5"))
        .with(Box::new(Linear::new(&mut rng, "fc2", 20, 5).unwrap()));
    randomize_biases(&mut model, seed ^ 0xB1A5);
    model
}

/// A wide first layer (16×16 → GEMMs of 256 rows, no batch fold), two
/// residual blocks (identity and strided-projection shortcut), global
/// average pool: u8 inside each main branch, f32 at every add.
fn edge_rule_resnet(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let block1 = ResidualBlock::new(
        "b1",
        vec![
            conv(&mut rng, "b1c1", 6, 6, 3, 1, 1),
            relu("b1r"),
            conv(&mut rng, "b1c2", 6, 6, 3, 1, 1),
        ],
        Vec::new(),
    )
    .unwrap();
    let block2 = ResidualBlock::new(
        "b2",
        vec![
            conv(&mut rng, "b2c1", 6, 12, 3, 2, 1),
            relu("b2r"),
            conv(&mut rng, "b2c2", 12, 12, 3, 1, 1),
        ],
        vec![conv(&mut rng, "b2p", 6, 12, 1, 2, 0)],
    )
    .unwrap();
    let mut model = Sequential::new("edge-resnet")
        .with(conv(&mut rng, "stem", 3, 6, 3, 1, 1))
        .with(relu("stem_r"))
        .with(Box::new(block1))
        .with(Box::new(block2))
        .with(Box::new(AvgPool2d::new(
            "gap",
            PoolGeometry {
                window: 8,
                stride: 8,
            },
        )))
        .with(Box::new(Flatten::new("flat")))
        .with(Box::new(Linear::new(&mut rng, "fc", 12, 4).unwrap()));
    randomize_biases(&mut model, seed ^ 0xB1A5);
    model
}

#[test]
fn edge_rules_match_the_composed_per_op_reference() {
    let cnn = edge_rule_cnn(501);
    let res = edge_rule_resnet(502);
    for n in [1usize, 3, 8] {
        for amp in [0.01f32, 1.0, 50.0] {
            let mut x = sample(510 + n as u64, n, 3, 7);
            x.as_mut_slice().iter_mut().for_each(|v| *v *= amp);
            check_against_composed(&cnn, 3, 7, &x, &format!("edge-cnn amp {amp}"));
            let mut x = sample(520 + n as u64, n, 3, 16);
            x.as_mut_slice().iter_mut().for_each(|v| *v *= amp);
            check_against_composed(&res, 3, 16, &x, &format!("edge-resnet amp {amp}"));
        }
    }
}

/// An all-zero image quantizes through scale 1.0 at every layer, and
/// NaN / ±inf planted in one image must not leak into its batch
/// neighbours (activation scales are per image).
#[test]
fn zero_and_nonfinite_images_match_the_composed_reference() {
    let cnn = edge_rule_cnn(503);
    let res = edge_rule_resnet(504);
    for (model, hw, what) in [(&cnn, 7usize, "edge-cnn"), (&res, 16, "edge-resnet")] {
        let vol = 3 * hw * hw;
        let mut x = sample(530, 5, 3, hw);
        let data = x.as_mut_slice();
        data[vol..2 * vol].fill(0.0); // image 1: all zero
        data[2 * vol + 5] = f32::NAN; // image 2: NaN only
        data[3 * vol + 7] = f32::INFINITY; // image 3: ±inf and NaN
        data[3 * vol + 8] = f32::NEG_INFINITY;
        data[3 * vol + 9] = f32::NAN;
        data[4 * vol] = -0.0; // image 4: a negative zero, otherwise plain
        check_against_composed(model, 3, hw, &x, &format!("{what} zero/nonfinite"));
    }
}
