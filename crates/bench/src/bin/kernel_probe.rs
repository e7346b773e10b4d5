//! Determinism probe: hashes the bitwise output of every parallelized
//! hot path (matmul, conv2d forward/backward, a full training step, the
//! ragged shapes whose last column strip is zero-padded, and the f32 and
//! int8 compiled plans of the three zoo models) on the
//! **global** seal-pool, which resolves its width from the
//! `SEAL_THREADS` environment variable.
//!
//! The determinism suite (`crates/bench/tests/determinism.rs`) runs this
//! binary under `SEAL_THREADS ∈ {1, 2, 7}` and asserts byte-identical
//! stdout — the thread count must never leak into the numerics, so it is
//! deliberately *not* printed here.

use seal_nn::layers::{Conv2d, Flatten, Linear, ReLU};
use seal_nn::models::{mlp, resnet, vgg16, MlpConfig, ResNetConfig, VggConfig};
use seal_nn::{fit, CompiledModel, FitConfig, Sequential, Sgd};
use seal_tensor::ops::{
    conv2d, conv2d_backward, conv2d_infer_packed, kernel_mode, matmul, matmul_i8, Conv2dGeometry,
    ConvPlanDims, Im2colGather,
};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::{uniform, Shape, Tensor};

/// FNV-1a 64-bit over the raw little-endian bit patterns of `values`.
fn fnv1a(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn probe_matmul() -> u64 {
    let mut rng = StdRng::seed_from_u64(11);
    let a = uniform(&mut rng, Shape::matrix(97, 83), -1.0, 1.0);
    let b = uniform(&mut rng, Shape::matrix(83, 65), -1.0, 1.0);
    fnv1a(matmul(&a, &b).expect("shapes are valid").as_slice())
}

fn probe_conv_forward_backward() -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(12);
    let geom = Conv2dGeometry::same3x3();
    let x = uniform(&mut rng, Shape::nchw(3, 8, 10, 10), -1.0, 1.0);
    let w = uniform(&mut rng, Shape::nchw(40, 8, 3, 3), -0.5, 0.5);
    let bias = uniform(&mut rng, Shape::vector(40), -0.1, 0.1);
    let out = conv2d(&x, &w, Some(&bias), &geom).expect("geometry is valid");
    let go = uniform(&mut rng, out.shape().clone(), -1.0, 1.0);
    let grads = conv2d_backward(&x, &w, &go, &geom).expect("geometry is valid");
    let mut flat = grads.grad_input.as_slice().to_vec();
    flat.extend_from_slice(grads.grad_weights.as_slice());
    flat.extend_from_slice(grads.grad_bias.as_slice());
    (fnv1a(out.as_slice()), fnv1a(&flat))
}

/// One epoch of SGD on a tiny CNN — the same forward/backward/step cycle
/// `seal-attack` substitute retraining drives, shuffling disabled so the
/// batch stream is fixed.
fn probe_training_step() -> u64 {
    let mut rng = StdRng::seed_from_u64(13);
    let geom = Conv2dGeometry::same3x3();
    let mut model = Sequential::new("probe-cnn")
        .with(Box::new(
            Conv2d::new(&mut rng, "c1", 3, 8, geom).expect("valid conv"),
        ))
        .with(Box::new(ReLU::new("r1")))
        .with(Box::new(Flatten::new("f")))
        .with(Box::new(
            Linear::new(&mut rng, "fc", 8 * 8 * 8, 10).expect("valid linear"),
        ));
    let images = uniform(&mut rng, Shape::nchw(8, 3, 8, 8), -1.0, 1.0);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    let mut opt = Sgd::new(0.05).with_momentum(0.9);
    let config = FitConfig {
        epochs: 1,
        batch_size: 4,
        lr_decay: 1.0,
        shuffle: false,
    };
    fit(&mut model, &images, &labels, &mut opt, &config, &mut rng).expect("fit succeeds");
    let state: Vec<f32> = model.export_state().into_iter().flatten().collect();
    let logits = model.forward_infer(&images).expect("forward succeeds");
    fnv1a(&[state, logits.as_slice().to_vec()].concat())
}

/// Ragged shapes: every column count across one-and-a-bit strips of the
/// f32 and int8 GEMMs (tall enough to take the row-block parallel path
/// once a few columns are in), and planned convolutions on images
/// narrower than one strip, which fold the batch into one GEMM.
fn probe_ragged() -> (u64, u64, u64) {
    let mut rng = StdRng::seed_from_u64(15);
    let (mut f32_out, mut i8_out, mut conv_out) = (Vec::new(), Vec::new(), Vec::new());
    for n in 1..=17 {
        let a = uniform(&mut rng, Shape::matrix(300, 130), -1.0, 1.0);
        let b = uniform(&mut rng, Shape::matrix(130, n), -1.0, 1.0);
        f32_out.extend_from_slice(matmul(&a, &b).expect("shapes are valid").as_slice());
    }
    for n in 1..=33 {
        let a = uniform(&mut rng, Shape::matrix(640, 54), -1.0, 1.0);
        let b = uniform(&mut rng, Shape::matrix(54, n), -1.0, 1.0);
        i8_out.extend_from_slice(matmul_i8(&a, &b).expect("shapes are valid").as_slice());
    }
    let geom = Conv2dGeometry::same3x3();
    for (c, hw, n) in [(5, 1, 3), (5, 2, 3), (48, 2, 8)] {
        let dims = ConvPlanDims {
            c_in: c,
            h: hw,
            w: hw,
            c_out: c,
            oh: hw,
            ow: hw,
            geom,
        };
        let x = uniform(&mut rng, Shape::nchw(n, c, hw, hw), -1.0, 1.0);
        let w = uniform(&mut rng, Shape::nchw(c, c, 3, 3), -0.5, 0.5);
        let bias = uniform(&mut rng, Shape::vector(c), -0.1, 0.1);
        let mut out = vec![0.0f32; n * c * hw * hw];
        conv2d_infer_packed(
            x.as_slice(),
            n,
            &dims,
            &Im2colGather::compile(&dims),
            w.as_slice(),
            bias.as_slice(),
            &mut out,
            false,
            kernel_mode(),
        )
        .expect("dims are consistent");
        conv_out.extend_from_slice(&out);
    }
    (fnv1a(&f32_out), fnv1a(&i8_out), fnv1a(&conv_out))
}

/// Logits of reduced vgg16 / resnet18 / mlp compiled as f32 or int8 plans, at
/// each of `batches` (`max_batch` 8, so the larger ones fold the batch of
/// the narrow convolutions into one GEMM).
fn probe_plans(seed: u64, quantized: bool, batches: [usize; 3]) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let vgg = VggConfig::reduced();
    let res = ResNetConfig::reduced(18);
    let models = [
        (
            vgg16(&mut rng, &vgg).expect("valid config"),
            vgg.input_channels,
            vgg.input_hw,
        ),
        (
            resnet(&mut rng, &res).expect("valid config"),
            res.input_channels,
            res.input_hw,
        ),
        (
            mlp(&mut rng, &MlpConfig::reduced()).expect("valid config"),
            3,
            8,
        ),
    ];
    let mut logits = Vec::new();
    for (model, c, hw) in &models {
        let input = Shape::nchw(1, *c, *hw, *hw);
        let mut plan =
            CompiledModel::compile(model, &input, 8, quantized).expect("zoo models are plannable");
        for n in batches {
            let x = uniform(&mut rng, Shape::nchw(n, *c, *hw, *hw), -1.0, 1.0);
            logits.extend_from_slice(plan.execute_into(&x).expect("shape matches the plan"));
        }
    }
    fnv1a(&logits)
}

fn probe_elementwise() -> u64 {
    let mut rng = StdRng::seed_from_u64(14);
    let x = uniform(&mut rng, Shape::vector(20_000), -2.0, 2.0);
    let y: Tensor = x.par_map(|v| (v * 1.5).max(0.0));
    fnv1a(y.as_slice())
}

fn main() {
    println!("matmul          {:#018x}", probe_matmul());
    let (fwd, bwd) = probe_conv_forward_backward();
    println!("conv2d_forward  {fwd:#018x}");
    println!("conv2d_backward {bwd:#018x}");
    println!("training_step   {:#018x}", probe_training_step());
    println!("elementwise     {:#018x}", probe_elementwise());
    let (gemm, gemm_i8, conv) = probe_ragged();
    println!("ragged_gemm     {gemm:#018x}");
    println!("ragged_gemm_i8  {gemm_i8:#018x}");
    println!("ragged_planned  {conv:#018x}");
    // The whole f32 data path of the served plan: strip layout, padded
    // im2col fill, GEMM tile, fused BN/ReLU/max-pool epilogue.
    println!(
        "plan_f32        {:#018x}",
        probe_plans(17, false, [1, 3, 8])
    );
    // The whole u8 NHWC data path (entry quantize, run-copy gather, int8
    // GEMM, requantize + max-pool, f32 exits at residual adds and logits).
    println!("plan_i8         {:#018x}", probe_plans(16, true, [1, 5, 8]));
}
