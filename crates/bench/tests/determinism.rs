//! Determinism suite: the parallel kernels must be **bitwise identical**
//! for any thread count, and **0 ULP** from the naive reference loops.
//!
//! Two layers of evidence:
//! * in-process: run every hot path under `with_pool` at 1/2/7 threads and
//!   compare `f32::to_bits` streams,
//! * subprocess: run the `kernel_probe` binary under `SEAL_THREADS ∈
//!   {1, 2, 7}` × `SEAL_KERNEL ∈ {scalar, avx2, avx512}` so the
//!   env-resolved *global* pool and kernel-mode paths are covered too,
//!   asserting byte-identical stdout.

use std::process::Command;

use seal_nn::layers::{Conv2d, Flatten, Linear, ReLU};
use seal_nn::{fit, FitConfig, Sequential, Sgd};
use seal_pool::{with_pool, Pool};
use seal_tensor::ops::{
    conv2d, conv2d_backward, conv2d_reference, gemm_i8, matmul, matmul_naive, matmul_naive_fma,
    quantize_rows_u8, quantized_row_len, reset_kernel_mode, set_kernel_mode, Conv2dGeometry,
    KernelMode, PackedBI8,
};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::{uniform, Shape, Tensor};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn matmul_is_bitwise_identical_for_any_thread_count_and_zero_ulp_vs_naive() {
    // Shapes chosen to hit every kernel path: below/above the parallel
    // threshold, MR/NR-aligned, ragged edges, multiple KC panels.
    for (m, k, n) in [(4, 8, 8), (33, 129, 17), (97, 83, 65), (64, 300, 72)] {
        let mut rng = StdRng::seed_from_u64((m * 1000 + k * 10 + n) as u64);
        let a = uniform(&mut rng, Shape::matrix(m, k), -1.0, 1.0);
        let b = uniform(&mut rng, Shape::matrix(k, n), -1.0, 1.0);
        let reference = bits(&matmul_naive(&a, &b).unwrap());
        for threads in THREAD_COUNTS {
            let pool = Pool::new(threads);
            let out = with_pool(&pool, || matmul(&a, &b).unwrap());
            assert_eq!(
                bits(&out),
                reference,
                "matmul {m}x{k}x{n} diverged from naive at {threads} threads"
            );
        }
    }
}

#[test]
fn conv2d_is_bitwise_identical_for_any_thread_count_and_zero_ulp_vs_reference() {
    let geom = Conv2dGeometry::same3x3();
    let mut rng = StdRng::seed_from_u64(21);
    // c_out = 40 > CO_TILE exercises multi-tile output-channel ranges.
    let x = uniform(&mut rng, Shape::nchw(3, 8, 10, 10), -1.0, 1.0);
    let w = uniform(&mut rng, Shape::nchw(40, 8, 3, 3), -0.5, 0.5);
    let bias = uniform(&mut rng, Shape::vector(40), -0.1, 0.1);
    let reference = bits(&conv2d_reference(&x, &w, Some(&bias), &geom).unwrap());
    let go = uniform(
        &mut rng,
        Shape::nchw(3, 40, 10, 10),
        -1.0,
        1.0,
    );
    let grads_1t = {
        let pool = Pool::new(1);
        with_pool(&pool, || conv2d_backward(&x, &w, &go, &geom).unwrap())
    };
    for threads in THREAD_COUNTS {
        let pool = Pool::new(threads);
        let (out, grads) = with_pool(&pool, || {
            (
                conv2d(&x, &w, Some(&bias), &geom).unwrap(),
                conv2d_backward(&x, &w, &go, &geom).unwrap(),
            )
        });
        assert_eq!(
            bits(&out),
            reference,
            "conv2d forward diverged from direct reference at {threads} threads"
        );
        assert_eq!(
            bits(&grads.grad_input),
            bits(&grads_1t.grad_input),
            "conv2d grad_input diverged at {threads} threads"
        );
        assert_eq!(
            bits(&grads.grad_weights),
            bits(&grads_1t.grad_weights),
            "conv2d grad_weights diverged at {threads} threads"
        );
        assert_eq!(
            bits(&grads.grad_bias),
            bits(&grads_1t.grad_bias),
            "conv2d grad_bias diverged at {threads} threads"
        );
    }
}

/// Builds the probe CNN and runs one deterministic epoch, returning the
/// final weights — the `seal-attack` substitute-retraining cycle in
/// miniature.
fn train_once() -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(22);
    let geom = Conv2dGeometry::same3x3();
    let mut model = Sequential::new("det-cnn")
        .with(Box::new(Conv2d::new(&mut rng, "c1", 3, 8, geom).unwrap()))
        .with(Box::new(ReLU::new("r1")))
        .with(Box::new(Flatten::new("f")))
        .with(Box::new(Linear::new(&mut rng, "fc", 8 * 8 * 8, 10).unwrap()));
    let images = uniform(&mut rng, Shape::nchw(8, 3, 8, 8), -1.0, 1.0);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    let mut opt = Sgd::new(0.05).with_momentum(0.9);
    let config = FitConfig {
        epochs: 1,
        batch_size: 4,
        lr_decay: 1.0,
        shuffle: false,
    };
    fit(&mut model, &images, &labels, &mut opt, &config, &mut rng).unwrap();
    model
        .export_state()
        .into_iter()
        .flatten()
        .map(f32::to_bits)
        .collect()
}

#[test]
fn training_step_is_bitwise_identical_for_any_thread_count() {
    let reference = {
        let pool = Pool::new(1);
        with_pool(&pool, train_once)
    };
    for threads in THREAD_COUNTS {
        let pool = Pool::new(threads);
        let state = with_pool(&pool, train_once);
        assert_eq!(
            state, reference,
            "training step produced different weights at {threads} threads"
        );
    }
}

#[test]
fn kernel_probe_stdout_is_identical_under_seal_threads_and_seal_kernel_env() {
    // `scalar`, `avx2` and `avx512` (a request the host cannot run
    // degrades within that chain) are one rounding class: with the thread
    // count they must never leak into the numerics. `fma` is its own
    // class and is pinned against its own reference below.
    let exe = env!("CARGO_BIN_EXE_kernel_probe");
    let mut outputs = Vec::new();
    for kernel in ["scalar", "avx2", "avx512"] {
        for threads in THREAD_COUNTS {
            let out = Command::new(exe)
                .env("SEAL_THREADS", threads.to_string())
                .env("SEAL_KERNEL", kernel)
                .output()
                .unwrap_or_else(|e| panic!("running {exe}: {e}"));
            assert!(
                out.status.success(),
                "kernel_probe failed under SEAL_THREADS={threads} SEAL_KERNEL={kernel}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            outputs.push(String::from_utf8_lossy(&out.stdout).into_owned());
        }
    }
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1]),
        "kernel_probe output varies with SEAL_THREADS / SEAL_KERNEL:\n{}",
        outputs.join("---\n")
    );
    assert!(
        [
            "matmul",
            "training_step",
            "ragged_gemm_i8",
            "ragged_planned",
            "plan_f32",
            "plan_i8"
        ]
        .iter()
        .all(|section| outputs[0].contains(section)),
        "probe output missing expected sections:\n{}",
        outputs[0]
    );
}

#[test]
fn every_available_kernel_mode_is_zero_ulp_vs_its_own_reference() {
    // `SEAL_KERNEL` dispatch: Scalar, Avx2 and Avx512 preserve the
    // serial mul-then-add rounding and must match `matmul_naive`
    // exactly; Fma fuses the rounding and has its own reference. Each
    // installed mode must be bitwise thread-count independent, like the
    // default path.
    for mode in [
        KernelMode::Scalar,
        KernelMode::Avx2,
        KernelMode::Avx512,
        KernelMode::Fma,
    ] {
        if set_kernel_mode(mode) != mode {
            reset_kernel_mode();
            continue; // not available on this host — degrade path covered elsewhere
        }
        for (m, k, n) in [(33, 129, 17), (64, 300, 72)] {
            let mut rng = StdRng::seed_from_u64((m * 1000 + k * 10 + n) as u64);
            let a = uniform(&mut rng, Shape::matrix(m, k), -1.0, 1.0);
            let b = uniform(&mut rng, Shape::matrix(k, n), -1.0, 1.0);
            let reference = match mode {
                KernelMode::Fma => bits(&matmul_naive_fma(&a, &b).unwrap()),
                _ => bits(&matmul_naive(&a, &b).unwrap()),
            };
            for threads in THREAD_COUNTS {
                let pool = Pool::new(threads);
                let out = with_pool(&pool, || matmul(&a, &b).unwrap());
                assert_eq!(
                    bits(&out),
                    reference,
                    "{mode:?} matmul {m}x{k}x{n} diverged from its reference at {threads} threads"
                );
            }
        }
        reset_kernel_mode();
    }
}

#[test]
fn int8_gemm_is_identical_across_every_mode_and_thread_count() {
    // The int8 path makes a stronger claim than the f32 one: integer
    // accumulation has no rounding at all, so *every* kernel mode —
    // scalar, AVX2 `vpmaddwd`, AVX-512 VNNI `vpdpbusd` — must agree to
    // the exact i32, not merely within its own mode family.
    for (m, k, n) in [(4, 8, 8), (33, 129, 17), (97, 83, 65), (64, 300, 72)] {
        let mut rng = StdRng::seed_from_u64((m * 1000 + k * 10 + n) as u64);
        let a = uniform(&mut rng, Shape::matrix(m, k), -1.0, 1.0);
        let b = uniform(&mut rng, Shape::matrix(k, n), -1.0, 1.0);
        let packed = PackedBI8::pack(&b).unwrap();
        let mut qa = vec![0u8; m * quantized_row_len(k)];
        let mut scales = vec![0.0f32; m];
        quantize_rows_u8(a.as_slice(), m, k, &mut qa, &mut scales);

        let reference = {
            let mut acc = vec![0i32; m * n];
            gemm_i8(&qa, &packed, &mut acc, m, KernelMode::Scalar);
            acc
        };
        for mode in [KernelMode::Avx2, KernelMode::Avx512] {
            if set_kernel_mode(mode) != mode {
                reset_kernel_mode();
                continue; // not available on this host
            }
            for threads in THREAD_COUNTS {
                let pool = Pool::new(threads);
                let mut acc = vec![0i32; m * n];
                with_pool(&pool, || gemm_i8(&qa, &packed, &mut acc, m, mode));
                assert_eq!(
                    acc, reference,
                    "{mode:?} gemm_i8 {m}x{k}x{n} diverged from scalar at {threads} threads"
                );
            }
            reset_kernel_mode();
        }
    }
}

#[test]
fn activation_quantization_is_bitwise_identical_for_any_thread_count() {
    // `quantize_rows_u8` feeds every int8 GEMM; if its rounding varied
    // with the pool size, bit-exact GEMMs downstream would not save the
    // plan's determinism claim.
    let (m, k) = (64, 300);
    let mut rng = StdRng::seed_from_u64(77);
    let a = uniform(&mut rng, Shape::matrix(m, k), -1.0, 1.0);
    let run = |threads: usize| {
        let pool = Pool::new(threads);
        let mut qa = vec![0u8; m * quantized_row_len(k)];
        let mut scales = vec![0.0f32; m];
        with_pool(&pool, || {
            quantize_rows_u8(a.as_slice(), m, k, &mut qa, &mut scales)
        });
        (qa, scales.iter().map(|s| s.to_bits()).collect::<Vec<u32>>())
    };
    let reference = run(1);
    for threads in THREAD_COUNTS {
        assert_eq!(
            run(threads),
            reference,
            "quantize_rows_u8 diverged at {threads} threads"
        );
    }
}
