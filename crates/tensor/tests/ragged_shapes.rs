//! Ragged-shape exactness: partial column strips through every vector
//! kernel, and pad lanes that must never be stored.
//!
//! Both GEMM families pack B into full-width strips with the last one
//! zero-padded and run it through the same micro-kernel as a full strip.
//! These tests walk every column count across one-and-a-bit strips, in
//! every kernel mode the host offers, against the naive references — and
//! plant NaN / ±inf so that a pad lane reaching memory (rows are
//! contiguous: it would land in the row that follows) cannot go unseen.

use seal_pool::{with_pool, Pool};
use seal_tensor::ops::{
    conv2d, conv2d_infer_packed, dequantize_bias_relu, gemm_i8, gemm_prepacked, matmul,
    matmul_i8_reference, matmul_naive, matmul_naive_fma, quantize_rows_u8, quantized_row_len,
    reset_kernel_mode, set_kernel_mode, Conv2dGeometry, ConvPlanDims, Im2colGather, KernelMode,
    PackedB, PackedBI8,
};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::{uniform, Shape, Tensor};

const MODES: [KernelMode; 4] = [
    KernelMode::Scalar,
    KernelMode::Avx2,
    KernelMode::Avx512,
    KernelMode::Fma,
];

/// Every stored element matches the reference: NaN exactly where the
/// reference is NaN, bit-identical elsewhere.
fn assert_same(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g.is_nan() && w.is_nan()) || g.to_bits() == w.to_bits(),
            "{what}: element {i} is {g}, reference {w}"
        );
    }
}

/// Runs `f` once per kernel mode this host can install.
fn for_each_mode(mut f: impl FnMut(KernelMode)) {
    for mode in MODES {
        if set_kernel_mode(mode) == mode {
            f(mode);
        }
    }
    reset_kernel_mode();
}

#[test]
fn gemm_i8_partial_strips_match_reference_in_every_mode() {
    const SENTINEL: i32 = 0x5EA1_5EA1;
    let mut rng = StdRng::seed_from_u64(0x18);
    for m in [1usize, 3, 4, 5, 64] {
        for k in [1usize, 27, 54, 432] {
            for n in 1..=33usize {
                let a = uniform(&mut rng, Shape::matrix(m, k), -2.0, 2.0);
                let b = uniform(&mut rng, Shape::matrix(k, n), -2.0, 2.0);
                let reference = matmul_i8_reference(&a, &b).unwrap();
                let pack = PackedBI8::pack(&b).unwrap();
                let mut qa = vec![0u8; m * quantized_row_len(k)];
                let mut scales = vec![0.0f32; m];
                quantize_rows_u8(a.as_slice(), m, k, &mut qa, &mut scales);
                for_each_mode(|mode| {
                    // A strip of slack behind the result: the pad lanes
                    // of the last row's last strip would land here.
                    let mut acc = vec![SENTINEL; m * n + 16];
                    gemm_i8(&qa, &pack, &mut acc, m, mode);
                    assert!(
                        acc[m * n..].iter().all(|&v| v == SENTINEL),
                        "{mode:?} gemm_i8 {m}x{k}x{n} stored past the output"
                    );
                    let mut out = vec![0.0f32; m * n];
                    dequantize_bias_relu(
                        &acc[..m * n],
                        &scales,
                        pack.scales(),
                        None,
                        &mut out,
                        m,
                        n,
                        false,
                    );
                    assert_same(
                        &out,
                        reference.as_slice(),
                        &format!("{mode:?} gemm_i8 {m}x{k}x{n}"),
                    );
                });
            }
        }
    }
}

/// Plants NaN in row `min(3, m-1)` of A — the last row of the first
/// register tile, so its pad lanes sit right before a row that is loaded
/// later — and `+inf`/`-inf` in the last valid column of B.
fn plant_nonfinite(a: &mut Tensor, b: &mut Tensor) {
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let n = b.shape().dim(1);
    let row = 3.min(m - 1);
    a.as_mut_slice()[row * k] = f32::NAN;
    b.as_mut_slice()[n - 1] = f32::INFINITY;
    b.as_mut_slice()[(k - 1) * n + n - 1] = f32::NEG_INFINITY;
}

#[test]
fn f32_gemm_partial_strips_match_naive_in_every_mode() {
    let mut rng = StdRng::seed_from_u64(0xF32);
    for m in [1usize, 3, 4, 5, 37] {
        for k in [1usize, 27, 130] {
            for n in 1..=17usize {
                for nonfinite in [false, true] {
                    let mut a = uniform(&mut rng, Shape::matrix(m, k), -2.0, 2.0);
                    let mut b = uniform(&mut rng, Shape::matrix(k, n), -2.0, 2.0);
                    if nonfinite {
                        plant_nonfinite(&mut a, &mut b);
                    }
                    let packed = PackedB::pack(&b).unwrap();
                    for_each_mode(|mode| {
                        let reference = match mode {
                            KernelMode::Fma => matmul_naive_fma(&a, &b).unwrap(),
                            _ => matmul_naive(&a, &b).unwrap(),
                        };
                        let what = format!("{mode:?} {m}x{k}x{n} nonfinite={nonfinite}");
                        let plain = matmul(&a, &b).unwrap();
                        assert_same(
                            plain.as_slice(),
                            reference.as_slice(),
                            &format!("matmul {what}"),
                        );
                        let mut out = vec![0.0f32; m * n];
                        gemm_prepacked(a.as_slice(), &packed, &mut out, m, mode, false);
                        assert_same(
                            &out,
                            reference.as_slice(),
                            &format!("gemm_prepacked {what}"),
                        );
                    });
                }
            }
        }
    }
}

#[test]
fn planned_conv_matches_conv2d_on_narrow_images_at_any_batch_and_thread_count() {
    let geom = Conv2dGeometry::same3x3();
    let mut rng = StdRng::seed_from_u64(0xC0);
    // (c_in, hw, c_out): s = hw² ∈ {1, 4, 16}; c_out 6 leaves edge rows,
    // c_in 16 crosses a k-panel (kdim 144 > KC), and 48→48 at batch 8 is
    // large enough for the row-block parallel split of the folded GEMM.
    for (c_in, hw, c_out) in [(5, 1, 6), (5, 2, 6), (16, 2, 7), (5, 4, 6), (48, 2, 48)] {
        let dims = ConvPlanDims {
            c_in,
            h: hw,
            w: hw,
            c_out,
            oh: hw,
            ow: hw,
            geom,
        };
        let gather = Im2colGather::compile(&dims);
        for n in [1usize, 3, 8] {
            for nonfinite in [false, true] {
                let mut x = uniform(&mut rng, Shape::nchw(n, c_in, hw, hw), -1.0, 1.0);
                let mut w = uniform(&mut rng, Shape::nchw(c_out, c_in, 3, 3), -0.5, 0.5);
                let bias = uniform(&mut rng, Shape::vector(c_out), -0.1, 0.1);
                if nonfinite {
                    // One weight row (a GEMM A row) and the last pixel of
                    // the last image (the last valid GEMM B column).
                    let kdim = c_in * 9;
                    w.as_mut_slice()[3.min(c_out - 1) * kdim] = f32::NAN;
                    *x.as_mut_slice().last_mut().unwrap() = f32::INFINITY;
                }
                for_each_mode(|mode| {
                    let reference = conv2d(&x, &w, Some(&bias), &geom).unwrap();
                    for threads in [1usize, 2, 7] {
                        let pool = Pool::new(threads);
                        let mut out = vec![0.0f32; n * c_out * hw * hw];
                        with_pool(&pool, || {
                            conv2d_infer_packed(
                                x.as_slice(),
                                n,
                                &dims,
                                &gather,
                                w.as_slice(),
                                bias.as_slice(),
                                &mut out,
                                false,
                                mode,
                            )
                            .unwrap()
                        });
                        assert_same(
                            &out,
                            reference.as_slice(),
                            &format!(
                                "{mode:?} planned conv c_in {c_in} hw {hw} c_out {c_out} \
                                 batch {n} threads {threads} nonfinite={nonfinite}"
                            ),
                        );
                    }
                });
            }
        }
    }
}
