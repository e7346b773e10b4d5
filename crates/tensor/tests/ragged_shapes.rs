//! Ragged-shape exactness: partial column strips through every vector
//! kernel, and pad lanes that must never be stored.
//!
//! Both GEMM families pack B into full-width strips with the last one
//! zero-padded and run it through the same micro-kernel as a full strip.
//! These tests walk every column count across one-and-a-bit strips, in
//! every kernel mode the host offers, against the naive references — and
//! plant NaN / ±inf so that a pad lane reaching memory (rows are
//! contiguous: it would land in the row that follows) cannot go unseen.
//!
//! The planned f32 convolution — zero-padded image, strip-by-strip im2col
//! fill, register tile, fused batch-norm / ReLU / max-pool epilogue — is
//! walked over the geometry the model zoo never reaches (kernel 1/3/5,
//! stride 1/2, padding 0/1/2, maps that divide a strip, fill whole
//! strips, or neither) against a serial im2col loop written out here
//! (which `conv2d`, itself the planned kernel, must equal too) and the
//! standalone ops — and,
//! compiled the way a plan compiles it, over maps narrower than the
//! kernel's reach, where whole taps read only the zero border and are
//! dropped. Two guard tests pin the models where dropping them would
//! change a bit (a `−0.0` bias; a NaN or ∞ weight on a dead tap), raw
//! output bit for bit.
//!
//! The u8 NHWC kernels of the int8 data path get the same treatment
//! against the per-op kernels they replace in the plans: the implicit
//! conv (whole-quad run reads that deliberately overshoot into poisoned
//! bytes its zero pad weights cancel), the f32 → u8 entry conversion and
//! the requantizing (+ max-pool) write-back, each with a sentinel strip
//! behind everything it may touch.

use seal_pool::{with_pool, Pool};
use seal_tensor::ops::{
    conv2d, conv2d_infer_fused, conv2d_infer_packed, dequantize_bias_relu,
    dequantize_planar_bias_relu, dequantize_transpose_bias_relu, gather_patches_u8, gemm_i8,
    gemm_i8_conv, gemm_prepacked, matmul, matmul_i8_reference, matmul_naive, matmul_naive_fma,
    max_pool2d_into, quantize_nhwc_u8, quantize_per_channel, quantize_rows_u8, quantize_slice_u8,
    quantized_row_len, reset_kernel_mode, set_kernel_mode, BatchNormParams, Conv2dGeometry,
    ConvEpilogue, ConvPlanDims, Im2colGather, ImplicitConv, KernelMode, NhwcImage, PackedB,
    PackedBI8, PatchGather, PoolGeometry, QuantAxis, Requantize, PATCH_SLACK,
};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::Rng;
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

/// Floats of sentinel placed behind every f32 buffer a kernel writes: a
/// masked store one lane too wide on the last row lands here.
const F32_GUARD: usize = 16;
const F32_SENTINEL: f32 = -12345.678;

/// The planned f32 convolution's oracle, independent of the library's
/// fill and GEMM: each image's im2col matrix built cell by cell (`0.0`
/// where the window overlaps the padding), then every output its bias
/// plus `w·cell` over all `c_in·k·k` rows in ascending `(ci, ky, kx)`
/// order, one serial accumulator — fused (`mul_add`) in `Fma` mode, as
/// the kernels round there. Full depth: a dead tap's products are added.
fn im2col_oracle(
    x: &Tensor,
    wt: &Tensor,
    bias: &Tensor,
    dims: &ConvPlanDims,
    mode: KernelMode,
) -> Vec<f32> {
    let ConvPlanDims {
        c_in,
        h,
        w,
        c_out,
        oh,
        ow,
        geom,
    } = *dims;
    let (k, s) = (geom.kernel, oh * ow);
    let kdim = c_in * k * k;
    let (x, wt, bias) = (x.as_slice(), wt.as_slice(), bias.as_slice());
    let cell = |o: usize, kpos: usize, n: usize| {
        (o * geom.stride + kpos)
            .checked_sub(geom.padding)
            .filter(|&i| i < n)
    };
    let mut out = Vec::with_capacity(x.len() / (c_in * h * w).max(1) * c_out * s);
    for img in x.chunks_exact(c_in * h * w) {
        let mut cols = vec![0.0f32; kdim * s];
        for q in 0..kdim {
            let (ci, ky, kx) = (q / (k * k), q / k % k, q % k);
            for oy in 0..oh {
                for ox in 0..ow {
                    if let (Some(iy), Some(ix)) = (cell(oy, ky, h), cell(ox, kx, w)) {
                        cols[q * s + oy * ow + ox] = img[(ci * h + iy) * w + ix];
                    }
                }
            }
        }
        for co in 0..c_out {
            for p in 0..s {
                let mut acc = bias[co];
                for q in 0..kdim {
                    let (a, b) = (wt[co * kdim + q], cols[q * s + p]);
                    acc = match mode {
                        KernelMode::Fma => a.mul_add(b, acc),
                        _ => acc + a * b,
                    };
                }
                out.push(acc);
            }
        }
    }
    out
}

#[test]
fn f32_gemm_partial_strips_match_naive_in_every_mode() {
    let mut rng = StdRng::seed_from_u64(0xF32);
    // Every tile height and the one-short heights behind it, and every
    // column count across one-and-a-bit 16-lane strips plus the counts
    // one either side of the second strip's end.
    for m in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 37] {
        for k in [1usize, 27, 130] {
            for n in (1..=17usize).chain([31, 33]) {
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
                        let mut out = vec![0.0f32; m * n + F32_GUARD];
                        out[m * n..].fill(F32_SENTINEL);
                        gemm_prepacked(a.as_slice(), &packed, &mut out[..m * n], m, mode, false);
                        assert!(
                            out[m * n..].iter().all(|&v| v == F32_SENTINEL),
                            "gemm_prepacked {what} stored past the output"
                        );
                        assert_same(
                            &out[..m * n],
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
                    let reference = im2col_oracle(&x, &w, &bias, &dims, mode);
                    let what = format!(
                        "{mode:?} c_in {c_in} hw {hw} c_out {c_out} batch {n} \
                         nonfinite={nonfinite}"
                    );
                    let direct = conv2d(&x, &w, Some(&bias), &geom).unwrap();
                    assert_same(direct.as_slice(), &reference, &format!("conv2d {what}"));
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
                            &reference,
                            &format!("planned conv {what} threads {threads}"),
                        );
                    }
                });
            }
        }
    }
}

/// The input side length an output side `o` comes from, when there is one.
fn input_side(o: usize, geom: &Conv2dGeometry) -> Option<usize> {
    let side = ((o - 1) * geom.stride + geom.kernel).checked_sub(2 * geom.padding)?;
    (side > 0 && geom.output_size(side) == Some(o)).then_some(side)
}

/// Whether kernel tap `t` (row-major `ky·k + kx`) reads the image at some
/// output position of `dims` — written out here from the definition.
fn tap_is_live(dims: &ConvPlanDims, t: usize) -> bool {
    let g = &dims.geom;
    let inside = |kpos: usize, n: usize, o: usize| {
        (0..o).any(|i| {
            (i * g.stride + kpos)
                .checked_sub(g.padding)
                .is_some_and(|c| c < n)
        })
    };
    inside(t / g.kernel, dims.h, dims.oh) && inside(t % g.kernel, dims.w, dims.ow)
}

/// One case of the geometry walks below: random operands for `dims` at
/// batch `n` (a NaN weight row and an ∞ pixel when `nonfinite`),
/// [`im2col_oracle`] as the reference of each rounding class (which
/// `conv2d` must equal), the planned convolution in every mode — each call
/// on the pool `turn` selects for that mode — and a sentinel behind the
/// output. With `live`, the convolution is compiled
/// the way a plan compiles it, dead taps dropped
/// ([`Im2colGather::compile_live`]), and the NaN goes into a live tap, so
/// that the drop stays legal; returns the rows the GEMM ran.
fn check_planned_conv(
    rng: &mut StdRng,
    dims: &ConvPlanDims,
    n: usize,
    nonfinite: bool,
    live: bool,
    pools: &[Pool],
    turn: usize,
) -> usize {
    let ConvPlanDims {
        c_in,
        h,
        w,
        c_out,
        oh,
        ow,
        geom,
    } = *dims;
    let kdim = c_in * geom.kernel * geom.kernel;
    let mut x = uniform(rng, Shape::nchw(n, c_in, h, w), -1.0, 1.0);
    let mut wt = uniform(
        rng,
        Shape::nchw(c_out, c_in, geom.kernel, geom.kernel),
        -0.5,
        0.5,
    );
    let bias = uniform(rng, Shape::vector(c_out), -0.1, 0.1);
    if nonfinite {
        let q = if live {
            (0..kdim)
                .find(|&q| tap_is_live(dims, q % (kdim / c_in)))
                .unwrap()
        } else {
            0
        };
        wt.as_mut_slice()[3.min(c_out - 1) * kdim + q] = f32::NAN;
        *x.as_mut_slice().last_mut().unwrap() = f32::INFINITY;
    }
    let mut planned = wt.as_slice().to_vec();
    let gather = if live {
        Im2colGather::compile_live(dims, &mut planned, bias.as_slice())
    } else {
        Im2colGather::compile(dims)
    };
    let len = n * c_out * oh * ow;
    let mut references: [Option<Vec<f32>>; 2] = [None, None];
    for_each_mode(|mode| {
        let reference = references[(mode == KernelMode::Fma) as usize].get_or_insert_with(|| {
            let reference = im2col_oracle(&x, &wt, &bias, dims, mode);
            let direct = conv2d(&x, &wt, Some(&bias), &geom).unwrap();
            assert_same(
                direct.as_slice(),
                &reference,
                &format!("{mode:?} conv2d {dims:?} batch {n}"),
            );
            reference
        });
        let pool = &pools[(turn + mode as usize) % pools.len()];
        let mut out = vec![F32_SENTINEL; len + F32_GUARD];
        with_pool(pool, || {
            conv2d_infer_packed(
                x.as_slice(),
                n,
                dims,
                &gather,
                &planned,
                bias.as_slice(),
                &mut out[..len],
                false,
                mode,
            )
            .unwrap()
        });
        let what = format!(
            "{mode:?} {dims:?} batch {n} threads {} nonfinite={nonfinite} live={live}",
            pool.threads()
        );
        assert!(
            out[len..].iter().all(|&v| v == F32_SENTINEL),
            "{what}: stored past the output"
        );
        assert_same(&out[..len], reference, &what);
    });
    gather.depth()
}

/// Planned conv ≡ `conv2d` ≡ the im2col oracle, bit for bit, over the geometry the zoo never
/// reaches: kernel 1/3/5, stride 1/2, padding 0/1/2, non-square maps
/// whose width divides a 16-lane strip (1, 2, 8, 16), fills whole strips
/// or neither (3, 5, 7, 10, 17, 20) — so strips start mid-row, straddle
/// rows and images, and end in pad lanes — `c_out` with and without a
/// short last tile, batches that fold and that do not, every mode. The
/// thread count (1/2/7) rotates per call, so that every mode meets every
/// count at every batch size over the run (the narrow-image test above
/// crosses them fully); the NaN / ∞ plants ride every other case.
#[test]
fn planned_conv_matches_conv2d_across_kernels_strides_paddings_and_strip_alignments() {
    let mut rng = StdRng::seed_from_u64(0xC1);
    let pools: Vec<Pool> = [1usize, 2, 7].into_iter().map(Pool::new).collect();
    // `c_in` 6 under a 5×5 kernel crosses a k-panel (kdim 150 > KC).
    let (c_outs, c_ins, ohs) = (
        [1usize, 5, 6, 7, 48],
        [1usize, 3, 2, 6],
        [1usize, 3, 2, 6, 4],
    );
    let mut shapes = 0usize;
    for kernel in [1usize, 3, 5] {
        for stride in [1usize, 2] {
            for padding in [0usize, 1, 2] {
                for ow in [1usize, 2, 3, 5, 7, 8, 10, 16, 17, 20] {
                    let geom = Conv2dGeometry {
                        kernel,
                        stride,
                        padding,
                    };
                    let oh = ohs[shapes % ohs.len()];
                    let (Some(h), Some(w)) = (input_side(oh, &geom), input_side(ow, &geom)) else {
                        continue;
                    };
                    shapes += 1;
                    // Two of the five `c_out`s per shape, every one of
                    // them with every kernel/stride/padding over the run.
                    for c_out in [c_outs[shapes % 5], c_outs[(shapes / 5 + 2) % 5]] {
                        let dims = ConvPlanDims {
                            c_in: c_ins[shapes % c_ins.len()],
                            h,
                            w,
                            c_out,
                            oh,
                            ow,
                            geom,
                        };
                        for n in [1usize, 3, 8] {
                            let turn = shapes + n;
                            let nonfinite = turn.is_multiple_of(2);
                            check_planned_conv(&mut rng, &dims, n, nonfinite, false, &pools, turn);
                        }
                    }
                }
            }
        }
    }
    // 180 combinations less those whose output side has no input side: a
    // 1×1 kernel cannot see past padding it does not need.
    assert!(
        shapes >= 120,
        "geometry filter dropped planned shapes: {shapes}"
    );
}

/// The plan's compile path on maps narrower than the kernel's reach —
/// 1×1, 2×2 and the non-square 1×2 / 2×1 inputs under kernel 3/5,
/// padding 1/2, stride 1/2 — where whole taps read only the zero border
/// and [`Im2colGather::compile_live`] drops them (and, where no kept tap
/// reads the border either, the zero-pad): still the full-depth oracle bit for bit, in
/// every mode, at batches that fold and that do not, with a NaN weight in
/// a live tap and an ∞ pixel on every other case. Every case runs exactly
/// the live rows.
#[test]
fn planned_conv_without_dead_taps_matches_conv2d_on_maps_narrower_than_the_kernel() {
    let mut rng = StdRng::seed_from_u64(0xC2);
    let pools: Vec<Pool> = [1usize, 2, 7].into_iter().map(Pool::new).collect();
    let (mut cases, mut dropped) = (0usize, 0usize);
    for kernel in [3usize, 5] {
        for padding in [1usize, 2] {
            for stride in [1usize, 2] {
                let geom = Conv2dGeometry {
                    kernel,
                    stride,
                    padding,
                };
                for (h, w) in [(1usize, 1usize), (2, 2), (1, 2), (2, 1)] {
                    let (Some(oh), Some(ow)) = (geom.output_size(h), geom.output_size(w)) else {
                        continue;
                    };
                    for (c_in, c_out) in [(1usize, 1usize), (5, 6), (16, 7)] {
                        let dims = ConvPlanDims {
                            c_in,
                            h,
                            w,
                            c_out,
                            oh,
                            ow,
                            geom,
                        };
                        let live = (0..kernel * kernel)
                            .filter(|&t| tap_is_live(&dims, t))
                            .count();
                        for n in [1usize, 3, 8] {
                            cases += 1;
                            let nonfinite = cases.is_multiple_of(2);
                            let rows = check_planned_conv(
                                &mut rng, &dims, n, nonfinite, true, &pools, cases,
                            );
                            assert_eq!(rows, c_in * live, "{dims:?}: rows the GEMM ran");
                            dropped += usize::from(live < kernel * kernel);
                        }
                    }
                }
            }
        }
    }
    // 2×2 maps under a 3×3 kernel at stride 1 read the image through
    // every tap; every other case here has dead ones.
    assert!(
        cases >= 200 && dropped >= 150,
        "{dropped} of {cases} cases dropped a tap"
    );
}

/// Runs `wt` (`[c_out × kdim]`) over the batch `x` through the plan's
/// compile path and through [`im2col_oracle`], in every mode, asserts the
/// two equal raw bit for bit, and returns `(rows the GEMM ran, planned
/// output, oracle output)` of the last mode.
fn live_and_reference(
    dims: &ConvPlanDims,
    x: &Tensor,
    wt: &Tensor,
    bias: &Tensor,
) -> (usize, Vec<f32>, Vec<f32>) {
    let n = x.shape().dim(0);
    let mut planned = wt.as_slice().to_vec();
    let gather = Im2colGather::compile_live(dims, &mut planned, bias.as_slice());
    let mut out = vec![0.0f32; n * dims.c_out * dims.oh * dims.ow];
    let mut reference = Vec::new();
    for_each_mode(|mode| {
        reference = im2col_oracle(x, wt, bias, dims, mode);
        conv2d_infer_packed(
            x.as_slice(),
            n,
            dims,
            &gather,
            &planned,
            bias.as_slice(),
            &mut out,
            false,
            mode,
        )
        .unwrap();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&reference), "{mode:?} {dims:?}");
    });
    (gather.depth(), out, reference)
}

/// A 3×3 / pad-1 convolution on 1×1 maps: eight of its nine taps are dead.
fn one_pixel_dims(c_in: usize, c_out: usize) -> ConvPlanDims {
    ConvPlanDims {
        c_in,
        h: 1,
        w: 1,
        c_out,
        oh: 1,
        ow: 1,
        geom: Conv2dGeometry::same3x3(),
    }
}

/// The one case where dropping a dead tap would change a bit: a `−0.0`
/// bias, a zero image and a negative centre weight make every live
/// product `−0.0`, so the dropped path would answer `−0.0`; the full
/// product sequence adds the dead taps' `w·(+0.0) = +0.0` (positive
/// weights) to the `−0.0` bias first and answers `+0.0`. The planned
/// convolution must keep every row and answer `+0.0`, raw bit for bit.
#[test]
fn a_negative_zero_bias_keeps_the_dead_taps() {
    let dims = one_pixel_dims(2, 3);
    let x = Tensor::zeros(Shape::nchw(4, 2, 1, 1));
    // Positive everywhere, negative at each channel's centre tap.
    let mut wt = Tensor::from_vec(vec![0.25f32; 3 * 2 * 9], Shape::nchw(3, 2, 3, 3)).unwrap();
    for (i, v) in wt.as_mut_slice().iter_mut().enumerate() {
        if i % 9 == 4 {
            *v = -0.5;
        }
    }
    let bias = Tensor::from_vec(vec![-0.0f32, 0.0, -0.0], Shape::vector(3)).unwrap();
    let (rows, out, reference) = live_and_reference(&dims, &x, &wt, &bias);
    assert_eq!(rows, 2 * 9, "a −0.0 bias must keep every row");
    for (i, (o, r)) in out.iter().zip(&reference).enumerate() {
        assert_eq!(o.to_bits(), r.to_bits(), "output {i}");
        assert_eq!(o.to_bits(), 0.0f32.to_bits(), "output {i} must be +0.0");
    }
    // The same weights under a +0.0 bias drop the dead taps; every output
    // is then +0.0 + (−0.0) products = +0.0 both ways.
    let bias = Tensor::zeros(Shape::vector(3));
    assert_eq!(live_and_reference(&dims, &x, &wt, &bias).0, 2);
}

/// A NaN or an ∞ weight on a dead tap multiplies the zero border into
/// NaN in the full product sequence; the planned convolution must keep
/// every row so the NaN survives into every output of that channel.
#[test]
fn a_nonfinite_weight_on_a_dead_tap_keeps_the_dead_taps() {
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let dims = one_pixel_dims(3, 4);
    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let x = uniform(&mut rng, Shape::nchw(8, 3, 1, 1), -1.0, 1.0);
        let mut wt = uniform(&mut rng, Shape::nchw(4, 3, 3, 3), -0.5, 0.5);
        let bias = uniform(&mut rng, Shape::vector(4), -0.1, 0.1);
        // Channel 2, input channel 1, tap (0, 2): dead on a 1×1 map.
        wt.as_mut_slice()[(2 * 3 + 1) * 9 + 2] = poison;
        let (rows, out, _) = live_and_reference(&dims, &x, &wt, &bias);
        assert_eq!(
            rows,
            3 * 9,
            "{poison}: a non-finite dead-tap weight must keep every row"
        );
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.is_nan(), i % 4 == 2, "{poison}: output {i} is {v}");
        }
    }
}

/// Max-pool of back-to-back `h × w` planes, written out independently of
/// the library's scan: strict `>` from `−∞`, window cells in `(ky, kx)`
/// order.
fn reference_max_pool(x: &[f32], h: usize, w: usize, geom: &PoolGeometry) -> Vec<f32> {
    let (oh, ow) = (geom.output_size(h).unwrap(), geom.output_size(w).unwrap());
    let mut out = Vec::with_capacity(x.len() / (h * w) * oh * ow);
    for plane in x.chunks_exact(h * w) {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..geom.window {
                    for kx in 0..geom.window {
                        let v = plane[(oy * geom.stride + ky) * w + ox * geom.stride + kx];
                        if v > best {
                            best = v;
                        }
                    }
                }
                out.push(best);
            }
        }
    }
    out
}

/// The fused epilogue — batch-norm, ReLU, max-pool, each optional, on the
/// slab the GEMM just wrote — equals the separate steps, written out here
/// and run one after another over the whole batch, bit for bit: a NaN
/// channel (every pooling
/// window of it all-NaN: the pool answers −∞), an ∞ pixel, and a channel
/// whose 1×1 convolution leaves −0.0 under negative pixels and +0.0 under
/// positive ones, kept so by an identity batch-norm, so that windows mix
/// the two zeros and only the strict-`>` scan picks the reference's.
/// Folded and unfolded batches, every mode, a sentinel behind the (pooled)
/// output.
#[test]
fn fused_epilogue_equals_the_separate_steps_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xE91);
    let pools: Vec<Pool> = [1usize, 2].into_iter().map(Pool::new).collect();
    let windows = [
        None,
        Some(PoolGeometry::halving()),
        Some(PoolGeometry {
            window: 3,
            stride: 2,
        }),
    ];
    let pointwise = Conv2dGeometry {
        kernel: 1,
        stride: 1,
        padding: 0,
    };
    for (geom, c_in) in [(Conv2dGeometry::same3x3(), 3usize), (pointwise, 1)] {
        for c_out in [1usize, 6, 7] {
            for (oh, ow) in [(1usize, 1usize), (2, 2), (4, 4), (5, 7), (16, 16)] {
                let dims = ConvPlanDims {
                    c_in,
                    h: oh,
                    w: ow,
                    c_out,
                    oh,
                    ow,
                    geom,
                };
                let gather = Im2colGather::compile(&dims);
                let (s, kdim) = (oh * ow, c_in * geom.kernel * geom.kernel);
                for n in [1usize, 3, 8] {
                    let mut x = uniform(&mut rng, Shape::nchw(n, c_in, oh, ow), -1.0, 1.0);
                    let mut wt = uniform(
                        &mut rng,
                        Shape::nchw(c_out, c_in, geom.kernel, geom.kernel),
                        -0.5,
                        0.5,
                    );
                    let mut bias = uniform(&mut rng, Shape::vector(c_out), -0.1, 0.1);
                    let mut gamma = uniform(&mut rng, Shape::vector(c_out), 0.5, 1.5);
                    let mut beta = uniform(&mut rng, Shape::vector(c_out), -0.5, 0.5);
                    let mut mean = uniform(&mut rng, Shape::vector(c_out), -0.2, 0.2);
                    let mut inv_std = uniform(&mut rng, Shape::vector(c_out), 0.5, 2.0);
                    // Channel 0: `−0.0 + 0.0·x` — a zero whose sign is the
                    // pixels' — through an identity batch-norm. Last
                    // channel (when there is another): NaN everywhere.
                    // One ∞ pixel in the last image of a real batch.
                    wt.as_mut_slice()[..kdim].fill(0.0);
                    bias.as_mut_slice()[0] = -0.0;
                    (gamma.as_mut_slice()[0], beta.as_mut_slice()[0]) = (1.0, -0.0);
                    (mean.as_mut_slice()[0], inv_std.as_mut_slice()[0]) = (0.0, 1.0);
                    if c_out > 1 {
                        wt.as_mut_slice()[(c_out - 1) * kdim] = f32::NAN;
                    }
                    if n > 1 {
                        *x.as_mut_slice().last_mut().unwrap() = f32::INFINITY;
                    }
                    let bn = BatchNormParams {
                        gamma: gamma.as_slice(),
                        beta: beta.as_slice(),
                        mean: mean.as_slice(),
                        inv_std: inv_std.as_slice(),
                    };
                    for batch_norm in [None, Some(bn)] {
                        for relu in [false, true] {
                            for max_pool in windows {
                                let pooled = match max_pool {
                                    None => Some((oh, ow)),
                                    Some(g) => g.output_size(oh).zip(g.output_size(ow)),
                                };
                                let Some((ph, pw)) = pooled else {
                                    continue; // the window does not fit this map
                                };
                                let epilogue = ConvEpilogue {
                                    batch_norm,
                                    relu,
                                    max_pool,
                                };
                                let len = n * c_out * ph * pw;
                                for_each_mode(|mode| {
                                    // The separate steps, each over the
                                    // whole batch.
                                    let mut want = vec![0.0f32; n * c_out * s];
                                    conv2d_infer_packed(
                                        x.as_slice(),
                                        n,
                                        &dims,
                                        &gather,
                                        wt.as_slice(),
                                        bias.as_slice(),
                                        &mut want,
                                        false,
                                        mode,
                                    )
                                    .unwrap();
                                    if let Some(bn) = &batch_norm {
                                        // `BatchNorm2d::forward_infer`'s
                                        // association, written out here.
                                        for (p, plane) in want.chunks_exact_mut(s).enumerate() {
                                            let ch = p % c_out;
                                            for v in plane.iter_mut() {
                                                let normed = (*v - bn.mean[ch]) * bn.inv_std[ch];
                                                *v = bn.gamma[ch] * normed + bn.beta[ch];
                                            }
                                        }
                                    }
                                    if geom == pointwise && s == 256 {
                                        // The planted channel really does
                                        // mix both zeros.
                                        for zero in [0.0f32, -0.0] {
                                            assert!(want[..s]
                                                .iter()
                                                .any(|v| v.to_bits() == zero.to_bits()));
                                        }
                                    }
                                    if relu {
                                        for v in want.iter_mut() {
                                            *v = v.max(0.0);
                                        }
                                    }
                                    if let Some(g) = &max_pool {
                                        want = reference_max_pool(&want, oh, ow, g);
                                    }
                                    for pool in &pools {
                                        let mut out = vec![F32_SENTINEL; len + F32_GUARD];
                                        with_pool(pool, || {
                                            conv2d_infer_fused(
                                                x.as_slice(),
                                                n,
                                                &dims,
                                                &gather,
                                                wt.as_slice(),
                                                bias.as_slice(),
                                                &epilogue,
                                                &mut out[..len],
                                                mode,
                                            )
                                            .unwrap()
                                        });
                                        let what = format!(
                                            "{mode:?} k{} c_out {c_out} {oh}x{ow} batch {n} bn {}                                              relu {relu} pool {max_pool:?} threads {}",
                                            geom.kernel,
                                            batch_norm.is_some(),
                                            pool.threads()
                                        );
                                        assert!(
                                            out[len..].iter().all(|&v| v == F32_SENTINEL),
                                            "{what}: stored past the output"
                                        );
                                        assert_same(&out[..len], &want, &what);
                                    }
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// u8 NHWC kernels of the int8 data path
// ---------------------------------------------------------------------

/// Bytes of sentinel placed behind every buffer a kernel writes.
const GUARD: usize = 32;
/// Never a quantized activation (`q + 128 ≥ 1`) and not the zero point.
const SENTINEL: u8 = 0;

/// `nchw[c·h·w]` bytes → the padded NHWC image `img` (border and quad
/// tail 128), followed by `tail` bytes of `fill`.
fn to_padded_nhwc(nchw: &[u8], img: &NhwcImage, tail: usize, fill: u8) -> Vec<u8> {
    let NhwcImage { c, h, w, pad } = *img;
    let mut out = vec![128u8; img.stride()];
    for ci in 0..c {
        for y in 0..h {
            for x in 0..w {
                let pixel = (y + pad) * (w + 2 * pad) + x + pad;
                out[pixel * c + ci] = nchw[(ci * h + y) * w + x];
            }
        }
    }
    out.resize(out.len() + tail, fill);
    out
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(1u32..256) as u8).collect()
}

/// The weights of `dims` as `Conv2d` stores them (`[c_out × c_in·k·k]`),
/// the per-image accumulator the reference path computes for `images`
/// (each `c_in·h·w` random NCHW bytes): the table gather
/// `gather_patches_u8`, then `gemm_i8` over the `(c_in, ky, kx)`-ordered
/// pack — the implicit conv's weights in that column order.
fn reference_conv_acc(dims: &ConvPlanDims, weights: &[f32], images: &[Vec<u8>]) -> Vec<i32> {
    let table = PatchGather::compile(dims);
    let packed = PackedBI8::pack_conv(weights, dims.c_out, table.kdim()).unwrap();
    let s = table.spatial();
    let mut acc = vec![0i32; images.len() * s * dims.c_out];
    let mut patches = vec![0u8; table.patch_bytes()];
    for (nchw, out) in images.iter().zip(acc.chunks_exact_mut(s * dims.c_out)) {
        gather_patches_u8(nchw, &table, &mut patches);
        gemm_i8(&patches, &packed, out, s, KernelMode::Scalar);
    }
    acc
}

/// `images` stacked padded NHWC images at their stride, every byte the
/// implicit conv must not use poisoned — each image's quad tail and the
/// slack behind the last one — with 0xFF or (`random`) random bytes.
fn poisoned_stack(rng: &mut StdRng, images: &[Vec<u8>], img: &NhwcImage, random: bool) -> Vec<u8> {
    let padded = (img.h + 2 * img.pad) * (img.w + 2 * img.pad) * img.c;
    let mut stack = Vec::new();
    for nchw in images {
        let mut one = to_padded_nhwc(nchw, img, 0, 0);
        one[padded..].fill(0xFF);
        stack.extend(one);
    }
    stack.resize(stack.len() + PATCH_SLACK, 0xFF);
    if random {
        let start = images.len() * img.stride();
        stack[start..].copy_from_slice(&random_bytes(rng, PATCH_SLACK));
        for j in 0..images.len() {
            for b in &mut stack[j * img.stride() + padded..(j + 1) * img.stride()] {
                *b = rng.gen_range(0u32..256) as u8;
            }
        }
    }
    stack
}

/// The window-major pixel order of the 2×2 / stride-2 pool over an `oh
/// × ow` map — the layout `ImplicitConv::compile` writes and
/// `Requantize::compile` reads for that pool — spelled out from its
/// definition: window offset `(ky, kx)` of every pooled pixel in turn,
/// then the pixels no window covers, row-major.
fn window_major_order(oh: usize, ow: usize) -> Vec<usize> {
    let s = 2;
    let (ph, pw) = (oh / 2, ow / 2);
    let mut order = Vec::new();
    for ky in 0..s {
        for kx in 0..s {
            for py in 0..ph {
                for px in 0..pw {
                    order.push((py * s + ky) * ow + px * s + kx);
                }
            }
        }
    }
    for p in 0..oh * ow {
        if !order.contains(&p) {
            order.push(p);
        }
    }
    order
}

/// `acc`'s pixel rows (`c` sums each, `images` images of `s` pixels)
/// reordered by `order`: row `r` of an image is its pixel `order[r]`.
fn reorder_pixels<T: Copy>(acc: &[T], c: usize, s: usize, order: &[usize]) -> Vec<T> {
    let mut out = Vec::with_capacity(acc.len());
    for image in acc.chunks_exact(s * c) {
        for &p in order {
            out.extend_from_slice(&image[p * c..(p + 1) * c]);
        }
    }
    out
}

/// The channel-planar layout of a pixel-lane conv's accumulator, spelled
/// out from its definition: `acc`'s row-major pixel rows (`c` sums each,
/// images of `s` pixels) with pixel `p`'s channel `ch` moved to `((p /
/// 16)·c + ch)·16 + p mod 16` of its image.
fn to_planar<T: Copy + Default>(acc: &[T], c: usize, s: usize) -> Vec<T> {
    let mut out = vec![T::default(); acc.len()];
    for (image, o) in acc.chunks_exact(s * c).zip(out.chunks_exact_mut(s * c)) {
        for p in 0..s {
            for ch in 0..c {
                o[((p / 16) * c + ch) * 16 + p % 16] = image[p * c + ch];
            }
        }
    }
    out
}

/// Whether `dims` runs the pixel-lane tile — the rule written out: at
/// most 8 output channels, stride 1, output rows in whole 16-pixel
/// segments, and the bytes 16 neighbouring pixels read of one run, `15·
/// c_in + 4·rq`, within 128 (`rq` the quads of a run over the live
/// kernel columns).
fn pixel_lane_rule(dims: &ConvPlanDims) -> bool {
    let k = dims.geom.kernel;
    let live: Vec<usize> = (0..k)
        .filter(|&kx| (0..k).any(|ky| tap_is_live(dims, ky * k + kx)))
        .collect();
    let cols = match (live.first(), live.last()) {
        (Some(first), Some(last)) => last - first + 1,
        _ => k,
    };
    let rq = (cols * dims.c_in).div_ceil(4);
    dims.c_out <= 8
        && dims.geom.stride == 1
        && dims.ow.is_multiple_of(16)
        && 15 * dims.c_in + 4 * rq <= 128
}

/// The implicit-GEMM int8 conv (`gemm_i8_conv`, reading the padded NHWC
/// image in place through zero-weight-padded runs) equals the table
/// gather + `gemm_i8` reference exactly, over kernel 1/3/5 × stride 1/2 ×
/// padding 0/1/2 × output widths 1/2/3/5/7/8/16/17 (the valid ones), with
/// `c_in` rotating through every run-pad remainder (1..=8, 12, 48) and
/// `c_out` through every width 1..=8 and 16/17/48: per image and with the
/// batch stacked into one call, batch 1/3/8, every mode, the pool width
/// rotating 1/2/7. A conv runs the pixel-lane tile exactly where
/// [`pixel_lane_rule`] says so, and then holds the same sums in the
/// channel-planar layout; both kinds — and `c_out ≤ 8` convs the rule
/// sends to the wide tile — are counted and must occur. Where a 2×2 pool
/// fits the output, the conv compiled for that pool (window-major unless
/// it is pixel-lane) must hold the same sums, its rows reordered. The quad
/// tail of every image and the slack behind the last hold 0xFF or random
/// bytes — the run padding reads them, and its zero weights must cancel
/// them — and a sentinel strip behind the output catches a store past
/// it.
#[test]
fn implicit_conv_matches_the_table_gather_then_gemm_i8() {
    const GUARD_ACC: usize = 16;
    const SENTINEL_ACC: i32 = 0x5EA1_5EA1;
    let mut rng = StdRng::seed_from_u64(0x1C0);
    let pools: Vec<Pool> = [1usize, 2, 7].into_iter().map(Pool::new).collect();
    let (c_ins, c_outs) = (
        [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 48],
        [1usize, 2, 3, 4, 5, 6, 7, 8, 16, 17, 48],
    );
    let (mut planar, mut narrow_wide, mut windowed_cases) = (0usize, 0usize, 0usize);
    let mut shapes = 0usize;
    for kernel in [1usize, 3, 5] {
        for stride in [1usize, 2] {
            for padding in [0usize, 1, 2] {
                for ow in [1usize, 2, 3, 5, 7, 8, 16, 17] {
                    let geom = Conv2dGeometry {
                        kernel,
                        stride,
                        padding,
                    };
                    let oh = 1 + shapes % 3;
                    let (Some(h), Some(w)) = (input_side(oh, &geom), input_side(ow, &geom)) else {
                        continue;
                    };
                    shapes += 1;
                    // Two `c_in`s per shape: every remainder meets every
                    // kernel size over the run; the widest pairings stay
                    // rare so the sweep runs in seconds in debug.
                    for c_in in [c_ins[shapes % 10], c_ins[(3 * shapes + 5) % 8]] {
                        let c_out = c_outs[(shapes + c_in) % c_outs.len()];
                        let n = [1usize, 3, 8][(shapes + c_in) % 3];
                        let dims = ConvPlanDims {
                            c_in,
                            h,
                            w,
                            c_out,
                            oh,
                            ow,
                            geom,
                        };
                        let img = NhwcImage::for_conv(&dims);
                        let s = oh * ow;
                        let images: Vec<Vec<u8>> = (0..n)
                            .map(|_| random_bytes(&mut rng, c_in * h * w))
                            .collect();
                        let weights = uniform(
                            &mut rng,
                            Shape::vector(c_out * c_in * kernel * kernel),
                            -1.0,
                            1.0,
                        );
                        let mut want = reference_conv_acc(&dims, weights.as_slice(), &images);
                        let random = shapes.is_multiple_of(2);
                        let stack = poisoned_stack(&mut rng, &images, &img, random);
                        let packed = PackedBI8::pack_conv_runs(weights.as_slice(), &dims).unwrap();
                        let (per_image, stacked) = (
                            ImplicitConv::compile(&dims, 1, None).unwrap(),
                            ImplicitConv::compile(&dims, n, None).unwrap(),
                        );
                        let what = format!("{dims:?} batch {n}");
                        assert_eq!(stacked.planar(), pixel_lane_rule(&dims), "{what}");
                        assert_eq!(per_image.planar(), stacked.planar(), "{what}");
                        if stacked.planar() {
                            planar += 1;
                            want = to_planar(&want, c_out, s);
                        } else if c_out <= 8 {
                            narrow_wide += 1;
                        }
                        let windowed = (oh >= 2 && ow >= 2).then(|| {
                            let halving = Some(PoolGeometry::halving());
                            let conv = ImplicitConv::compile(&dims, n, halving).unwrap();
                            assert_eq!(conv.planar(), stacked.planar(), "{what}");
                            if conv.planar() {
                                return (conv, want.clone());
                            }
                            windowed_cases += 1;
                            let order = window_major_order(oh, ow);
                            (conv, reorder_pixels(&want, c_out, s, &order))
                        });
                        for_each_mode(|mode| {
                            let pool = &pools[(shapes + c_in + mode as usize) % pools.len()];
                            let len = n * s * c_out;
                            let mut got = vec![SENTINEL_ACC; len + GUARD_ACC];
                            with_pool(pool, || {
                                gemm_i8_conv(&stack, &stacked, n, &packed, &mut got, mode)
                            });
                            assert!(
                                got[len..].iter().all(|&v| v == SENTINEL_ACC),
                                "{mode:?} {what}: stacked call stored past its output"
                            );
                            assert_eq!(got[..len], want[..], "{mode:?} {what} stacked");
                            got.fill(SENTINEL_ACC);
                            for (j, out) in got.chunks_exact_mut(s * c_out).take(n).enumerate() {
                                let one = &stack[j * img.stride()..];
                                with_pool(pool, || {
                                    gemm_i8_conv(one, &per_image, 1, &packed, out, mode)
                                });
                            }
                            assert_eq!(got[..len], want[..], "{mode:?} {what} per image");
                            if let Some((conv, want_w)) = &windowed {
                                got.fill(SENTINEL_ACC);
                                with_pool(pool, || {
                                    gemm_i8_conv(&stack, conv, n, &packed, &mut got, mode)
                                });
                                assert!(
                                    got[len..].iter().all(|&v| v == SENTINEL_ACC),
                                    "{mode:?} {what}: windowed call stored past its output"
                                );
                                assert_eq!(got[..len], want_w[..], "{mode:?} {what} windowed");
                            }
                        });
                    }
                }
            }
        }
    }
    // 144 combinations less the 45 whose output side has no input side.
    assert_eq!(shapes, 99, "geometry filter dropped an implicit-conv shape");
    assert!(planar >= 5, "only {planar} pixel-lane convs");
    assert!(
        narrow_wide >= 10,
        "only {narrow_wide} convs of c_out <= 8 on the wide tile"
    );
    assert!(
        windowed_cases >= 10,
        "only {windowed_cases} window-major convs"
    );
}

/// The implicit conv checks its extents once, up front: an image buffer
/// one byte short of `images·stride + PATCH_SLACK`, or an output one sum
/// short, is rejected before anything is read or written. Both convs
/// read 9-byte runs as three quads, so their last run ends 3 bytes past
/// the image: the whole slack. One runs the wide tile (a 4×4 map), the
/// other the pixel-lane tile (16-pixel rows), whose masked loads must
/// stop at the same byte.
#[test]
fn implicit_conv_rejects_a_short_image_or_output() {
    for (oh, ow) in [(4usize, 4usize), (2, 16)] {
        let dims = ConvPlanDims {
            c_in: 3,
            h: oh,
            w: ow,
            c_out: 6,
            oh,
            ow,
            geom: Conv2dGeometry::same3x3(),
        };
        let conv = ImplicitConv::compile(&dims, 2, None).unwrap();
        assert_eq!(conv.planar(), ow == 16);
        let weights = vec![0.25f32; 6 * 27];
        let packed = PackedBI8::pack_conv_runs(&weights, &dims).unwrap();
        let need = 2 * NhwcImage::for_conv(&dims).stride() + PATCH_SLACK;
        let sums_len = 2 * oh * ow * 6;
        let run = |img_len: usize, out_len: usize| {
            std::panic::catch_unwind(|| {
                let img = vec![128u8; img_len];
                let mut out = vec![0i32; out_len];
                gemm_i8_conv(&img, &conv, 2, &packed, &mut out, KernelMode::Scalar);
            })
        };
        assert!(run(need, sums_len).is_ok());
        assert!(
            run(need - 1, sums_len).is_err(),
            "a short image is rejected"
        );
        // What the last run reads behind the image meets zero weights.
        // The images are padded ones — border bytes the zero point, as
        // every producer writes them — with every fifth pixel value 200.
        let nchw: Vec<u8> = (0..3 * oh * ow)
            .map(|i| if i % 5 == 0 { 200 } else { 128 })
            .collect();
        let one = to_padded_nhwc(&nchw, &NhwcImage::for_conv(&dims), 0, 0);
        let sums = |slack: u8| {
            let mut img = [one.as_slice(), &one].concat();
            img.resize(need, slack);
            let mut out = vec![0i32; sums_len];
            for_each_mode(|mode| {
                let mut got = vec![0i32; sums_len];
                gemm_i8_conv(&img, &conv, 2, &packed, &mut got, mode);
                if mode == KernelMode::Scalar {
                    out.copy_from_slice(&got);
                }
                assert_eq!(got, out, "{mode:?} {oh}x{ow} slack {slack:#x}");
            });
            out
        };
        assert_eq!(sums(128), sums(0xFF), "the slack reached a sum");
        assert!(
            run(need, sums_len - 1).is_err(),
            "a short output is rejected"
        );
    }
}

/// The entry conversion writes `quantize_slice_u8`'s scale and bytes,
/// transposed into the padded image, in every mode — NaN / ±inf / −0.0
/// and the all-zero image included — and nothing behind the image.
#[test]
fn nhwc_entry_quantize_matches_quantize_slice_in_every_mode() {
    let mut rng = StdRng::seed_from_u64(0xE47);
    for (c, h, w, pad) in [
        (1, 1, 1, 0),
        (3, 16, 16, 1),
        (3, 7, 5, 1),
        (6, 4, 33, 0),
        (17, 3, 3, 1),
    ] {
        for case in 0..4 {
            let mut x = uniform(&mut rng, Shape::vector(c * h * w), -3.0, 3.0);
            let data = x.as_mut_slice();
            match case {
                1 => data.fill(0.0),
                2 => {
                    data[0] = f32::NAN;
                    data[c * h * w / 2] = -0.0;
                }
                3 => {
                    data[c * h * w - 1] = f32::NEG_INFINITY;
                    data[0] = f32::NAN;
                }
                _ => {}
            }
            let mut flat = vec![0u8; c * h * w];
            let want_scale = quantize_slice_u8(x.as_slice(), &mut flat);
            let img = NhwcImage { c, h, w, pad };
            let want = to_padded_nhwc(&flat, &img, GUARD, SENTINEL);
            for_each_mode(|mode| {
                let mut got = vec![SENTINEL; img.stride() + GUARD];
                let scale = quantize_nhwc_u8(x.as_slice(), &img, &mut got, mode);
                assert_eq!(
                    scale.to_bits(),
                    want_scale.to_bits(),
                    "{mode:?} {img:?} case {case}: scale"
                );
                assert_eq!(got, want, "{mode:?} {img:?} case {case}: image bytes");
            });
        }
    }
}

/// The requantizing write-back (± ReLU, no pool, a 2×2 max-pool from a
/// window-major accumulator or an overlapping 3×3 / stride-2 one from a
/// row-major accumulator, odd maps that drop a row and column, every narrow
/// channel count 1..=8 and counts around the vector widths) equals the
/// composition it replaces — dequantize-transpose to f32 NCHW, f32
/// max-pool, `quantize_slice_u8` — byte for byte and scale for scale, in
/// every mode, with non-finite values in flight, and writes nothing
/// behind the destination image.
#[test]
fn requantize_epilogue_matches_the_composed_ops_in_every_mode() {
    let mut rng = StdRng::seed_from_u64(0x4E0);
    let halving = PoolGeometry::halving();
    let overlapping = PoolGeometry {
        window: 3,
        stride: 2,
    };
    for c_out in [1usize, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 17, 48] {
        for (oh, ow) in [(1usize, 1usize), (2, 2), (4, 4), (5, 7), (16, 16)] {
            for relu in [false, true] {
                for pool in [None, Some(halving), Some(overlapping)] {
                    let (ph, pw) = match pool {
                        None => (oh, ow),
                        Some(g) => match (g.output_size(oh), g.output_size(ow)) {
                            (Some(ph), Some(pw)) => (ph, pw),
                            _ => continue, // the window does not fit
                        },
                    };
                    for nonfinite in [false, true] {
                        let s = oh * ow;
                        let acc: Vec<i32> = (0..s * c_out)
                            .map(|_| rng.gen_range(0u32..40_001) as i32 - 20_000)
                            .collect();
                        let w_scales = uniform(&mut rng, Shape::vector(c_out), 0.001, 0.02);
                        let mut bias = uniform(&mut rng, Shape::vector(c_out), -40.0, 10.0);
                        let mut a_scale = 0.013f32;
                        if nonfinite {
                            // A NaN channel (every window of it is all-NaN:
                            // the pool must answer −inf, the scale +inf)
                            // or an infinite activation scale (0·inf = NaN
                            // wherever the accumulator is zero).
                            if c_out > 1 {
                                bias.as_mut_slice()[c_out / 2] = f32::NAN;
                            } else {
                                a_scale = f32::INFINITY;
                            }
                        }
                        // The composition the plans used to run.
                        let mut nchw = vec![0.0f32; s * c_out];
                        dequantize_transpose_bias_relu(
                            &acc,
                            a_scale,
                            w_scales.as_slice(),
                            Some(bias.as_slice()),
                            &mut nchw,
                            s,
                            c_out,
                            relu,
                        );
                        if let Some(g) = pool {
                            let mut pooled = vec![0.0f32; c_out * ph * pw];
                            max_pool2d_into(&nchw, &mut pooled, 1, c_out, oh, ow, &g).unwrap();
                            nchw = pooled;
                        }
                        let mut flat = vec![0u8; nchw.len()];
                        let want_scale = quantize_slice_u8(&nchw, &mut flat);
                        for pad in [0usize, 1] {
                            let dst = NhwcImage {
                                c: c_out,
                                h: ph,
                                w: pw,
                                pad,
                            };
                            let want = to_padded_nhwc(&flat, &dst, GUARD, SENTINEL);
                            let rq = Requantize::compile(
                                w_scales.as_slice(),
                                bias.as_slice(),
                                (oh, ow),
                                relu,
                                pool,
                                dst,
                            )
                            .unwrap();
                            // Through the 2×2 pool the write-back reads
                            // the conv's window-major pixel order.
                            let acc = if pool == Some(halving) {
                                reorder_pixels(&acc, c_out, s, &window_major_order(oh, ow))
                            } else {
                                acc.clone()
                            };
                            let what = format!(
                                "c_out {c_out} {oh}x{ow} relu {relu} pool {pool:?} pad {pad} nonfinite {nonfinite}"
                            );
                            for_each_mode(|mode| {
                                // NaN staging: stale floats must never
                                // reach the max or a byte.
                                let mut stage = vec![f32::NAN; rq.stage_len()];
                                let mut got = vec![SENTINEL; dst.stride() + GUARD];
                                let scale = rq.run(&acc, a_scale, &mut stage, &mut got, mode);
                                assert_eq!(
                                    scale.to_bits(),
                                    want_scale.to_bits(),
                                    "{mode:?} {what}: scale {scale} vs {want_scale}"
                                );
                                assert_eq!(got, want, "{mode:?} {what}: image bytes");
                            });
                        }
                    }
                }
            }
        }
    }
}

/// A write-back into anything but its own (pooled) output extent is a
/// compile-time error, not a mis-sized image at run time — in particular
/// a flat (linear) consumer of a map with more than one pixel, whose rows
/// are in NCHW order.
#[test]
fn requantize_rejects_a_destination_that_is_not_its_output() {
    let (ws, b) = ([0.01f32; 6], [0.0f32; 6]);
    let compile = |hw, pool, dst| Requantize::compile(&ws, &b, hw, true, pool, dst);
    let halving = Some(PoolGeometry::halving());
    assert!(compile(
        (4, 4),
        halving,
        NhwcImage {
            c: 6,
            h: 2,
            w: 2,
            pad: 1
        }
    )
    .is_ok());
    assert!(compile((2, 2), halving, NhwcImage::flat(6)).is_ok());
    assert!(compile((2, 2), None, NhwcImage::flat(24)).is_err());
    assert!(compile(
        (4, 4),
        halving,
        NhwcImage {
            c: 6,
            h: 4,
            w: 4,
            pad: 1
        }
    )
    .is_err());
    assert!(compile(
        (4, 4),
        None,
        NhwcImage {
            c: 5,
            h: 4,
            w: 4,
            pad: 0
        }
    )
    .is_err());
    assert!(compile((1, 1), halving, NhwcImage::flat(6)).is_err());
}

/// The window-major layout exists only where the 2×2 pool fits: a map
/// narrower than the window is a compile-time error for the conv, and
/// the write-back still insists on the pooled extent.
#[test]
fn window_major_layouts_need_a_map_the_pool_fits() {
    let (ws, b) = ([0.01f32; 6], [0.0f32; 6]);
    let dims = ConvPlanDims {
        c_in: 3,
        h: 5,
        w: 5,
        c_out: 6,
        oh: 5,
        ow: 5,
        geom: Conv2dGeometry::same3x3(),
    };
    let pooled = |side| NhwcImage {
        c: 6,
        h: side,
        w: side,
        pad: 1,
    };
    let halving = Some(PoolGeometry::halving());
    let requantize = |hw, dst| Requantize::compile(&ws, &b, hw, true, halving, dst);
    assert!(requantize((5, 5), pooled(2)).is_ok());
    assert!(requantize((5, 5), pooled(3)).is_err());
    assert!(requantize((1, 5), pooled(2)).is_err());
    assert!(ImplicitConv::compile(&dims, 1, halving).is_ok());
    let narrow = ConvPlanDims {
        w: 1,
        ow: 1,
        ..dims
    };
    assert!(ImplicitConv::compile(&narrow, 1, halving).is_err());
    assert!(ImplicitConv::compile(&narrow, 1, None).is_ok());
}

/// The pixel-lane tile and every reader of its channel-planar
/// accumulator, against the composition they replace: every `c_in` ×
/// `c_out` in 1..=8 on 16- and 32-pixel rows (kernel 3), and the shapes
/// just past each edge of [`pixel_lane_rule`] — stride 2, rows of 8 and
/// 24 pixels, `15·c_in + 4·rq` at 128 and over it, `c_out` 9 — which the
/// wide tile runs. For each, with no pool, the 2×2 pool and the
/// overlapping 3×3 / stride-2 one on an odd map: `gemm_i8_conv` in every
/// mode (poisoned quad tails and slack, a sentinel behind the sums)
/// equals the table gather + `gemm_i8` reference in the conv's layout;
/// the conv's own write-back (`ImplicitConv::requantize`) writes the
/// bytes and scale of dequantize-transpose → f32 max-pool →
/// `quantize_slice_u8`; and without a pool the f32 reader of its layout
/// (`dequantize_planar_bias_relu` for a planar one) writes the f32 NCHW
/// values of `dequantize_transpose_bias_relu`, bit for bit.
#[test]
fn pixel_lane_conv_and_its_readers_match_the_composed_reference() {
    const GUARD_ACC: usize = 16;
    const SENTINEL_ACC: i32 = 0x5EA1_5EA1;
    let mut rng = StdRng::seed_from_u64(0x91E1);
    let pools: Vec<Pool> = [1usize, 2, 7].into_iter().map(Pool::new).collect();
    let halving = PoolGeometry::halving();
    let overlapping = PoolGeometry {
        window: 3,
        stride: 2,
    };
    let same = |kernel: usize| Conv2dGeometry {
        kernel,
        stride: 1,
        padding: kernel / 2,
    };
    let mut shapes = Vec::new();
    for c_in in 1..=8usize {
        for c_out in 1..=8usize {
            shapes.push((c_in, c_out, 16 << ((c_in + c_out) % 2), same(3)));
        }
    }
    let stride2 = Conv2dGeometry {
        kernel: 3,
        stride: 2,
        padding: 1,
    };
    shapes.extend([
        (3, 6, 16, stride2),
        (3, 6, 8, same(3)),
        (6, 6, 24, same(3)),
        (8, 4, 16, same(1)), // 15·8 + 4·2 = 128: the widest window
        (7, 4, 16, same(3)), // 105 + 24 = 129
        (4, 8, 32, same(5)), // 60 + 20 = 80
        (7, 5, 16, same(5)), // 105 + 36 = 141
        (3, 9, 16, same(3)),
    ]);
    let (mut planar, mut wide) = (0usize, 0usize);
    for (case, &(c_in, c_out, ow, geom)) in shapes.iter().enumerate() {
        // Odd: the 2×2 pool drops a row, the 3×3 / stride-2 one fits once.
        let oh = 3;
        let (h, w) = (
            input_side(oh, &geom).unwrap(),
            input_side(ow, &geom).unwrap(),
        );
        let dims = ConvPlanDims {
            c_in,
            h,
            w,
            c_out,
            oh,
            ow,
            geom,
        };
        let (n, s) = (2usize, oh * ow);
        let img = NhwcImage::for_conv(&dims);
        let images: Vec<Vec<u8>> = (0..n)
            .map(|_| random_bytes(&mut rng, c_in * h * w))
            .collect();
        let k = geom.kernel;
        let weights = uniform(&mut rng, Shape::vector(c_out * c_in * k * k), -1.0, 1.0);
        let want = reference_conv_acc(&dims, weights.as_slice(), &images);
        let stack = poisoned_stack(&mut rng, &images, &img, case.is_multiple_of(2));
        let packed = PackedBI8::pack_conv_runs(weights.as_slice(), &dims).unwrap();
        let bias = uniform(&mut rng, Shape::vector(c_out), -1.0, 1.0);
        let (ws, bias) = (packed.scales(), bias.as_slice());
        let (a_scale, relu) = (0.004f32, case % 3 != 0);
        // The f32 NCHW values of each image, from the row-major sums.
        let nchw: Vec<Vec<f32>> = want
            .chunks_exact(s * c_out)
            .map(|acc| {
                let mut out = vec![0.0f32; s * c_out];
                dequantize_transpose_bias_relu(
                    acc,
                    a_scale,
                    ws,
                    Some(bias),
                    &mut out,
                    s,
                    c_out,
                    relu,
                );
                out
            })
            .collect();
        let what = format!("{dims:?} relu {relu}");
        if pixel_lane_rule(&dims) {
            planar += 1;
        } else {
            wide += 1;
        }
        for pool in [None, Some(halving), Some(overlapping)] {
            let conv = ImplicitConv::compile(&dims, n, pool).unwrap();
            assert_eq!(conv.planar(), pixel_lane_rule(&dims), "{what}");
            let want_acc = if conv.planar() {
                to_planar(&want, c_out, s)
            } else if pool == Some(halving) {
                reorder_pixels(&want, c_out, s, &window_major_order(oh, ow))
            } else {
                want.clone()
            };
            let (ph, pw) = match pool {
                None => (oh, ow),
                Some(g) => (g.output_size(oh).unwrap(), g.output_size(ow).unwrap()),
            };
            let dst = NhwcImage {
                c: c_out,
                h: ph,
                w: pw,
                pad: 1,
            };
            let rq = conv.requantize(ws, bias, relu, dst).unwrap();
            let want_images: Vec<(f32, Vec<u8>)> = nchw
                .iter()
                .map(|x| {
                    let pooled = match pool {
                        None => x.clone(),
                        Some(g) => {
                            let mut p = vec![0.0f32; c_out * ph * pw];
                            max_pool2d_into(x, &mut p, 1, c_out, oh, ow, &g).unwrap();
                            p
                        }
                    };
                    let mut flat = vec![0u8; pooled.len()];
                    let scale = quantize_slice_u8(&pooled, &mut flat);
                    (scale, to_padded_nhwc(&flat, &dst, GUARD, SENTINEL))
                })
                .collect();
            let what = format!("{what} pool {pool:?}");
            for_each_mode(|mode| {
                let len = n * s * c_out;
                let mut got = vec![SENTINEL_ACC; len + GUARD_ACC];
                let threads = &pools[(case + mode as usize) % pools.len()];
                with_pool(threads, || {
                    gemm_i8_conv(&stack, &conv, n, &packed, &mut got, mode)
                });
                assert!(
                    got[len..].iter().all(|&v| v == SENTINEL_ACC),
                    "{mode:?} {what}: stored past its output"
                );
                assert_eq!(got[..len], want_acc[..], "{mode:?} {what}: sums");
                for (j, acc) in got[..len].chunks_exact(s * c_out).enumerate() {
                    let mut stage = vec![f32::NAN; rq.stage_len()];
                    let mut out = vec![SENTINEL; dst.stride() + GUARD];
                    let scale = rq.run(acc, a_scale, &mut stage, &mut out, mode);
                    let (want_scale, want_bytes) = &want_images[j];
                    assert_eq!(
                        scale.to_bits(),
                        want_scale.to_bits(),
                        "{mode:?} {what} image {j}: scale"
                    );
                    assert_eq!(&out, want_bytes, "{mode:?} {what} image {j}: bytes");
                    if pool.is_none() {
                        let read = if conv.planar() {
                            dequantize_planar_bias_relu
                        } else {
                            dequantize_transpose_bias_relu
                        };
                        let mut f32_out = vec![f32::NAN; s * c_out];
                        read(acc, a_scale, ws, Some(bias), &mut f32_out, s, c_out, relu);
                        assert_same(&f32_out, &nchw[j], &format!("{mode:?} {what} f32"));
                    }
                }
            });
        }
    }
    assert_eq!((planar, wide), (50, 22), "the rule's edges moved");
}

/// One VNNI register tile spans up to three 16-column strips: `c_out`
/// 17, 24, 32, 33, 40, 48 and 49 (one to four strips, the last partial
/// or full) at every row remainder 1..=7 of the 8-row tile, dense rows
/// (`gemm_i8`, one block and several on 1 and 7 threads) and conv rows
/// (`gemm_i8_conv`, maps of `8·q + r` pixels), against the exact integer
/// sums written out from the quantized operands, with a sentinel behind
/// the output.
#[test]
fn register_tiles_span_every_strip_at_every_row_remainder() {
    const SENTINEL_ACC: i32 = 0x5EA1_5EA1;
    let mut rng = StdRng::seed_from_u64(0x3571);
    let pools: Vec<Pool> = [1usize, 7].into_iter().map(Pool::new).collect();
    for (t, c_out) in [17usize, 24, 32, 33, 40, 48, 49].into_iter().enumerate() {
        for rem in 1..=7usize {
            // Dense rows: a short block, and enough rows for several.
            for m in [8 + rem, 8 * (9 + t) + rem] {
                let k = [27usize, 54, 100][(t + rem) % 3];
                let b = uniform(&mut rng, Shape::matrix(k, c_out), -1.0, 1.0);
                let pack = PackedBI8::pack(&b).unwrap();
                let qb = quantize_per_channel(&b, QuantAxis::Col).unwrap();
                let ka = quantized_row_len(k);
                let qa = random_bytes(&mut rng, m * ka);
                let mut want = vec![0i32; m * c_out];
                for i in 0..m {
                    for j in 0..c_out {
                        want[i * c_out + j] = (0..k)
                            .map(|kk| {
                                (qa[i * ka + kk] as i32 - 128) * qb.data()[kk * c_out + j] as i32
                            })
                            .sum();
                    }
                }
                for_each_mode(|mode| {
                    for threads in &pools {
                        let mut got = vec![SENTINEL_ACC; m * c_out + 16];
                        with_pool(threads, || gemm_i8(&qa, &pack, &mut got, m, mode));
                        assert!(
                            got[m * c_out..].iter().all(|&v| v == SENTINEL_ACC),
                            "{mode:?} dense {m}x{k}x{c_out}: stored past the output"
                        );
                        assert_eq!(got[..m * c_out], want[..], "{mode:?} dense {m}x{k}x{c_out}");
                    }
                });
            }
            // Conv rows: one output row of `8 + rem` pixels.
            let geom = Conv2dGeometry::same3x3();
            let ow = 8 + rem;
            let dims = ConvPlanDims {
                c_in: 5,
                h: 1,
                w: ow,
                c_out,
                oh: 1,
                ow,
                geom,
            };
            let image = vec![random_bytes(&mut rng, 5 * ow)];
            let weights = uniform(&mut rng, Shape::vector(c_out * 45), -1.0, 1.0);
            let want = reference_conv_acc(&dims, weights.as_slice(), &image);
            let img = NhwcImage::for_conv(&dims);
            let stack = poisoned_stack(&mut rng, &image, &img, rem.is_multiple_of(2));
            let packed = PackedBI8::pack_conv_runs(weights.as_slice(), &dims).unwrap();
            let conv = ImplicitConv::compile(&dims, 1, None).unwrap();
            for_each_mode(|mode| {
                let mut got = vec![SENTINEL_ACC; ow * c_out + 16];
                gemm_i8_conv(&stack, &conv, 1, &packed, &mut got, mode);
                assert!(
                    got[ow * c_out..].iter().all(|&v| v == SENTINEL_ACC),
                    "{mode:?} {dims:?}: stored past the output"
                );
                assert_eq!(got[..ow * c_out], want[..], "{mode:?} {dims:?}");
            });
        }
    }
}

/// On maps smaller than the kernel's reach — 1×1, 1×2 and 2×1 outputs,
/// kernel 3 and 5, padding 1 and 2 — the int8 conv packs and reads only
/// the live box of the receptive field (its quads are the box's, fewer
/// than the whole field's), and still equals the full-field table
/// gather + `gemm_i8` reference in every mode: the dropped taps only ever
/// met the border's zero point. Channel 0's largest weight sits on a dead
/// tap, so its scale — and every byte of its quantized weights — differs
/// between the whole row and the kept taps: the pack must take the whole
/// row's, which is `pack_conv`'s, bit for bit.
#[test]
fn dead_taps_leave_the_int8_pack_but_not_the_scales() {
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let mut cases = 0usize;
    for (oh, ow) in [(1usize, 1usize), (1, 2), (2, 1)] {
        for kernel in [3usize, 5] {
            for padding in [1usize, 2] {
                let geom = Conv2dGeometry {
                    kernel,
                    stride: 1,
                    padding,
                };
                let (Some(h), Some(w)) = (input_side(oh, &geom), input_side(ow, &geom)) else {
                    continue;
                };
                for (c_in, c_out) in [(3usize, 6usize), (5, 20), (48, 48)] {
                    let dims = ConvPlanDims {
                        c_in,
                        h,
                        w,
                        c_out,
                        oh,
                        ow,
                        geom,
                    };
                    let kk = kernel * kernel;
                    let Some(dead) = (0..kk).find(|&t| !tap_is_live(&dims, t)) else {
                        continue;
                    };
                    cases += 1;
                    let mut weights =
                        uniform(&mut rng, Shape::vector(c_out * c_in * kk), -1.0, 1.0);
                    // Channel 0, input channel 0: its largest |w| on a dead tap.
                    weights.as_mut_slice()[dead] = -5.0;
                    let live_max = (0..c_in * kk)
                        .filter(|&q| tap_is_live(&dims, q % kk))
                        .map(|q| weights.as_slice()[q].abs())
                        .fold(0.0f32, f32::max);
                    assert!(live_max < 5.0);
                    let n = 3;
                    let images: Vec<Vec<u8>> = (0..n)
                        .map(|_| random_bytes(&mut rng, c_in * h * w))
                        .collect();
                    let want = reference_conv_acc(&dims, weights.as_slice(), &images);
                    let img = NhwcImage::for_conv(&dims);
                    let stack = poisoned_stack(&mut rng, &images, &img, cases.is_multiple_of(2));
                    let packed = PackedBI8::pack_conv_runs(weights.as_slice(), &dims).unwrap();
                    let full = PackedBI8::pack_conv(weights.as_slice(), c_out, c_in * kk).unwrap();
                    let scale_bits = |p: &PackedBI8| -> Vec<u32> {
                        p.scales().iter().map(|s| s.to_bits()).collect()
                    };
                    let what = format!("{dims:?}");
                    assert_eq!(scale_bits(&packed), scale_bits(&full), "{what}: scales");
                    let conv = ImplicitConv::compile(&dims, n, None).unwrap();
                    let live = |span: &dyn Fn(usize) -> bool| {
                        let on: Vec<usize> = (0..kernel).filter(|&i| span(i)).collect();
                        on.last().unwrap() - on.first().unwrap() + 1
                    };
                    let rows =
                        live(&|ky| (0..kernel).any(|kx| tap_is_live(&dims, ky * kernel + kx)));
                    let cols =
                        live(&|kx| (0..kernel).any(|ky| tap_is_live(&dims, ky * kernel + kx)));
                    let quads = rows * (cols * c_in).div_ceil(4);
                    assert_eq!(conv.quads(), quads, "{what}: quads of the live box");
                    assert!(quads < kernel * (kernel * c_in).div_ceil(4), "{what}");
                    assert_eq!(packed.k(), 4 * quads, "{what}: packed depth");
                    for_each_mode(|mode| {
                        let mut got = vec![0i32; n * oh * ow * c_out];
                        gemm_i8_conv(&stack, &conv, n, &packed, &mut got, mode);
                        assert_eq!(got, want, "{mode:?} {what}");
                    });
                }
            }
        }
    }
    assert_eq!(cases, 27, "dead-tap shapes dropped");
}
