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
//! strips, or neither) against `conv2d` and the standalone ops.
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
    dequantize_transpose_bias_relu, gather_patches_u8, gemm_i8, gemm_i8_conv, gemm_prepacked,
    matmul, matmul_i8_reference, matmul_naive, matmul_naive_fma, max_pool2d_into, quantize_nhwc_u8,
    quantize_rows_u8, quantize_slice_u8, quantized_row_len, reset_kernel_mode, set_kernel_mode,
    BatchNormParams, Conv2dGeometry, ConvEpilogue, ConvPlanDims, Im2colGather, ImplicitConv,
    KernelMode, NhwcImage, PackedB, PackedBI8, PatchGather, PoolGeometry, Requantize, PATCH_SLACK,
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

/// The input side length an output side `o` comes from, when there is one.
fn input_side(o: usize, geom: &Conv2dGeometry) -> Option<usize> {
    let side = ((o - 1) * geom.stride + geom.kernel).checked_sub(2 * geom.padding)?;
    (side > 0 && geom.output_size(side) == Some(o)).then_some(side)
}

/// One case of the geometry walk below: random operands for `dims` at
/// batch `n` (a NaN weight row and an ∞ pixel when `nonfinite`), `conv2d`
/// as the reference of each rounding class, the planned convolution in
/// every mode — each call on the pool `turn` selects for that mode — and
/// a sentinel behind the output.
fn check_planned_conv(
    rng: &mut StdRng,
    dims: &ConvPlanDims,
    n: usize,
    nonfinite: bool,
    pools: &[Pool],
    turn: usize,
) {
    let ConvPlanDims {
        c_in,
        h,
        w,
        c_out,
        oh,
        ow,
        geom,
    } = *dims;
    let gather = Im2colGather::compile(dims);
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
        wt.as_mut_slice()[3.min(c_out - 1) * kdim] = f32::NAN;
        *x.as_mut_slice().last_mut().unwrap() = f32::INFINITY;
    }
    let len = n * c_out * oh * ow;
    let mut references: [Option<Tensor>; 2] = [None, None];
    for_each_mode(|mode| {
        let reference = references[(mode == KernelMode::Fma) as usize]
            .get_or_insert_with(|| conv2d(&x, &wt, Some(&bias), &geom).unwrap());
        let pool = &pools[(turn + mode as usize) % pools.len()];
        let mut out = vec![F32_SENTINEL; len + F32_GUARD];
        with_pool(pool, || {
            conv2d_infer_packed(
                x.as_slice(),
                n,
                dims,
                &gather,
                wt.as_slice(),
                bias.as_slice(),
                &mut out[..len],
                false,
                mode,
            )
            .unwrap()
        });
        let what = format!(
            "{mode:?} {dims:?} batch {n} threads {} nonfinite={nonfinite}",
            pool.threads()
        );
        assert!(
            out[len..].iter().all(|&v| v == F32_SENTINEL),
            "{what}: stored past the output"
        );
        assert_same(&out[..len], reference.as_slice(), &what);
    });
}

/// Planned conv ≡ `conv2d`, bit for bit, over the geometry the zoo never
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
    let (c_outs, c_ins, ohs) = ([1usize, 5, 6, 7, 48], [1usize, 3, 2, 6], [1usize, 3, 2, 6, 4]);
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
                            check_planned_conv(&mut rng, &dims, n, turn.is_multiple_of(2), &pools, turn);
                        }
                    }
                }
            }
        }
    }
    // 180 combinations less those whose output side has no input side: a
    // 1×1 kernel cannot see past padding it does not need.
    assert!(shapes >= 120, "geometry filter dropped planned shapes: {shapes}");
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

/// The implicit-GEMM int8 conv (`gemm_i8_conv`, reading the padded NHWC
/// image in place through zero-weight-padded runs) equals the table
/// gather + `gemm_i8` reference exactly, over kernel 1/3/5 × stride 1/2 ×
/// padding 0/1/2 × output widths 1/2/3/5/7/8/16/17 (the valid ones), with
/// `c_in` rotating through every run-pad remainder (1..=8, 12, 48) and
/// `c_out` through 1/6/16/17/48: per image and with the batch stacked
/// into one call, batch 1/3/8, every mode, the pool width rotating
/// 1/2/7. The quad tail of every image and the slack behind the last
/// hold 0xFF or random bytes — the run padding reads them, and its zero
/// weights must cancel them — and a sentinel strip behind the output
/// catches a store past it.
#[test]
fn implicit_conv_matches_the_table_gather_then_gemm_i8() {
    const GUARD_ACC: usize = 16;
    const SENTINEL_ACC: i32 = 0x5EA1_5EA1;
    let mut rng = StdRng::seed_from_u64(0x1C0);
    let pools: Vec<Pool> = [1usize, 2, 7].into_iter().map(Pool::new).collect();
    let (c_ins, c_outs) = (
        [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 48],
        [1usize, 6, 16, 17, 48],
    );
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
                        let c_out = c_outs[(shapes + c_in) % 5];
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
                        let want = reference_conv_acc(&dims, weights.as_slice(), &images);
                        let random = shapes.is_multiple_of(2);
                        let stack = poisoned_stack(&mut rng, &images, &img, random);
                        let packed = PackedBI8::pack_conv_runs(weights.as_slice(), &dims).unwrap();
                        let (per_image, stacked) = (
                            ImplicitConv::compile(&dims, 1).unwrap(),
                            ImplicitConv::compile(&dims, n).unwrap(),
                        );
                        let what = format!("{dims:?} batch {n}");
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
                        });
                    }
                }
            }
        }
    }
    // 144 combinations less the 45 whose output side has no input side.
    assert_eq!(shapes, 99, "geometry filter dropped an implicit-conv shape");
}

/// The implicit conv checks its extents once, up front: an image buffer
/// one byte short of `images·stride + PATCH_SLACK`, or an output one sum
/// short, is rejected before anything is read or written.
#[test]
fn implicit_conv_rejects_a_short_image_or_output() {
    let dims = ConvPlanDims {
        c_in: 3,
        h: 4,
        w: 4,
        c_out: 6,
        oh: 4,
        ow: 4,
        geom: Conv2dGeometry::same3x3(),
    };
    let conv = ImplicitConv::compile(&dims, 2).unwrap();
    let weights = vec![0.25f32; 6 * 27];
    let packed = PackedBI8::pack_conv_runs(&weights, &dims).unwrap();
    let need = 2 * NhwcImage::for_conv(&dims).stride() + PATCH_SLACK;
    let run = |img_len: usize, out_len: usize| {
        std::panic::catch_unwind(|| {
            let img = vec![128u8; img_len];
            let mut out = vec![0i32; out_len];
            gemm_i8_conv(&img, &conv, 2, &packed, &mut out, KernelMode::Scalar);
        })
    };
    assert!(run(need, 2 * 16 * 6).is_ok());
    assert!(
        run(need - 1, 2 * 16 * 6).is_err(),
        "a short image is rejected"
    );
    assert!(
        run(need, 2 * 16 * 6 - 1).is_err(),
        "a short output is rejected"
    );
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

/// The requantizing write-back (± ReLU, ± 2×2 max-pool, odd maps that
/// drop a row and column, channel counts around the vector widths) equals
/// the composition it replaces — dequantize-transpose to f32 NCHW, f32
/// max-pool, `quantize_slice_u8` — byte for byte and scale for scale, in
/// every mode, with non-finite values in flight, and writes nothing
/// behind the destination image.
#[test]
fn requantize_epilogue_matches_the_composed_ops_in_every_mode() {
    let mut rng = StdRng::seed_from_u64(0x4E0);
    let halving = PoolGeometry::halving();
    for c_out in [1usize, 6, 10, 16, 17, 48] {
        for (oh, ow) in [(1usize, 1usize), (2, 2), (4, 4), (5, 7), (16, 16)] {
            for relu in [false, true] {
                for pool in [None, Some(halving)] {
                    let (ph, pw) = match pool {
                        None => (oh, ow),
                        Some(g) => match (g.output_size(oh), g.output_size(ow)) {
                            (Some(ph), Some(pw)) => (ph, pw),
                            _ => continue, // 1×1 has nothing to pool
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
                            let what = format!(
                                "c_out {c_out} {oh}x{ow} relu {relu} pool {} pad {pad} nonfinite {nonfinite}",
                                pool.is_some()
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
