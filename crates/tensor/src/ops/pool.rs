use crate::{Shape, Tensor, TensorError};

/// Geometry of a 2-D pooling window (square window, no padding — the
/// configuration used by every POOL layer in VGG and the ResNets'
/// downsampling stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolGeometry {
    /// Window height and width.
    pub window: usize,
    /// Stride in both dimensions.
    pub stride: usize,
}

impl PoolGeometry {
    /// The ubiquitous `2×2 / stride 2` pooling.
    pub fn halving() -> Self {
        PoolGeometry {
            window: 2,
            stride: 2,
        }
    }

    /// Output spatial size for `n` input pixels, or `None` if the window
    /// does not fit.
    pub fn output_size(&self, n: usize) -> Option<usize> {
        if n < self.window || self.stride == 0 {
            return None;
        }
        Some((n - self.window) / self.stride + 1)
    }
}

impl Default for PoolGeometry {
    fn default() -> Self {
        PoolGeometry::halving()
    }
}

fn check_pool(
    input: &Tensor,
    geom: &PoolGeometry,
) -> Result<(usize, usize, usize, usize, usize, usize), TensorError> {
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.shape().rank(),
            op: "pool2d",
        });
    }
    let (n, c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
        input.shape().dim(3),
    );
    let (oh, ow) = pool_out_hw(h, w, geom)?;
    Ok((n, c, h, w, oh, ow))
}

/// The pooled map's height and width, or the side the window misses.
fn pool_out_hw(h: usize, w: usize, geom: &PoolGeometry) -> Result<(usize, usize), TensorError> {
    let oh = geom
        .output_size(h)
        .ok_or_else(|| TensorError::InvalidGeometry {
            reason: format!("pool window {} does not fit height {h}", geom.window),
        })?;
    let ow = geom
        .output_size(w)
        .ok_or_else(|| TensorError::InvalidGeometry {
            reason: format!("pool window {} does not fit width {w}", geom.window),
        })?;
    Ok((oh, ow))
}

/// Max pooling forward pass. Returns the pooled tensor and the flat index of
/// each selected element (needed by the backward pass).
///
/// # Errors
///
/// Returns [`TensorError`] for non-rank-4 inputs or windows that do not fit.
// seal-lint: allow(panic-freedom) — window offsets are clipped to the input extent by the pooling geometry
pub fn max_pool2d(
    input: &Tensor,
    geom: &PoolGeometry,
) -> Result<(Tensor, Vec<usize>), TensorError> {
    let (n, c, h, w, oh, ow) = check_pool(input, geom)?;
    let x = input.as_slice();
    let mut out = Tensor::zeros(Shape::nchw(n, c, oh, ow));
    // Training-path kernel: the backward pass needs the argmax, so this
    // allocating variant is not the planned hot path (`max_pool2d_into` is).
    let mut argmax = vec![0usize; out.len()]; // off the steady-state path
    let plane_out = oh * ow;

    // One task per (batch, channel) plane; argmax stays in absolute flat
    // input coordinates, as the backward pass expects.
    if plane_out > 0 {
        seal_pool::par_chunks_pair_mut(
            out.as_mut_slice(),
            plane_out,
            &mut argmax,
            plane_out,
            |p, o, am| {
                let base = p * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for ky in 0..geom.window {
                            let iy = oy * geom.stride + ky;
                            for kx in 0..geom.window {
                                let ix = ox * geom.stride + kx;
                                let idx = base + iy * w + ix;
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        o[oy * ow + ox] = best;
                        am[oy * ow + ox] = best_idx;
                    }
                }
            },
        );
    }
    Ok((out, argmax))
}

/// Max pooling backward pass: routes each upstream gradient to the argmax
/// element recorded by [`max_pool2d`].
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] if `argmax` and `grad_output`
/// disagree in length.
pub fn max_pool2d_backward(
    input_shape: &Shape,
    grad_output: &Tensor,
    argmax: &[usize],
) -> Result<Tensor, TensorError> {
    if argmax.len() != grad_output.len() {
        return Err(TensorError::LengthMismatch {
            expected: grad_output.len(),
            actual: argmax.len(),
        });
    }
    let mut grad_input = Tensor::zeros(input_shape.clone());
    let gi = grad_input.as_mut_slice();
    let go = grad_output.as_slice();
    // Per-plane parallel scatter when the shapes factor into (n·c) planes;
    // each plane's argmax indices land inside that plane, so the regions
    // are disjoint. Anything irregular falls back to the serial scatter.
    let planes = if input_shape.rank() == 4 {
        input_shape.dim(0) * input_shape.dim(1)
    } else {
        0
    };
    if planes > 0 && gi.len().is_multiple_of(planes) && go.len().is_multiple_of(planes) {
        let plane_in = gi.len() / planes;
        let plane_out = go.len() / planes;
        if plane_in > 0 && plane_out > 0 {
            seal_pool::par_chunks_mut(gi, plane_in, |p, gp| {
                let base = p * plane_in;
                for (g, &idx) in go[p * plane_out..(p + 1) * plane_out]
                    .iter()
                    .zip(&argmax[p * plane_out..(p + 1) * plane_out])
                {
                    gp[idx - base] += g;
                }
            });
            return Ok(grad_input);
        }
    }
    for (g, &idx) in go.iter().zip(argmax) {
        gi[idx] += g;
    }
    Ok(grad_input)
}

/// Allocation-free max pooling into a caller-owned buffer — the inference
/// forward of the compiled plans and of `MaxPool2d`: the window scan of
/// [`max_pool2d`] (so values are bitwise identical), no argmax recording,
/// no allocation.
/// `x` is `n·c·h·w` NCHW activations, `out` receives `n·c·oh·ow`.
///
/// # Errors
///
/// [`TensorError::LengthMismatch`] if either buffer disagrees with the
/// dimensions; [`TensorError::InvalidGeometry`] if the window does not fit.
#[allow(clippy::too_many_arguments)]
// seal-lint: allow(panic-freedom) — window offsets are clipped to the input extent; the output buffer is sized by the same geometry
pub fn max_pool2d_into(
    x: &[f32],
    out: &mut [f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: &PoolGeometry,
) -> Result<(), TensorError> {
    let (oh, ow) = check_pool_into(x, out, n, c, h, w, geom)?;
    let plane_out = oh * ow;
    if plane_out == 0 {
        return Ok(());
    }
    seal_pool::par_chunks_mut(out, plane_out, |p, o| {
        max_pool_plane(&x[p * h * w..(p + 1) * h * w], o, h, w, geom);
    });
    Ok(())
}

/// Max-pools one `h × w` channel plane into `o` (`oh·ow`, the window
/// positions that fit): each output is the strict-`>` selection from `−∞`
/// over its window in `(ky, kx)` order — a NaN is never selected, an
/// all-NaN window answers `−∞`, and of equal candidates (`−0.0`, `0.0`)
/// the first stays. The one scan [`max_pool2d_into`] and the planned
/// convolution's fused epilogue both run.
#[inline(always)]
// seal-lint: allow(panic-freedom) — window offsets are clipped to the plane by the pooling geometry (`(oh−1)·stride + window ≤ h`); `o` is sized by the same geometry
pub(crate) fn max_pool_plane(x: &[f32], o: &mut [f32], h: usize, w: usize, geom: &PoolGeometry) {
    let (Some(_), Some(ow)) = (geom.output_size(h), geom.output_size(w)) else {
        return;
    };
    if (geom.window, geom.stride) == (2, 2) {
        // The halving pool of every served model, as whole-row iterators
        // (no index arithmetic, so the loop vectorises): the same four
        // candidates in the same order. An odd last row or column falls
        // off the end of `chunks_exact`, as the geometry says it must.
        for (orow, rows) in o.chunks_exact_mut(ow).zip(x.chunks_exact(2 * w)) {
            let (top, bottom) = rows.split_at(w);
            let pairs = top.chunks_exact(2).zip(bottom.chunks_exact(2));
            for (out, (t, b)) in orow.iter_mut().zip(pairs) {
                let mut best = f32::NEG_INFINITY;
                for v in [t[0], t[1], b[0], b[1]] {
                    if v > best {
                        best = v;
                    }
                }
                *out = best;
            }
        }
        return;
    }
    for (oy, orow) in o.chunks_exact_mut(ow).enumerate() {
        for (ox, out) in orow.iter_mut().enumerate() {
            let mut best = f32::NEG_INFINITY;
            for ky in 0..geom.window {
                let iy = oy * geom.stride + ky;
                for kx in 0..geom.window {
                    let v = x[iy * w + ox * geom.stride + kx];
                    if v > best {
                        best = v;
                    }
                }
            }
            *out = best;
        }
    }
}

/// Allocation-free average pooling into a caller-owned buffer — the one
/// average-pool forward: the compiled plans call it directly, and
/// [`avg_pool2d`] over a tensor it allocates. Each output is the window's
/// sum in `(ky, kx)` order from `0.0`, times `1/window²`.
///
/// # Errors
///
/// Same errors as [`max_pool2d_into`].
#[allow(clippy::too_many_arguments)]
// seal-lint: allow(panic-freedom) — window offsets are clipped to the input extent; the output buffer is sized by the same geometry
pub fn avg_pool2d_into(
    x: &[f32],
    out: &mut [f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: &PoolGeometry,
) -> Result<(), TensorError> {
    let (oh, ow) = check_pool_into(x, out, n, c, h, w, geom)?;
    let plane_out = oh * ow;
    if plane_out == 0 {
        return Ok(());
    }
    let norm = 1.0 / (geom.window * geom.window) as f32;
    seal_pool::par_chunks_mut(out, plane_out, |p, o| {
        let base = p * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ky in 0..geom.window {
                    let iy = oy * geom.stride + ky;
                    for kx in 0..geom.window {
                        acc += x[base + iy * w + ox * geom.stride + kx];
                    }
                }
                o[oy * ow + ox] = acc * norm;
            }
        }
    });
    Ok(())
}

fn check_pool_into(
    x: &[f32],
    out: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: &PoolGeometry,
) -> Result<(usize, usize), TensorError> {
    let (oh, ow) = pool_out_hw(h, w, geom)?;
    for (expected, actual) in [(n * c * h * w, x.len()), (n * c * oh * ow, out.len())] {
        if expected != actual {
            return Err(TensorError::LengthMismatch { expected, actual });
        }
    }
    Ok((oh, ow))
}

/// Average pooling forward pass: [`avg_pool2d_into`] into a fresh tensor.
///
/// # Errors
///
/// Returns [`TensorError`] for non-rank-4 inputs or windows that do not fit.
pub fn avg_pool2d(input: &Tensor, geom: &PoolGeometry) -> Result<Tensor, TensorError> {
    let (n, c, h, w, oh, ow) = check_pool(input, geom)?;
    let mut out = Tensor::zeros(Shape::nchw(n, c, oh, ow));
    avg_pool2d_into(input.as_slice(), out.as_mut_slice(), n, c, h, w, geom)?;
    Ok(out)
}

/// Average pooling backward pass: spreads each upstream gradient uniformly
/// over its window.
///
/// # Errors
///
/// Returns [`TensorError`] if `grad_output` does not have the shape implied
/// by `input_shape` and `geom`.
pub fn avg_pool2d_backward(
    input_shape: &Shape,
    grad_output: &Tensor,
    geom: &PoolGeometry,
) -> Result<Tensor, TensorError> {
    if input_shape.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input_shape.rank(),
            op: "avg_pool2d_backward",
        });
    }
    let (n, c, h, w) = (
        input_shape.dim(0),
        input_shape.dim(1),
        input_shape.dim(2),
        input_shape.dim(3),
    );
    let oh = geom
        .output_size(h)
        .ok_or_else(|| TensorError::InvalidGeometry {
            reason: "window does not fit".into(),
        })?;
    let ow = geom
        .output_size(w)
        .ok_or_else(|| TensorError::InvalidGeometry {
            reason: "window does not fit".into(),
        })?;
    let expected = Shape::nchw(n, c, oh, ow);
    if !grad_output.shape().same_dims(&expected) {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_output.shape().clone(),
            rhs: expected,
            op: "avg_pool2d_backward",
        });
    }
    let mut grad_input = Tensor::zeros(input_shape.clone());
    let go = grad_output.as_slice();
    let norm = 1.0 / (geom.window * geom.window) as f32;
    let plane_in = h * w;
    if plane_in > 0 && oh * ow > 0 {
        seal_pool::par_chunks_mut(grad_input.as_mut_slice(), plane_in, |p, gi| {
            let go_base = p * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[go_base + oy * ow + ox] * norm;
                    for ky in 0..geom.window {
                        let iy = oy * geom.stride + ky;
                        for kx in 0..geom.window {
                            gi[iy * w + ox * geom.stride + kx] += g;
                        }
                    }
                }
            }
        });
    }
    Ok(grad_input)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input_4x4() -> Tensor {
        Tensor::from_vec((0..16).map(|v| v as f32).collect(), Shape::nchw(1, 1, 4, 4)).unwrap()
    }

    #[test]
    fn max_pool_picks_window_maxima() {
        let (out, argmax) = max_pool2d(&input_4x4(), &PoolGeometry::halving()).unwrap();
        assert_eq!(out.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
        assert_eq!(argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn avg_pool_averages() {
        let out = avg_pool2d(&input_4x4(), &PoolGeometry::halving()).unwrap();
        assert_eq!(out.as_slice(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let input = input_4x4();
        let (out, argmax) = max_pool2d(&input, &PoolGeometry::halving()).unwrap();
        let go = Tensor::ones(out.shape().clone());
        let gi = max_pool2d_backward(input.shape(), &go, &argmax).unwrap();
        assert_eq!(gi.sum(), 4.0);
        assert_eq!(gi.as_slice()[5], 1.0);
        assert_eq!(gi.as_slice()[0], 0.0);
    }

    #[test]
    fn avg_pool_backward_conserves_gradient_mass() {
        let input = input_4x4();
        let out = avg_pool2d(&input, &PoolGeometry::halving()).unwrap();
        let go = Tensor::full(out.shape().clone(), 2.0);
        let gi = avg_pool2d_backward(input.shape(), &go, &PoolGeometry::halving()).unwrap();
        assert!((gi.sum() - go.sum()).abs() < 1e-6);
        assert!((gi.as_slice()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn window_too_large_is_error() {
        let g = PoolGeometry {
            window: 8,
            stride: 8,
        };
        assert!(max_pool2d(&input_4x4(), &g).is_err());
        assert!(avg_pool2d(&input_4x4(), &g).is_err());
    }

    #[test]
    fn global_average_pool_collapses_spatial_dims() {
        let g = PoolGeometry {
            window: 4,
            stride: 4,
        };
        let out = avg_pool2d(&input_4x4(), &g).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 1, 1]);
        assert!((out.as_slice()[0] - 7.5).abs() < 1e-6);
    }

    /// `max_pool2d_into` must produce bitwise the values of the training
    /// kernel's own scan; the average pool (`avg_pool2d` runs
    /// `avg_pool2d_into`) those of the window sums written out here.
    #[test]
    fn into_variants_match_allocating_kernels_bitwise() {
        use crate::rng::rngs::StdRng;
        use crate::rng::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let (n, c, h, w) = (2, 3, 7, 5);
        let input = crate::uniform(&mut rng, Shape::nchw(n, c, h, w), -1.0, 1.0);
        let geom = PoolGeometry {
            window: 3,
            stride: 2,
        };
        let (mx, _) = max_pool2d(&input, &geom).unwrap();
        let av = avg_pool2d(&input, &geom).unwrap();
        let mut mx2 = vec![0.0f32; mx.len()];
        let mut av2 = vec![0.0f32; av.len()];
        max_pool2d_into(input.as_slice(), &mut mx2, n, c, h, w, &geom).unwrap();
        avg_pool2d_into(input.as_slice(), &mut av2, n, c, h, w, &geom).unwrap();
        assert!(mx
            .as_slice()
            .iter()
            .zip(&mx2)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let (oh, ow) = (geom.output_size(h).unwrap(), geom.output_size(w).unwrap());
        let mut want = Vec::new();
        for plane in input.as_slice().chunks_exact(h * w) {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ky in 0..3 {
                        for kx in 0..3 {
                            acc += plane[(oy * 2 + ky) * w + ox * 2 + kx];
                        }
                    }
                    want.push(acc * (1.0 / 9.0));
                }
            }
        }
        for got in [av.as_slice(), &av2] {
            assert!(got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        // Length mismatches are rejected.
        let mut short = vec![0.0f32; 3];
        assert!(max_pool2d_into(input.as_slice(), &mut short, n, c, h, w, &geom).is_err());
    }

    #[test]
    fn argmax_length_mismatch_rejected() {
        let go = Tensor::ones(Shape::nchw(1, 1, 2, 2));
        let err = max_pool2d_backward(&Shape::nchw(1, 1, 4, 4), &go, &[1, 2]).unwrap_err();
        assert!(matches!(err, TensorError::LengthMismatch { .. }));
    }
}
