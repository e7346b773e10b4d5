//! Deterministic random initialisation of tensors.
//!
//! All initialisers take an explicit `rng` so experiments are reproducible
//! end-to-end from a single seed — important because the paper's Figures 3–4
//! compare substitute models that must be retrained from identical starting
//! points.

use crate::rng::Rng;

use crate::{Shape, Tensor};

/// Uniform initialisation in `[lo, hi)`.
///
/// ```
/// use seal_tensor::rng::SeedableRng;
/// use seal_tensor::{uniform, Shape};
///
/// let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(7);
/// let t = uniform(&mut rng, Shape::vector(4), -1.0, 1.0);
/// assert!(t.as_slice().iter().all(|v| (-1.0..1.0).contains(v)));
/// ```
pub fn uniform(rng: &mut impl Rng, shape: Shape, lo: f32, hi: f32) -> Tensor {
    let mut t = Tensor::zeros(shape);
    fill_uniform(rng, t.as_mut_slice(), lo, hi);
    t
}

/// Overwrites `out` with the draws [`uniform`] would fill a tensor of
/// that many elements with — the same values from the same `rng` state,
/// written into a buffer the caller already owns.
pub fn fill_uniform(rng: &mut impl Rng, out: &mut [f32], lo: f32, hi: f32) {
    for v in out {
        *v = rng.gen_range(lo..hi);
    }
}

/// Xavier/Glorot uniform initialisation for a weight tensor.
///
/// `fan_in`/`fan_out` follow the usual convention; the bound is
/// `sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rng: &mut impl Rng, shape: Shape, fan_in: usize, fan_out: usize) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(rng, shape, -bound, bound)
}

/// He (Kaiming) normal initialisation, the scheme the paper's adversary uses
/// to fill *unknown* weights ("random numbers following a standard normal
/// distribution", scaled for ReLU networks, per He et al. 2015).
pub fn he_normal(rng: &mut impl Rng, shape: Shape, fan_in: usize) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    let mut t = Tensor::zeros(shape);
    for v in t.as_mut_slice() {
        *v = standard_normal(rng) * std;
    }
    t
}

/// Box-Muller standard normal sample.
fn standard_normal(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rngs::StdRng;
    use crate::rng::SeedableRng;

    #[test]
    fn same_seed_same_tensor() {
        let a = uniform(&mut StdRng::seed_from_u64(1), Shape::vector(16), 0.0, 1.0);
        let b = uniform(&mut StdRng::seed_from_u64(1), Shape::vector(16), 0.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn xavier_bound_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = xavier_uniform(&mut rng, Shape::vector(1000), 5000, 5000);
        let bound = (6.0f32 / 10000.0).sqrt();
        assert!(t.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn he_normal_has_reasonable_spread() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = he_normal(&mut rng, Shape::vector(10_000), 50);
        let mean = t.sum() / t.len() as f32;
        let var = t.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32;
        let expected_var = 2.0 / 50.0;
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
        assert!(
            (var - expected_var).abs() < expected_var * 0.2,
            "variance {var} vs expected {expected_var}"
        );
    }
}
