//! Property-based tests of the numeric kernels.
//!
//! Inputs are generated with the in-tree deterministic RNG
//! (`seal_tensor::rng`); each property runs a fixed number of seeded
//! cases and reports the failing seed.

use seal_tensor::ops::{avg_pool2d, conv2d, matmul, max_pool2d, Conv2dGeometry, PoolGeometry};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::{Rng, SeedableRng};
use seal_tensor::{Shape, Tensor};

const CASES: u64 = 48;

fn arb_tensor(rng: &mut StdRng, shape: Shape) -> Tensor {
    let v: Vec<f32> = (0..shape.volume())
        .map(|_| rng.gen_range(-4.0f32..4.0))
        .collect();
    Tensor::from_vec(v, shape).expect("length matches")
}

/// Matmul is left- and right-distributive over addition.
#[test]
fn matmul_distributes_over_addition() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = seal_tensor::uniform(&mut rng, Shape::matrix(4, 5), -2.0, 2.0);
        let b = seal_tensor::uniform(&mut rng, Shape::matrix(5, 3), -2.0, 2.0);
        let c = seal_tensor::uniform(&mut rng, Shape::matrix(5, 3), -2.0, 2.0);
        let left = matmul(&a, &b.add(&c).unwrap()).unwrap();
        let right = matmul(&a, &b)
            .unwrap()
            .add(&matmul(&a, &c).unwrap())
            .unwrap();
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((l - r).abs() < 1e-3, "seed {seed}: {l} vs {r}");
        }
    }
}

/// Transpose is an involution and matmul transposes contravariantly.
#[test]
fn transpose_reverses_matmul() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7A + seed);
        let a = seal_tensor::uniform(&mut rng, Shape::matrix(3, 4), -2.0, 2.0);
        let b = seal_tensor::uniform(&mut rng, Shape::matrix(4, 2), -2.0, 2.0);
        let ab_t = matmul(&a, &b).unwrap().transpose().unwrap();
        let bt_at = matmul(&b.transpose().unwrap(), &a.transpose().unwrap()).unwrap();
        for (l, r) in ab_t.as_slice().iter().zip(bt_at.as_slice()) {
            assert!((l - r).abs() < 1e-3, "seed {seed}");
        }
        assert_eq!(
            a.transpose().unwrap().transpose().unwrap(),
            a,
            "seed {seed}"
        );
    }
}

/// Convolution is linear in the input: conv(x+y) = conv(x) + conv(y)
/// (no bias).
#[test]
fn conv_is_linear_in_input() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0 + seed);
        let x = arb_tensor(&mut rng, Shape::nchw(1, 2, 5, 5));
        let y = arb_tensor(&mut rng, Shape::nchw(1, 2, 5, 5));
        let w = seal_tensor::uniform(&mut rng, Shape::nchw(3, 2, 3, 3), -1.0, 1.0);
        let geom = Conv2dGeometry::same3x3();
        let lhs = conv2d(&x.add(&y).unwrap(), &w, None, &geom).unwrap();
        let rhs = conv2d(&x, &w, None, &geom)
            .unwrap()
            .add(&conv2d(&y, &w, None, &geom).unwrap())
            .unwrap();
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((l - r).abs() < 1e-3, "seed {seed}");
        }
    }
}

/// Max pooling dominates average pooling element-wise.
#[test]
fn max_pool_dominates_avg_pool() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9001 + seed);
        let x = arb_tensor(&mut rng, Shape::nchw(1, 2, 6, 6));
        let geom = PoolGeometry::halving();
        let (mx, _) = max_pool2d(&x, &geom).unwrap();
        let av = avg_pool2d(&x, &geom).unwrap();
        for (m, a) in mx.as_slice().iter().zip(av.as_slice()) {
            assert!(m + 1e-6 >= *a, "seed {seed}");
        }
    }
}

/// ℓ1 norm is a norm: triangle inequality and absolute homogeneity.
#[test]
fn l1_norm_is_a_norm() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x11 + seed);
        let x = arb_tensor(&mut rng, Shape::vector(32));
        let y = arb_tensor(&mut rng, Shape::vector(32));
        let k: f32 = rng.gen_range(-3.0f32..3.0);
        let tri = x.add(&y).unwrap().l1_norm();
        assert!(tri <= x.l1_norm() + y.l1_norm() + 1e-3, "seed {seed}");
        let hom = x.scale(k).l1_norm();
        assert!(
            (hom - k.abs() * x.l1_norm()).abs() < 1e-2 * (1.0 + hom),
            "seed {seed}"
        );
    }
}

/// Reshape never changes the data, only the shape.
#[test]
fn reshape_preserves_contents() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2E5 + seed);
        let x = arb_tensor(&mut rng, Shape::nchw(1, 3, 4, 4));
        let flat = x.clone().reshape(Shape::vector(48)).unwrap();
        assert_eq!(flat.as_slice(), x.as_slice(), "seed {seed}");
        let back = flat.reshape(Shape::nchw(1, 3, 4, 4)).unwrap();
        assert_eq!(back, x, "seed {seed}");
    }
}
