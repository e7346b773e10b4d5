//! Jacobian-based dataset augmentation (Papernot et al., ASIA CCS'17).
//!
//! The adversary holds only 10% of the training distribution. To stretch
//! it, each round perturbs every sample along the sign of the substitute's
//! Jacobian w.r.t. its current predicted class — the direction in which
//! the substitute's decision changes fastest — then queries the **victim**
//! for labels of the new points. The paper grows 5,000 seed images into a
//! 45,000-image query set this way.

use seal_data::Dataset;
use seal_nn::Sequential;
use seal_tensor::{Shape, Tensor};

use crate::AttackError;

/// Queries `victim` for labels of every sample in `images` (`[N,C,H,W]`).
///
/// # Errors
///
/// Propagates model errors.
pub fn query_labels(victim: &mut Sequential, images: &Tensor) -> Result<Vec<usize>, AttackError> {
    let n = images.shape().dim(0);
    let mut labels = Vec::with_capacity(n);
    let sample_len: usize = images.shape().dims()[1..].iter().product();
    // Batched queries keep memory bounded.
    let batch = 32usize;
    let mut i = 0usize;
    while i < n {
        let hi = (i + batch).min(n);
        let mut dims = vec![hi - i];
        dims.extend_from_slice(&images.shape().dims()[1..]);
        let data = images.as_slice()[i * sample_len..hi * sample_len].to_vec();
        let chunk = Tensor::from_vec(data, Shape::new(dims))?;
        labels.extend(victim.predict(&chunk)?);
        i = hi;
    }
    Ok(labels)
}

/// One augmentation round: `x' = x + λ · sign(∂ f_ŷ(x) / ∂x)` for every
/// sample, labelled by querying the victim. Returns the dataset of *new*
/// samples (callers typically [`Dataset::concat`] with the seed set).
///
/// # Errors
///
/// Returns [`AttackError::InvalidParameter`] for zero `lambda` (negative
/// values explore the opposite side of the decision boundary).
pub fn augment_round(
    substitute: &mut Sequential,
    victim: &mut Sequential,
    seeds: &Dataset,
    lambda: f32,
) -> Result<Dataset, AttackError> {
    if lambda == 0.0 {
        return Err(AttackError::InvalidParameter {
            reason: "lambda must be non-zero".into(),
        });
    }
    let n = seeds.len();
    let sample_len: usize = seeds.images().shape().dims()[1..].iter().product();
    let mut new_data = Vec::with_capacity(n * sample_len);

    for i in 0..n {
        let (x, _) = seeds.sample(i)?;
        // Substitute's current prediction for this point.
        let logits = substitute.forward(&x, false)?;
        let pred = logits.argmax().unwrap_or(0);
        // Gradient of the predicted logit w.r.t. the input.
        let mut grad_out = Tensor::zeros(logits.shape().clone());
        grad_out.as_mut_slice()[pred] = 1.0;
        substitute.zero_grad();
        let grad_in = substitute.backward(&grad_out)?;
        for (v, g) in x.as_slice().iter().zip(grad_in.as_slice()) {
            new_data.push(v + lambda * g.signum());
        }
    }
    let dims = seeds.images().shape().dims();
    let images = Tensor::from_vec(new_data, Shape::nchw(n, dims[1], dims[2], dims[3]))?;
    let labels = query_labels(victim, &images)?;
    Ok(Dataset::new(images, labels, seeds.num_classes())?)
}

/// Runs `rounds` of augmentation with Papernot's doubling schedule: each
/// round perturbs *every* sample collected so far, so the set grows
/// `2^rounds ×` (the paper grows 5,000 seeds into 45,000 queries).
///
/// # Errors
///
/// Propagates augmentation errors.
pub fn augment(
    substitute: &mut Sequential,
    victim: &mut Sequential,
    seeds: &Dataset,
    lambda: f32,
    rounds: usize,
) -> Result<Dataset, AttackError> {
    let mut acc = seeds.clone();
    for round in 0..rounds {
        // Alternate the perturbation sign by round so repeated rounds
        // explore both sides of the decision boundary.
        let lam = if round % 2 == 0 { lambda } else { -lambda };
        let new = augment_round(substitute, victim, &acc, lam)?;
        acc = acc.concat(&new)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_data::SyntheticCifar;
    use seal_nn::layers::{Flatten, Linear};
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;

    fn tiny_model(seed: u64, hw: usize) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new("m")
            .with(Box::new(Flatten::new("f")))
            .with(Box::new(
                Linear::new(&mut rng, "fc", 3 * hw * hw, 10).unwrap(),
            ))
    }

    #[test]
    fn query_labels_matches_predict() {
        let mut victim = tiny_model(1, 4);
        let data = SyntheticCifar::new(4, 10)
            .generate(&mut StdRng::seed_from_u64(0), 10)
            .unwrap();
        let labels = query_labels(&mut victim, data.images()).unwrap();
        assert_eq!(labels.len(), 10);
        assert!(labels.iter().all(|&l| l < 10));
    }

    #[test]
    fn augment_round_moves_samples_by_lambda() {
        let mut victim = tiny_model(1, 4);
        let mut sub = tiny_model(2, 4);
        let seeds = SyntheticCifar::new(4, 10)
            .generate(&mut StdRng::seed_from_u64(3), 5)
            .unwrap();
        let out = augment_round(&mut sub, &mut victim, &seeds, 0.1).unwrap();
        assert_eq!(out.len(), 5);
        // Every pixel moved by exactly ±λ (sign of a.e.-nonzero gradient).
        let moved: Vec<f32> = out
            .images()
            .as_slice()
            .iter()
            .zip(seeds.images().as_slice())
            .map(|(a, b)| (a - b).abs())
            .collect();
        let nonzero = moved.iter().filter(|d| **d > 1e-6).count();
        assert!(nonzero > moved.len() / 2);
        assert!(moved.iter().all(|d| *d < 0.11));
    }

    #[test]
    fn augment_grows_geometrically() {
        let mut victim = tiny_model(1, 4);
        let mut sub = tiny_model(2, 4);
        let seeds = SyntheticCifar::new(4, 10)
            .generate(&mut StdRng::seed_from_u64(3), 8)
            .unwrap();
        let grown = augment(&mut sub, &mut victim, &seeds, 0.1, 2).unwrap();
        assert_eq!(grown.len(), 32, "doubling schedule: 8 → 16 → 32");
    }

    #[test]
    fn non_positive_lambda_rejected() {
        let mut victim = tiny_model(1, 4);
        let mut sub = tiny_model(2, 4);
        let seeds = SyntheticCifar::new(4, 10)
            .generate(&mut StdRng::seed_from_u64(3), 2)
            .unwrap();
        assert!(augment_round(&mut sub, &mut victim, &seeds, 0.0).is_err());
    }
}
