//! Mini-batch training loop used by both victim training and the
//! adversary's substitute retraining.

use seal_tensor::rng::seq::SliceRandom;
use seal_tensor::rng::Rng;
use seal_tensor::{Shape, Tensor};

use crate::{NnError, Optimizer, Sequential, SoftmaxCrossEntropy};

/// Training-loop hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FitConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Multiply the learning rate by this factor after each epoch.
    pub lr_decay: f32,
    /// Shuffle samples every epoch.
    pub shuffle: bool,
}

impl FitConfig {
    /// A reasonable default for the reduced CPU models.
    pub fn new(epochs: usize, batch_size: usize) -> Self {
        FitConfig {
            epochs,
            batch_size,
            lr_decay: 1.0,
            shuffle: true,
        }
    }
}

/// Per-epoch record of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training accuracy after the final epoch.
    pub final_train_accuracy: f32,
}

/// Gathers rows `indices` of `[N, ...]` `images` (and their labels) into a
/// batch tensor.
///
/// # Errors
///
/// Returns [`NnError::InvalidLabels`] if any index is out of range.
pub fn gather_batch(
    images: &Tensor,
    labels: &[usize],
    indices: &[usize],
) -> Result<(Tensor, Vec<usize>), NnError> {
    let n = images.shape().dim(0);
    let sample_len: usize = images.shape().dims()[1..].iter().product();
    let mut data = Vec::with_capacity(indices.len() * sample_len);
    let mut batch_labels = Vec::with_capacity(indices.len());
    for &i in indices {
        if i >= n || i >= labels.len() {
            return Err(NnError::InvalidLabels {
                reason: format!("sample index {i} out of range ({n} samples)"),
            });
        }
        data.extend_from_slice(&images.as_slice()[i * sample_len..(i + 1) * sample_len]);
        batch_labels.push(labels[i]);
    }
    let mut dims = vec![indices.len()];
    dims.extend_from_slice(&images.shape().dims()[1..]);
    Ok((Tensor::from_vec(data, Shape::new(dims))?, batch_labels))
}

/// Trains `model` on `(images, labels)` with the given optimizer.
///
/// # Errors
///
/// Propagates model and label errors.
pub fn fit(
    model: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
    optimizer: &mut dyn Optimizer,
    config: &FitConfig,
    rng: &mut impl Rng,
) -> Result<FitReport, NnError> {
    let n = images.shape().dim(0);
    if n != labels.len() {
        return Err(NnError::InvalidLabels {
            reason: format!("{} labels for {n} images", labels.len()),
        });
    }
    if config.batch_size == 0 || config.epochs == 0 {
        return Err(NnError::InvalidConfig {
            reason: "fit needs positive epochs and batch size".into(),
        });
    }
    let mut order: Vec<usize> = (0..n).collect();
    let mut loss_fn = SoftmaxCrossEntropy::new();
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    for _epoch in 0..config.epochs {
        if config.shuffle {
            order.shuffle(rng);
        }
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            let (batch, batch_labels) = gather_batch(images, labels, chunk)?;
            let logits = model.forward(&batch, true)?;
            let loss = loss_fn.forward(&logits, &batch_labels)?;
            model.zero_grad();
            let grad = loss_fn.backward()?;
            model.backward(&grad)?;
            optimizer.step(model)?;
            epoch_loss += loss;
            batches += 1;
        }
        epoch_losses.push(epoch_loss / batches.max(1) as f32);
        optimizer.set_learning_rate(optimizer.learning_rate() * config.lr_decay);
    }

    let final_train_accuracy = accuracy(model, images, labels, config.batch_size)?;
    Ok(FitReport {
        epoch_losses,
        final_train_accuracy,
    })
}

/// Classification accuracy of `model` on `(images, labels)`.
///
/// # Errors
///
/// Propagates model errors.
pub fn accuracy(
    model: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<f32, NnError> {
    let n = images.shape().dim(0);
    if n == 0 {
        return Ok(0.0);
    }
    let indices: Vec<usize> = (0..n).collect();
    let mut correct = 0usize;
    for chunk in indices.chunks(batch_size.max(1)) {
        let (batch, batch_labels) = gather_batch(images, labels, chunk)?;
        let preds = model.predict(&batch)?;
        correct += preds
            .iter()
            .zip(&batch_labels)
            .filter(|(p, y)| p == y)
            .count();
    }
    Ok(correct as f32 / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear};
    use crate::Sgd;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;

    /// Two linearly separable blobs: training should reach high accuracy.
    fn blobs(rng: &mut StdRng, n_per_class: usize) -> (Tensor, Vec<usize>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..2 * n_per_class {
            let class = i % 2;
            let center = if class == 0 { -2.0 } else { 2.0 };
            for _ in 0..4 {
                data.push(center + rng.gen_range(-0.5..0.5));
            }
            labels.push(class);
        }
        (
            Tensor::from_vec(data, Shape::nchw(2 * n_per_class, 1, 2, 2)).unwrap(),
            labels,
        )
    }

    #[test]
    fn fit_learns_separable_blobs() {
        let mut rng = StdRng::seed_from_u64(7);
        let (images, labels) = blobs(&mut rng, 32);
        let mut model = Sequential::new("m")
            .with(Box::new(Flatten::new("f")))
            .with(Box::new(Linear::new(&mut rng, "fc", 4, 2).unwrap()));
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let report = fit(
            &mut model,
            &images,
            &labels,
            &mut opt,
            &FitConfig::new(10, 8),
            &mut rng,
        )
        .unwrap();
        assert!(report.final_train_accuracy > 0.95, "{report:?}");
        assert!(
            report.epoch_losses.last().unwrap() < &report.epoch_losses[0],
            "loss decreased"
        );
    }

    #[test]
    fn gather_batch_collects_rows() {
        let images =
            Tensor::from_vec((0..12).map(|v| v as f32).collect(), Shape::nchw(3, 1, 2, 2)).unwrap();
        let (batch, labels) = gather_batch(&images, &[9, 8, 7], &[2, 0]).unwrap();
        assert_eq!(batch.shape().dims(), &[2, 1, 2, 2]);
        assert_eq!(batch.as_slice()[0], 8.0);
        assert_eq!(labels, vec![7, 9]);
    }

    #[test]
    fn gather_batch_rejects_out_of_range() {
        let images = Tensor::zeros(Shape::nchw(2, 1, 1, 1));
        assert!(gather_batch(&images, &[0, 1], &[2]).is_err());
    }

    #[test]
    fn fit_validates_config() {
        let mut rng = StdRng::seed_from_u64(0);
        let (images, labels) = blobs(&mut rng, 4);
        let mut model = Sequential::new("m").with(Box::new(Flatten::new("f")));
        let mut opt = Sgd::new(0.1);
        let bad = FitConfig {
            epochs: 0,
            batch_size: 4,
            lr_decay: 1.0,
            shuffle: false,
        };
        assert!(fit(&mut model, &images, &labels, &mut opt, &bad, &mut rng).is_err());
    }

    #[test]
    fn label_count_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let images = Tensor::zeros(Shape::nchw(3, 1, 1, 1));
        let mut model = Sequential::new("m");
        let mut opt = Sgd::new(0.1);
        assert!(fit(
            &mut model,
            &images,
            &[0, 1],
            &mut opt,
            &FitConfig::new(1, 2),
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn accuracy_on_empty_set_is_zero() {
        let mut model = Sequential::new("m");
        let images = Tensor::zeros(Shape::nchw(0, 1, 1, 1));
        assert_eq!(accuracy(&mut model, &images, &[], 4).unwrap(), 0.0);
    }
}
