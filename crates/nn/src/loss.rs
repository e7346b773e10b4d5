use seal_tensor::{Shape, Tensor};

use crate::NnError;

/// Numerically stable softmax cross-entropy over logits.
///
/// `forward` returns the mean loss and caches the probabilities;
/// `backward` returns `∂L/∂logits` (already divided by the batch size).
///
/// ```
/// use seal_nn::SoftmaxCrossEntropy;
/// use seal_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), seal_nn::NnError> {
/// let logits = Tensor::from_vec(vec![10.0, -10.0], Shape::matrix(1, 2))?;
/// let mut loss = SoftmaxCrossEntropy::new();
/// let l = loss.forward(&logits, &[0])?;
/// assert!(l < 1e-3, "confident correct prediction has near-zero loss");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SoftmaxCrossEntropy {
    cached: Option<(Tensor, Vec<usize>)>,
}

impl SoftmaxCrossEntropy {
    /// Creates a loss instance.
    pub fn new() -> Self {
        SoftmaxCrossEntropy { cached: None }
    }

    /// Computes the softmax probabilities for `[batch, classes]` logits.
    pub fn probabilities(logits: &Tensor) -> Result<Tensor, NnError> {
        if logits.shape().rank() != 2 {
            return Err(NnError::InvalidConfig {
                reason: format!("softmax expects [batch, classes], got {}", logits.shape()),
            });
        }
        let (batch, classes) = (logits.shape().dim(0), logits.shape().dim(1));
        let x = logits.as_slice();
        let mut out = vec![0.0f32; x.len()];
        for b in 0..batch {
            let row = &x[b * classes..(b + 1) * classes];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (i, v) in row.iter().enumerate() {
                let e = (v - m).exp();
                out[b * classes + i] = e;
                denom += e;
            }
            for v in &mut out[b * classes..(b + 1) * classes] {
                *v /= denom;
            }
        }
        Ok(Tensor::from_vec(out, Shape::matrix(batch, classes))?)
    }

    /// Mean cross-entropy of `logits` against integer `labels`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLabels`] if `labels.len()` differs from the
    /// batch size or any label is out of range.
    pub fn forward(&mut self, logits: &Tensor, labels: &[usize]) -> Result<f32, NnError> {
        let probs = Self::probabilities(logits)?;
        let (batch, classes) = (probs.shape().dim(0), probs.shape().dim(1));
        if labels.len() != batch {
            return Err(NnError::InvalidLabels {
                reason: format!("{} labels for batch of {batch}", labels.len()),
            });
        }
        let mut loss = 0.0f32;
        for (b, &y) in labels.iter().enumerate() {
            if y >= classes {
                return Err(NnError::InvalidLabels {
                    reason: format!("label {y} out of range for {classes} classes"),
                });
            }
            loss -= probs.as_slice()[b * classes + y].max(1e-12).ln();
        }
        self.cached = Some((probs, labels.to_vec()));
        Ok(loss / batch as f32)
    }

    /// Gradient of the mean loss w.r.t. the logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if `forward` has not run.
    pub fn backward(&mut self) -> Result<Tensor, NnError> {
        let (probs, labels) = self
            .cached
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "softmax_cross_entropy".into(),
            })?;
        let (batch, classes) = (probs.shape().dim(0), probs.shape().dim(1));
        let mut grad = probs;
        {
            let g = grad.as_mut_slice();
            for (b, &y) in labels.iter().enumerate() {
                g[b * classes + y] -= 1.0;
            }
            let inv = 1.0 / batch as f32;
            for v in g.iter_mut() {
                *v *= inv;
            }
        }
        Ok(grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one() {
        let logits =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], Shape::matrix(2, 3)).unwrap();
        let p = SoftmaxCrossEntropy::probabilities(&logits).unwrap();
        for b in 0..2 {
            let s: f32 = p.as_slice()[b * 3..(b + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn uniform_logits_give_log_classes_loss() {
        let logits = Tensor::zeros(Shape::matrix(1, 10));
        let mut loss = SoftmaxCrossEntropy::new();
        let l = loss.forward(&logits, &[4]).unwrap();
        assert!((l - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_is_probs_minus_onehot_over_batch() {
        let logits = Tensor::zeros(Shape::matrix(2, 2));
        let mut loss = SoftmaxCrossEntropy::new();
        loss.forward(&logits, &[0, 1]).unwrap();
        let g = loss.backward().unwrap();
        // probs = 0.5 each; grad = (0.5-1)/2 and 0.5/2.
        assert!((g.as_slice()[0] + 0.25).abs() < 1e-6);
        assert!((g.as_slice()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn label_out_of_range_rejected() {
        let logits = Tensor::zeros(Shape::matrix(1, 3));
        let mut loss = SoftmaxCrossEntropy::new();
        assert!(matches!(
            loss.forward(&logits, &[3]),
            Err(NnError::InvalidLabels { .. })
        ));
        assert!(matches!(
            loss.forward(&logits, &[0, 1]),
            Err(NnError::InvalidLabels { .. })
        ));
    }

    /// Softmax-CE gradient rows sum to zero: probabilities sum to 1 and
    /// the one-hot subtracts exactly 1.
    #[test]
    fn gradient_rows_sum_to_zero() {
        use seal_tensor::rng::SeedableRng;
        let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(4);
        let logits = seal_tensor::uniform(&mut rng, Shape::matrix(5, 7), -3.0, 3.0);
        let mut loss = SoftmaxCrossEntropy::new();
        loss.forward(&logits, &[0, 1, 2, 3, 4]).unwrap();
        let g = loss.backward().unwrap();
        for b in 0..5 {
            let row_sum: f32 = g.as_slice()[b * 7..(b + 1) * 7].iter().sum();
            assert!(row_sum.abs() < 1e-5, "row {b} sums to {row_sum}");
        }
    }

    /// The loss gradient matches finite differences of the mean CE.
    #[test]
    fn gradient_matches_finite_differences() {
        let mut logits =
            Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1, 0.9, -0.2], Shape::matrix(2, 3)).unwrap();
        let labels = [2usize, 0];
        let mut loss = SoftmaxCrossEntropy::new();
        loss.forward(&logits, &labels).unwrap();
        let g = loss.backward().unwrap();
        let eps = 1e-3f32;
        for idx in 0..6 {
            let orig = logits.as_slice()[idx];
            logits.as_mut_slice()[idx] = orig + eps;
            let up = SoftmaxCrossEntropy::new()
                .forward(&logits, &labels)
                .unwrap();
            logits.as_mut_slice()[idx] = orig - eps;
            let dn = SoftmaxCrossEntropy::new()
                .forward(&logits, &labels)
                .unwrap();
            logits.as_mut_slice()[idx] = orig;
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (numeric - g.as_slice()[idx]).abs() < 1e-3,
                "idx {idx}: {numeric} vs {}",
                g.as_slice()[idx]
            );
        }
    }

    #[test]
    fn extreme_logits_do_not_overflow() {
        let logits = Tensor::from_vec(vec![1e4, -1e4], Shape::matrix(1, 2)).unwrap();
        let mut loss = SoftmaxCrossEntropy::new();
        let l = loss.forward(&logits, &[1]).unwrap();
        assert!(l.is_finite());
    }
}
