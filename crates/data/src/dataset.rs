use seal_tensor::rng::seq::SliceRandom;
use seal_tensor::rng::Rng;
use seal_tensor::{Shape, Tensor};

use crate::DataError;

/// A labelled image dataset: `[N, C, H, W]` images plus integer labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    images: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Wraps images and labels into a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidDataset`] if counts disagree, the image
    /// tensor is not rank 4, or a label is out of range.
    pub fn new(images: Tensor, labels: Vec<usize>, num_classes: usize) -> Result<Self, DataError> {
        if images.shape().rank() != 4 {
            return Err(DataError::InvalidDataset {
                reason: format!("images must be [N,C,H,W], got {}", images.shape()),
            });
        }
        if images.shape().dim(0) != labels.len() {
            return Err(DataError::InvalidDataset {
                reason: format!(
                    "{} images but {} labels",
                    images.shape().dim(0),
                    labels.len()
                ),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DataError::InvalidDataset {
                reason: format!("label {bad} out of range for {num_classes} classes"),
            });
        }
        Ok(Dataset {
            images,
            labels,
            num_classes,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The image tensor `[N, C, H, W]`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// The labels, one per image.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The shape of a single sample (`[1, C, H, W]`).
    pub fn sample_shape(&self) -> Shape {
        let d = self.images.shape().dims();
        Shape::nchw(1, d[1], d[2], d[3])
    }

    /// Copies sample `i` out as a `[1, C, H, W]` tensor with its label.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidDataset`] if `i` is out of range.
    pub fn sample(&self, i: usize) -> Result<(Tensor, usize), DataError> {
        if i >= self.len() {
            return Err(DataError::InvalidDataset {
                reason: format!("sample {i} out of range ({})", self.len()),
            });
        }
        let len: usize = self.images.shape().dims()[1..].iter().product();
        let data = self.images.as_slice()[i * len..(i + 1) * len].to_vec();
        Ok((Tensor::from_vec(data, self.sample_shape())?, self.labels[i]))
    }

    /// Builds a dataset from a subset of sample indices.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidDataset`] if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset, DataError> {
        let len: usize = self.images.shape().dims()[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.len() {
                return Err(DataError::InvalidDataset {
                    reason: format!("index {i} out of range ({})", self.len()),
                });
            }
            data.extend_from_slice(&self.images.as_slice()[i * len..(i + 1) * len]);
            labels.push(self.labels[i]);
        }
        let d = self.images.shape().dims();
        Ok(Dataset {
            images: Tensor::from_vec(data, Shape::nchw(indices.len(), d[1], d[2], d[3]))?,
            labels,
            num_classes: self.num_classes,
        })
    }

    /// Randomly splits into `(front, back)` with `fraction` of samples in
    /// the front part — the paper's 90% victim / 10% adversary isolation.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidDataset`] if `fraction` is outside
    /// `(0, 1)`.
    pub fn split(
        &self,
        fraction: f64,
        rng: &mut impl Rng,
    ) -> Result<(Dataset, Dataset), DataError> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(DataError::InvalidDataset {
                reason: format!("split fraction {fraction} outside [0, 1]"),
            });
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        let cut = (self.len() as f64 * fraction).round() as usize;
        Ok((self.subset(&order[..cut])?, self.subset(&order[cut..])?))
    }

    /// Concatenates two datasets with identical sample shapes and class
    /// counts (used when Jacobian augmentation grows the adversary's set).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidDataset`] on shape or class mismatch.
    pub fn concat(&self, other: &Dataset) -> Result<Dataset, DataError> {
        if self.num_classes != other.num_classes
            || self.images.shape().dims()[1..] != other.images.shape().dims()[1..]
        {
            return Err(DataError::InvalidDataset {
                reason: "datasets have different sample shapes or class counts".into(),
            });
        }
        let mut data = self.images.as_slice().to_vec();
        data.extend_from_slice(other.images.as_slice());
        let mut labels = self.labels.clone();
        labels.extend_from_slice(&other.labels);
        let d = self.images.shape().dims();
        Ok(Dataset {
            images: Tensor::from_vec(
                data,
                Shape::nchw(self.len() + other.len(), d[1], d[2], d[3]),
            )?,
            labels,
            num_classes: self.num_classes,
        })
    }

    /// Replaces the labels (e.g. with victim-model predictions when building
    /// the adversary's query-labelled training set).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidDataset`] on count mismatch or
    /// out-of-range labels.
    pub fn with_labels(&self, labels: Vec<usize>) -> Result<Dataset, DataError> {
        Dataset::new(self.images.clone(), labels, self.num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;

    fn toy(n: usize) -> Dataset {
        let images = Tensor::from_vec(
            (0..n * 4).map(|v| v as f32).collect(),
            Shape::nchw(n, 1, 2, 2),
        )
        .unwrap();
        let labels = (0..n).map(|i| i % 2).collect();
        Dataset::new(images, labels, 2).unwrap()
    }

    #[test]
    fn construction_validates() {
        let images = Tensor::zeros(Shape::nchw(2, 1, 2, 2));
        assert!(Dataset::new(images.clone(), vec![0], 2).is_err());
        assert!(Dataset::new(images.clone(), vec![0, 5], 2).is_err());
        assert!(Dataset::new(Tensor::zeros(Shape::vector(8)), vec![0, 1], 2).is_err());
        assert!(Dataset::new(images, vec![0, 1], 2).is_ok());
    }

    #[test]
    fn sample_extracts_row() {
        let d = toy(3);
        let (img, label) = d.sample(1).unwrap();
        assert_eq!(img.as_slice(), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(label, 1);
        assert!(d.sample(3).is_err());
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = toy(10);
        let mut rng = StdRng::seed_from_u64(1);
        let (a, b) = d.split(0.9, &mut rng).unwrap();
        assert_eq!(a.len(), 9);
        assert_eq!(b.len(), 1);
        assert!(d.split(1.5, &mut rng).is_err());
    }

    #[test]
    fn subset_preserves_order_of_indices() {
        let d = toy(4);
        let s = d.subset(&[3, 0]).unwrap();
        assert_eq!(s.labels(), &[1, 0]);
        assert_eq!(s.images().as_slice()[0], 12.0);
    }

    #[test]
    fn concat_appends() {
        let a = toy(2);
        let b = toy(3);
        let c = a.concat(&b).unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.labels()[2], 0);
    }

    #[test]
    fn with_labels_swaps() {
        let d = toy(2);
        let relabelled = d.with_labels(vec![1, 1]).unwrap();
        assert_eq!(relabelled.labels(), &[1, 1]);
        assert!(d.with_labels(vec![0]).is_err());
    }
}
