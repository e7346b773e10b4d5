use seal_tensor::rng::Rng;
use seal_tensor::{Shape, Tensor};

use crate::{DataError, Dataset};

/// Generator for the synthetic CIFAR-10 stand-in distribution.
///
/// Each class `k` owns a procedural prototype image built from two oriented
/// sinusoidal gratings and a radial blob whose parameters (orientation,
/// frequency, centre, per-channel phase) are deterministic functions of `k`.
/// A sample is `prototype + shift + noise`, so classes are learnable but not
/// trivially separable at higher noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticCifar {
    /// Image height and width.
    pub image_hw: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Standard deviation of additive pixel noise.
    pub noise: f32,
    /// Maximum random translation of the prototype, in pixels.
    pub max_shift: usize,
}

impl SyntheticCifar {
    /// A generator for `hw × hw` RGB images over `num_classes` classes with
    /// default difficulty (noise 0.35, shift ±2).
    pub fn new(hw: usize, num_classes: usize) -> Self {
        SyntheticCifar {
            image_hw: hw,
            num_classes,
            noise: 0.35,
            max_shift: 2,
        }
    }

    /// Overrides the noise level.
    #[must_use]
    pub fn with_noise(mut self, noise: f32) -> Self {
        self.noise = noise;
        self
    }

    /// The noiseless prototype image of class `k` as a `[1, 3, H, W]`
    /// tensor.
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_classes`.
    pub fn prototype(&self, k: usize) -> Tensor {
        assert!(k < self.num_classes, "class {k} out of range");
        let hw = self.image_hw;
        let mut img = Tensor::zeros(Shape::nchw(1, 3, hw, hw));
        self.render_prototype(k, 0, 0, img.as_mut_slice());
        img
    }

    fn render_prototype(&self, k: usize, dy: isize, dx: isize, out: &mut [f32]) {
        let hw = self.image_hw;
        let kf = k as f32;
        // Deterministic class parameters.
        let theta = kf * std::f32::consts::PI / self.num_classes as f32;
        let freq1 = 1.5 + (k % 4) as f32;
        let freq2 = 2.5 + (k % 3) as f32;
        let cx = hw as f32 * (0.3 + 0.4 * ((kf * 0.7).sin() * 0.5 + 0.5));
        let cy = hw as f32 * (0.3 + 0.4 * ((kf * 1.3).cos() * 0.5 + 0.5));
        let sigma = hw as f32 * 0.25;
        let (sin_t, cos_t) = theta.sin_cos();

        for c in 0..3usize {
            let phase = kf * 0.9 + c as f32 * 2.1;
            for y in 0..hw {
                for x in 0..hw {
                    let yy = (y as isize + dy).rem_euclid(hw as isize) as f32 / hw as f32;
                    let xx = (x as isize + dx).rem_euclid(hw as isize) as f32 / hw as f32;
                    let u = xx * cos_t + yy * sin_t;
                    let v = -xx * sin_t + yy * cos_t;
                    let grating = (2.0 * std::f32::consts::PI * freq1 * u + phase).sin()
                        + 0.5 * (2.0 * std::f32::consts::PI * freq2 * v + phase * 0.5).cos();
                    let dxx = xx * hw as f32 - cx;
                    let dyy = yy * hw as f32 - cy;
                    let blob = (-(dxx * dxx + dyy * dyy) / (2.0 * sigma * sigma)).exp();
                    out[(c * hw + y) * hw + x] = 0.6 * grating + 0.8 * blob;
                }
            }
        }
    }

    /// Generates `n` samples with labels drawn uniformly over the classes.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidDataset`] for a zero-sized geometry.
    pub fn generate(&self, rng: &mut impl Rng, n: usize) -> Result<Dataset, DataError> {
        if self.image_hw == 0 || self.num_classes == 0 {
            return Err(DataError::InvalidDataset {
                reason: "generator needs positive image size and classes".into(),
            });
        }
        let hw = self.image_hw;
        let sample_len = 3 * hw * hw;
        let mut data = vec![0.0f32; n * sample_len];
        let mut labels = Vec::with_capacity(n);
        let shift_range = self.max_shift as isize;
        for i in 0..n {
            let k = rng.gen_range(0..self.num_classes);
            labels.push(k);
            let dy = if shift_range > 0 {
                rng.gen_range(-shift_range..=shift_range)
            } else {
                0
            };
            let dx = if shift_range > 0 {
                rng.gen_range(-shift_range..=shift_range)
            } else {
                0
            };
            let out = &mut data[i * sample_len..(i + 1) * sample_len];
            self.render_prototype(k, dy, dx, out);
            for v in out.iter_mut() {
                *v += self.noise * standard_normal(rng);
            }
        }
        Dataset::new(
            Tensor::from_vec(data, Shape::nchw(n, 3, hw, hw))?,
            labels,
            self.num_classes,
        )
    }
}

impl SyntheticCifar {
    /// Generates a class-balanced dataset: `per_class` samples of every
    /// class, shuffled. Useful when small sample counts would otherwise
    /// leave classes unrepresented.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidDataset`] for a zero-sized geometry.
    pub fn generate_balanced(
        &self,
        rng: &mut impl Rng,
        per_class: usize,
    ) -> Result<Dataset, DataError> {
        if self.image_hw == 0 || self.num_classes == 0 {
            return Err(DataError::InvalidDataset {
                reason: "generator needs positive image size and classes".into(),
            });
        }
        let n = per_class * self.num_classes;
        let hw = self.image_hw;
        let sample_len = 3 * hw * hw;
        let mut data = vec![0.0f32; n * sample_len];
        let mut labels = Vec::with_capacity(n);
        let shift_range = self.max_shift as isize;
        for i in 0..n {
            let k = i % self.num_classes;
            labels.push(k);
            let dy = if shift_range > 0 {
                rng.gen_range(-shift_range..=shift_range)
            } else {
                0
            };
            let dx = if shift_range > 0 {
                rng.gen_range(-shift_range..=shift_range)
            } else {
                0
            };
            let out = &mut data[i * sample_len..(i + 1) * sample_len];
            self.render_prototype(k, dy, dx, out);
            for v in out.iter_mut() {
                *v += self.noise * standard_normal(rng);
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        use seal_tensor::rng::seq::SliceRandom;
        order.shuffle(rng);
        Dataset::new(
            seal_tensor::Tensor::from_vec(data, seal_tensor::Shape::nchw(n, 3, hw, hw))?,
            labels,
            self.num_classes,
        )?
        .subset(&order)
    }
}

fn standard_normal(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = SyntheticCifar::new(8, 10);
        let a = gen.generate(&mut StdRng::seed_from_u64(5), 20).unwrap();
        let b = gen.generate(&mut StdRng::seed_from_u64(5), 20).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn prototypes_differ_between_classes() {
        let gen = SyntheticCifar::new(8, 10);
        let p0 = gen.prototype(0);
        let p1 = gen.prototype(1);
        let dist = p0.sub(&p1).unwrap().l2_norm();
        assert!(dist > 1.0, "prototypes too close: {dist}");
    }

    #[test]
    fn samples_cluster_around_their_prototype() {
        let gen = SyntheticCifar::new(8, 4).with_noise(0.1);
        let mut rng = StdRng::seed_from_u64(9);
        let data = gen.generate(&mut rng, 40).unwrap();
        // Nearest-prototype classification should beat chance easily.
        let protos: Vec<Tensor> = (0..4).map(|k| gen.prototype(k)).collect();
        let mut correct = 0;
        for i in 0..data.len() {
            let (img, label) = data.sample(i).unwrap();
            let best = (0..4)
                .min_by(|&a, &b| {
                    let da = img.sub(&protos[a]).unwrap().l2_norm();
                    let db = img.sub(&protos[b]).unwrap().l2_norm();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == label {
                correct += 1;
            }
        }
        assert!(
            correct as f32 / data.len() as f32 > 0.5,
            "nearest-prototype accuracy {correct}/40"
        );
    }

    #[test]
    fn labels_cover_all_classes_eventually() {
        let gen = SyntheticCifar::new(4, 10);
        let data = gen.generate(&mut StdRng::seed_from_u64(0), 400).unwrap();
        let mut seen = [false; 10];
        for &l in data.labels() {
            seen[l] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn balanced_generation_covers_every_class_equally() {
        let gen = SyntheticCifar::new(4, 5);
        let data = gen
            .generate_balanced(&mut StdRng::seed_from_u64(1), 6)
            .unwrap();
        assert_eq!(data.len(), 30);
        let mut counts = vec![0usize; 5];
        for &l in data.labels() {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 6), "{counts:?}");
    }

    #[test]
    fn zero_geometry_rejected() {
        let gen = SyntheticCifar::new(0, 10);
        assert!(gen.generate(&mut StdRng::seed_from_u64(0), 1).is_err());
    }
}
