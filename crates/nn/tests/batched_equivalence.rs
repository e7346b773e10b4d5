//! Regression tests guarding the batching path of the serving runtime:
//! running a batch of N samples through one `forward_infer` call must be
//! **bitwise** identical to running the N samples independently.
//!
//! Every kernel in `seal-tensor` iterates the batch dimension in an outer
//! loop, so per-sample accumulation order is the same either way; these
//! tests pin that property for the two zoo networks `seal-serve` batches
//! in its integration tests (VGG-16 and ResNet-18, CIFAR form).

use seal_nn::models::{resnet, vgg16, ResNetConfig, VggConfig};
use seal_nn::Sequential;
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::{Shape, Tensor};

/// Builds a batch of `n` deterministic samples plus the batched tensor.
fn batch_and_singles(seed: u64, n: usize, c: usize, hw: usize) -> (Tensor, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let batched = seal_tensor::uniform(&mut rng, Shape::nchw(n, c, hw, hw), -1.0, 1.0);
    let sample_len = c * hw * hw;
    let singles = (0..n)
        .map(|i| {
            let data = batched.as_slice()[i * sample_len..(i + 1) * sample_len].to_vec();
            Tensor::from_vec(data, Shape::nchw(1, c, hw, hw)).unwrap()
        })
        .collect();
    (batched, singles)
}

/// Asserts batched forward == concatenated single-sample forwards, bitwise.
fn assert_batched_equals_singles(model: &Sequential, batched: &Tensor, singles: &[Tensor]) {
    let out_batched = model.forward_infer(batched).unwrap();
    let classes = out_batched.shape().dim(1);
    for (i, single) in singles.iter().enumerate() {
        let out_single = model.forward_infer(single).unwrap();
        let got = &out_batched.as_slice()[i * classes..(i + 1) * classes];
        let want = out_single.as_slice();
        assert_eq!(
            got, want,
            "sample {i}: batched logits must equal the independent forward bitwise"
        );
    }
}

#[test]
fn vgg16_batched_forward_is_bitwise_equal_to_singles() {
    let mut rng = StdRng::seed_from_u64(11);
    let cfg = VggConfig::reduced();
    let model = vgg16(&mut rng, &cfg).unwrap();
    let (batched, singles) = batch_and_singles(21, 4, cfg.input_channels, cfg.input_hw);
    assert_batched_equals_singles(&model, &batched, &singles);
}

#[test]
fn resnet18_batched_forward_is_bitwise_equal_to_singles() {
    let mut rng = StdRng::seed_from_u64(12);
    let cfg = ResNetConfig::reduced(18);
    let model = resnet(&mut rng, &cfg).unwrap();
    let (batched, singles) = batch_and_singles(22, 4, cfg.input_channels, cfg.input_hw);
    assert_batched_equals_singles(&model, &batched, &singles);
}

#[test]
fn batched_predict_matches_per_sample_predict() {
    let mut rng = StdRng::seed_from_u64(13);
    let cfg = VggConfig::reduced();
    let model = vgg16(&mut rng, &cfg).unwrap();
    let (batched, singles) = batch_and_singles(23, 3, cfg.input_channels, cfg.input_hw);
    let batch_preds = model.predict(&batched).unwrap();
    for (i, single) in singles.iter().enumerate() {
        assert_eq!(model.predict(single).unwrap()[0], batch_preds[i]);
    }
}
