//! Full-size model smoke tests: the paper-scale architectures must be
//! constructible and runnable, not just their reduced variants.

use seal::core::{EncryptionPlan, SePolicy};
use seal::nn::models::{resnet, vgg16, ResNetConfig, VggConfig};
use seal::tensor::{Shape, Tensor};
use seal_tensor::rng::SeedableRng;

#[test]
fn full_vgg16_forward_and_plan() {
    let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(1);
    let mut model = vgg16(&mut rng, &VggConfig::full()).unwrap();
    assert!(
        model.num_parameters() > 14_000_000,
        "{} params",
        model.num_parameters()
    );
    let x = Tensor::zeros(Shape::nchw(1, 3, 32, 32));
    let y = model.forward(&x, false).unwrap();
    assert_eq!(y.shape().dims(), &[1, 10]);

    // Planning over the real 15 M weights.
    let plan = EncryptionPlan::from_model(&model, SePolicy::paper_default()).unwrap();
    assert_eq!(plan.layers().len(), 16);
    let mid = plan
        .layers()
        .iter()
        .find(|l| !l.fully_encrypted)
        .expect("SE layers exist");
    assert!((mid.encrypted_fraction() - 0.5).abs() < 0.05);
}

#[test]
fn full_resnet18_forward() {
    let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(2);
    let mut model = resnet(&mut rng, &ResNetConfig::full(18)).unwrap();
    assert!(model.num_parameters() > 10_000_000);
    let x = Tensor::zeros(Shape::nchw(1, 3, 32, 32));
    let y = model.forward(&x, false).unwrap();
    assert_eq!(y.shape().dims(), &[1, 10]);
}
