//! Determinism contract of the compiled f32 plans: a plan's logits are
//! **bitwise identical** to `Sequential::forward_infer` for every zoo
//! network and every thread count, because both paths replay the same
//! float operations in the same order. (The int8 plans are pinned in
//! `plan_quant.rs`.)

use seal_nn::models::{mlp, resnet, vgg16, MlpConfig, ResNetConfig, VggConfig};
use seal_nn::{CompiledModel, Sequential};
use seal_pool::{with_pool, Pool};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::{Shape, Tensor};

const THREADS: [usize; 3] = [1, 2, 8];

fn sample(seed: u64, n: usize, c: usize, hw: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    seal_tensor::uniform(&mut rng, Shape::nchw(n, c, hw, hw), -1.0, 1.0)
}

fn assert_bitwise(plan_out: &[f32], reference: &[f32], what: &str) {
    assert_eq!(plan_out.len(), reference.len(), "{what}: length mismatch");
    for (i, (p, r)) in plan_out.iter().zip(reference).enumerate() {
        assert_eq!(
            p.to_bits(),
            r.to_bits(),
            "{what}: logit {i} differs ({p} vs {r})"
        );
    }
}

/// Runs the bitwise matrix (batch × thread count) for one model.
fn check_model_plans(model: &Sequential, c: usize, hw: usize, seed: u64, what: &str) {
    let input = Shape::nchw(1, c, hw, hw);
    let mut plan = CompiledModel::compile(model, &input, 8, false).unwrap();
    for n in [1usize, 5, 8] {
        let x = sample(seed + n as u64, n, c, hw);
        let reference = model.forward_infer(&x).unwrap();
        for threads in THREADS {
            let pool = Pool::new(threads);
            with_pool(&pool, || {
                let logits = plan.execute_into(&x).unwrap();
                assert_bitwise(
                    logits,
                    reference.as_slice(),
                    &format!("{what} plan, batch {n}, {threads} threads"),
                );
            });
        }
    }
}

#[test]
fn vgg16_plan_bitwise_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(301);
    let cfg = VggConfig::reduced();
    let model = vgg16(&mut rng, &cfg).unwrap();
    check_model_plans(&model, cfg.input_channels, cfg.input_hw, 310, "vgg16");
    // The zoo's third model, as `seal-serve` serves it (3×8×8 input): the
    // servers have no interpreter path to compare their plans against.
    let model = mlp(&mut rng, &MlpConfig::reduced()).unwrap();
    check_model_plans(&model, 3, 8, 315, "mlp");
}

#[test]
fn resnet18_plan_bitwise_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(302);
    let cfg = ResNetConfig::reduced(18);
    let model = resnet(&mut rng, &cfg).unwrap();
    check_model_plans(&model, cfg.input_channels, cfg.input_hw, 320, "resnet18");
}

#[test]
fn plan_classify_matches_predict_under_pool() {
    let mut rng = StdRng::seed_from_u64(303);
    let cfg = ResNetConfig::reduced(18);
    let model = resnet(&mut rng, &cfg).unwrap();
    let input = Shape::nchw(1, cfg.input_channels, cfg.input_hw, cfg.input_hw);
    let mut plan = CompiledModel::compile(&model, &input, 4, false).unwrap();
    let x = sample(330, 4, cfg.input_channels, cfg.input_hw);
    let pool = Pool::new(4);
    with_pool(&pool, || {
        assert_eq!(plan.classify(&x).unwrap(), model.predict(&x).unwrap());
    });
}
