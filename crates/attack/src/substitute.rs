//! Substitute-model construction (Sec. III-B1).
//!
//! The adversary's knowledge depends on what the accelerator encrypts:
//!
//! * no encryption → **white-box**: the substitute *is* the victim;
//! * full encryption → **black-box**: architecture known (via side
//!   channels), weights unknown — retrain from scratch on query-labelled
//!   data;
//! * SEAL → the unencrypted (least-important) kernel rows are read off the
//!   bus and **frozen**; the encrypted rows are initialised with He-normal
//!   noise and fine-tuned — "the adversary keeps the known weight
//!   parameters unchanged and fine-tunes unknown weight parameters".

use seal_core::EncryptionPlan;
use seal_nn::{LayerKind, Param, Sequential};
use seal_tensor::rng::Rng;
use seal_tensor::Tensor;

use crate::AttackError;

/// What the adversary can see of the victim's weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubstituteKind {
    /// Everything (no memory encryption).
    WhiteBox,
    /// Nothing (full memory encryption).
    BlackBox,
    /// Everything except the rows selected by a SEAL plan.
    Seal,
}

/// Copies every parameter of `victim` into `substitute` (white-box
/// extraction).
///
/// # Errors
///
/// Returns [`AttackError::ModelMismatch`] if the models disagree
/// structurally.
pub fn copy_all_weights(
    victim: &Sequential,
    substitute: &mut Sequential,
) -> Result<(), AttackError> {
    let src = victim.params();
    let mut dst = substitute.params_mut();
    if src.len() != dst.len() {
        return Err(AttackError::ModelMismatch {
            reason: format!("{} vs {} parameters", src.len(), dst.len()),
        });
    }
    for (s, d) in src.iter().zip(dst.iter_mut()) {
        if !s.value.shape().same_dims(d.value.shape()) {
            return Err(AttackError::ModelMismatch {
                reason: format!("shape {} vs {}", s.value.shape(), d.value.shape()),
            });
        }
        d.value = s.value.clone();
        d.mask = None;
    }
    substitute
        .import_state(&victim.export_state())
        .map_err(|e| AttackError::ModelMismatch {
            reason: format!("state transfer failed: {e}"),
        })?;
    Ok(())
}

/// Builds the per-element trainability mask for a kernel-matrix weight
/// tensor given the set of **encrypted** (unknown → trainable) rows.
///
/// For a CONV weight `[co, ci, k, k]`, row `i` is the slice `[:, i, :, :]`;
/// for an FC weight `[out, in]`, row `i` is column `i`.
pub fn row_trainability_mask(
    kind: LayerKind,
    weight: &Tensor,
    encrypted_rows: &[usize],
) -> Vec<f32> {
    let dims = weight.shape().dims();
    let is_encrypted = |row: usize| encrypted_rows.binary_search(&row).is_ok();
    match kind {
        LayerKind::Conv => {
            let (ci, k2) = (dims[1], dims[2] * dims[3]);
            (0..weight.len())
                .map(|idx| {
                    let row = (idx / k2) % ci;
                    if is_encrypted(row) {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect()
        }
        LayerKind::Fc => {
            let inf = dims[1];
            (0..weight.len())
                .map(|idx| if is_encrypted(idx % inf) { 1.0 } else { 0.0 })
                .collect()
        }
        _ => vec![1.0; weight.len()],
    }
}

/// Initialises `substitute` as the paper's SEAL substitute:
///
/// 1. copy the victim's **unencrypted** rows verbatim and freeze them;
/// 2. fill **encrypted** rows with He-normal noise and leave them
///    trainable;
/// 3. biases stay at the substitute's fresh initialisation and remain
///    trainable (they are coupled to the kernel rows);
/// 4. batch-norm parameters and running statistics are copied: they are
///    per-channel affine constants that deployments fuse into adjacent
///    layers, and the SE scheme's security argument concerns kernel
///    weights (documented substitution — the paper's VGG has no BN and
///    the paper does not discuss BN metadata).
///
/// The `plan` must have been built from the victim (same layer names and
/// row counts).
///
/// # Errors
///
/// Returns [`AttackError::ModelMismatch`] when plan and models disagree.
pub fn apply_seal_knowledge(
    victim: &Sequential,
    substitute: &mut Sequential,
    plan: &EncryptionPlan,
    rng: &mut impl Rng,
) -> Result<(), AttackError> {
    // Pair victim and substitute kernel weights in order; validate names.
    let victim_matrices = victim.kernel_matrices();
    let victim_values: Vec<Tensor> = {
        // Collect victim kernel weight tensors via an immutable walk: the
        // kernel_weights accessor is mutable-only, so clone through params
        // pairing by shape order.
        let v = victim_clone_kernel_values(victim);
        if v.len() != victim_matrices.len() {
            return Err(AttackError::ModelMismatch {
                reason: "victim kernel inventory inconsistent".into(),
            });
        }
        v
    };
    let mut sub_weights = substitute.kernel_weights_mut();
    if sub_weights.len() != victim_matrices.len() || plan.layers().len() != sub_weights.len() {
        return Err(AttackError::ModelMismatch {
            reason: format!(
                "victim {} / substitute {} / plan {} kernel layers",
                victim_matrices.len(),
                sub_weights.len(),
                plan.layers().len()
            ),
        });
    }

    for ((vm, vvalue), ((sname, sparam), lplan)) in victim_matrices
        .iter()
        .zip(victim_values)
        .zip(sub_weights.iter_mut().zip(plan.layers()))
    {
        if vm.name != *sname || vm.name != lplan.name {
            return Err(AttackError::ModelMismatch {
                reason: format!(
                    "layer order mismatch: {} / {sname} / {}",
                    vm.name, lplan.name
                ),
            });
        }
        if !vvalue.shape().same_dims(sparam.value.shape()) {
            return Err(AttackError::ModelMismatch {
                reason: format!("weight shape mismatch in {}", vm.name),
            });
        }
        if lplan.fully_encrypted {
            // Entirely unknown: fresh init stays, everything trainable.
            sparam.mask = None;
            randomise(sparam, rng);
            continue;
        }
        let mask = row_trainability_mask(vm.kind, &sparam.value, &lplan.encrypted_rows);
        // Known (mask 0) elements copy the victim; unknown keep noise.
        randomise(sparam, rng);
        for ((dst, src), m) in sparam
            .value
            .as_mut_slice()
            .iter_mut()
            .zip(vvalue.as_slice())
            .zip(&mask)
        {
            if *m == 0.0 {
                *dst = *src;
            }
        }
        sparam.mask = Some(mask);
    }
    // Normalisation metadata (γ/β + running stats) is public per the note
    // in the doc comment.
    {
        let vsrc: Vec<Tensor> = victim
            .norm_params()
            .iter()
            .map(|p| p.value.clone())
            .collect();
        let mut dst = substitute.norm_params_mut();
        if vsrc.len() != dst.len() {
            return Err(AttackError::ModelMismatch {
                reason: "normalisation parameter count mismatch".into(),
            });
        }
        for (d, sv) in dst.iter_mut().zip(vsrc) {
            d.value = sv;
        }
    }
    substitute
        .import_state(&victim.export_state())
        .map_err(|e| AttackError::ModelMismatch {
            reason: format!("state transfer failed: {e}"),
        })?;
    Ok(())
}

fn randomise(param: &mut Param, rng: &mut impl Rng) {
    // He-normal with fan-in from the tensor's trailing dims — the paper's
    // "random numbers following a standard normal distribution" (scaled per
    // He et al.).
    let dims = param.value.shape().dims().to_vec();
    let fan_in: usize = dims[1..].iter().product::<usize>().max(1);
    let std = (2.0 / fan_in as f32).sqrt();
    for v in param.value.as_mut_slice() {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        *v = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * std;
    }
}

/// Clones the victim's kernel weight tensors in `kernel_matrices` order.
fn victim_clone_kernel_values(victim: &Sequential) -> Vec<Tensor> {
    // `params()` flattens [weights, bias, …] per layer; kernel weights are
    // the params whose shape matches the kernel inventory in order.
    let matrices = victim.kernel_matrices();
    let mut out = Vec::with_capacity(matrices.len());
    let mut mi = 0usize;
    for p in victim.params() {
        if mi >= matrices.len() {
            break;
        }
        let m = &matrices[mi];
        let dims = p.value.shape().dims();
        let matches = match m.kind {
            LayerKind::Conv => dims.len() == 4 && dims[1] == m.rows,
            LayerKind::Fc => dims.len() == 2 && dims[1] == m.rows,
            _ => false,
        };
        if matches {
            out.push(p.value.clone());
            mi += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_core::SePolicy;
    use seal_nn::models::{vgg16, VggConfig};
    use seal_tensor::rng::rngs::StdRng;
    use seal_tensor::rng::SeedableRng;

    fn pair() -> (Sequential, Sequential) {
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let cfg = VggConfig::reduced();
        (vgg16(&mut r1, &cfg).unwrap(), vgg16(&mut r2, &cfg).unwrap())
    }

    #[test]
    fn white_box_copy_is_exact() {
        let (victim, mut sub) = pair();
        copy_all_weights(&victim, &mut sub).unwrap();
        for (a, b) in victim.params().iter().zip(sub.params()) {
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn conv_mask_selects_whole_rows() {
        use seal_tensor::Shape;
        let w = Tensor::zeros(Shape::nchw(2, 3, 2, 2));
        let mask = row_trainability_mask(LayerKind::Conv, &w, &[1]);
        // Elements of row 1: for each of 2 out-channels, the middle 4 of
        // each 12-element in-block.
        for o in 0..2 {
            for i in 0..3 {
                for e in 0..4 {
                    let idx = (o * 3 + i) * 4 + e;
                    assert_eq!(mask[idx], if i == 1 { 1.0 } else { 0.0 }, "idx {idx}");
                }
            }
        }
    }

    #[test]
    fn fc_mask_selects_columns() {
        use seal_tensor::Shape;
        let w = Tensor::zeros(Shape::matrix(3, 4));
        let mask = row_trainability_mask(LayerKind::Fc, &w, &[0, 2]);
        for r in 0..3 {
            assert_eq!(mask[r * 4], 1.0);
            assert_eq!(mask[r * 4 + 1], 0.0);
            assert_eq!(mask[r * 4 + 2], 1.0);
            assert_eq!(mask[r * 4 + 3], 0.0);
        }
    }

    #[test]
    fn seal_substitute_knows_exactly_the_unencrypted_rows() {
        let (victim, mut sub) = pair();
        let plan = EncryptionPlan::from_model(&victim, SePolicy::paper_default()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        apply_seal_knowledge(&victim, &mut sub, &plan, &mut rng).unwrap();

        let vmat = victim.kernel_matrices();
        let vvals = victim_clone_kernel_values(&victim);
        let mut svals = sub.kernel_weights_mut();
        for (((vm, vv), (_, sp)), lp) in vmat
            .iter()
            .zip(&vvals)
            .zip(svals.iter_mut())
            .zip(plan.layers())
        {
            if lp.fully_encrypted {
                // Fully unknown layers must not equal the victim.
                assert_ne!(vv.as_slice(), sp.value.as_slice(), "{}", vm.name);
                continue;
            }
            let mask = sp.mask.as_ref().expect("SE layers carry masks");
            for ((v, s), m) in vv.as_slice().iter().zip(sp.value.as_slice()).zip(mask) {
                if *m == 0.0 {
                    assert_eq!(v, s, "known weights copied in {}", vm.name);
                }
            }
            // Trainable fraction ≈ the plan's encrypted fraction.
            let trainable = mask.iter().filter(|m| **m > 0.0).count() as f64 / mask.len() as f64;
            assert!(
                (trainable - lp.encrypted_fraction()).abs() < 0.05,
                "{}: {trainable} vs {}",
                vm.name,
                lp.encrypted_fraction()
            );
        }
    }

    #[test]
    fn mismatched_models_rejected() {
        let mut r1 = StdRng::seed_from_u64(1);
        let victim = vgg16(&mut r1, &VggConfig::reduced()).unwrap();
        let mut other_cfg = VggConfig::reduced();
        other_cfg.base_width = 4;
        let mut sub = vgg16(&mut r1, &other_cfg).unwrap();
        assert!(copy_all_weights(&victim, &mut sub).is_err());
    }
}
