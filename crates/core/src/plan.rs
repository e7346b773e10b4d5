//! Per-network encryption plans: which kernel rows of which layers are
//! encrypted (Sec. III-A, "Smart Encryption").

use seal_nn::{KernelMatrix, LayerKind, NetworkTopology, Sequential};

use crate::{select_encrypted_rows, CoreError, ImportanceMetric};

/// The SE policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SePolicy {
    /// Fraction of kernel rows encrypted in SE layers (paper default: 0.5,
    /// from the security study of Figs. 3–4).
    pub ratio: f64,
    /// Fully encrypt the boundary layers — first two CONV, last CONV and
    /// every FC — "to prevent the adversary from calculating the weight
    /// parameters via input and output layers" (Sec. III-B1).
    pub boundary_full_encryption: bool,
    /// Importance metric (ℓ1 in the paper; others for ablation).
    pub metric: ImportanceMetric,
}

impl SePolicy {
    /// The paper's recommended policy: 50% ratio, boundary layers fully
    /// encrypted, ℓ1 importance.
    pub fn paper_default() -> Self {
        SePolicy {
            ratio: 0.5,
            boundary_full_encryption: true,
            metric: ImportanceMetric::L1,
        }
    }

    /// Same policy at a different encryption ratio.
    #[must_use]
    pub fn with_ratio(mut self, ratio: f64) -> Self {
        self.ratio = ratio;
        self
    }
}

impl Default for SePolicy {
    fn default() -> Self {
        SePolicy::paper_default()
    }
}

/// The encryption decision for one kernel-matrix layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    /// Layer name.
    pub name: String,
    /// `true` for CONV, `false` for FC.
    pub is_conv: bool,
    /// Total kernel rows (input channels / features).
    pub rows: usize,
    /// Sorted indices of encrypted rows.
    pub encrypted_rows: Vec<usize>,
    /// Whether the whole layer is encrypted by the boundary rule.
    pub fully_encrypted: bool,
}

impl LayerPlan {
    /// Fraction of rows encrypted.
    pub fn encrypted_fraction(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        if self.fully_encrypted {
            return 1.0;
        }
        self.encrypted_rows.len() as f64 / self.rows as f64
    }

    /// Whether kernel row `i` (and therefore input channel `i`) is
    /// encrypted.
    pub fn is_row_encrypted(&self, i: usize) -> bool {
        self.fully_encrypted || self.encrypted_rows.binary_search(&i).is_ok()
    }
}

/// A complete SE plan for one network: one [`LayerPlan`] per kernel-matrix
/// layer, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct EncryptionPlan {
    policy: SePolicy,
    layers: Vec<LayerPlan>,
}

impl EncryptionPlan {
    /// Builds a plan from a trained model, ranking real kernel-row
    /// ℓ1-norms.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] for an out-of-range ratio or a
    /// model without kernel matrices.
    pub fn from_model(model: &Sequential, policy: SePolicy) -> Result<Self, CoreError> {
        let matrices = model.kernel_matrices();
        Self::from_matrices(&matrices, policy)
    }

    /// Builds a plan from kernel-matrix descriptions.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] for an out-of-range ratio or an
    /// empty matrix list.
    pub fn from_matrices(matrices: &[KernelMatrix], policy: SePolicy) -> Result<Self, CoreError> {
        if matrices.is_empty() {
            return Err(CoreError::InvalidPolicy {
                reason: "network has no CONV/FC layers to plan".into(),
            });
        }
        let conv_positions: Vec<usize> = matrices
            .iter()
            .enumerate()
            .filter(|(_, m)| m.kind == LayerKind::Conv)
            .map(|(i, _)| i)
            .collect();
        let mut layers = Vec::with_capacity(matrices.len());
        for (i, m) in matrices.iter().enumerate() {
            let is_conv = m.kind == LayerKind::Conv;
            let boundary_conv = is_conv
                && (conv_positions.iter().position(|&p| p == i) == Some(0)
                    || conv_positions.iter().position(|&p| p == i) == Some(1)
                    || conv_positions.last() == Some(&i));
            let fully_encrypted = policy.boundary_full_encryption && (boundary_conv || !is_conv);
            let encrypted_rows = if fully_encrypted {
                (0..m.rows).collect()
            } else {
                select_encrypted_rows(&m.row_l1, policy.ratio, policy.metric)?
            };
            layers.push(LayerPlan {
                name: m.name.clone(),
                is_conv,
                rows: m.rows,
                encrypted_rows,
                fully_encrypted,
            });
        }
        Ok(EncryptionPlan { policy, layers })
    }

    /// Builds a plan from a shape-only topology. Row importances are
    /// synthesised deterministically (per layer index and row) — only the
    /// *count* of encrypted rows matters for traffic, and the synthetic
    /// norms keep row selection reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] for an out-of-range ratio or a
    /// topology without kernel matrices.
    pub fn from_topology(topo: &NetworkTopology, policy: SePolicy) -> Result<Self, CoreError> {
        let matrices: Vec<KernelMatrix> = topo
            .layers()
            .iter()
            .filter(|l| l.has_kernel_matrix())
            .enumerate()
            .map(|(li, l)| {
                let rows = match l.role {
                    seal_nn::LayerRole::Conv { in_channels, .. } => in_channels,
                    seal_nn::LayerRole::Fc { in_features, .. } => in_features,
                    seal_nn::LayerRole::Pool { .. } => unreachable!("filtered"),
                };
                let row_l1 = (0..rows)
                    .map(|r| {
                        let mut z = (li as u64) << 32 | r as u64;
                        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                        ((z ^ (z >> 31)) as f32 / u64::MAX as f32) + 0.5
                    })
                    .collect();
                KernelMatrix {
                    name: l.name.clone(),
                    kind: if matches!(l.role, seal_nn::LayerRole::Conv { .. }) {
                        LayerKind::Conv
                    } else {
                        LayerKind::Fc
                    },
                    rows,
                    row_l1,
                }
            })
            .collect();
        Self::from_matrices(&matrices, policy)
    }

    /// Assembles a plan from raw parts **without validation**. This is the
    /// entry point for plans produced outside the planners above (hand
    /// written, loaded from disk, mutated for ablations) — exactly the
    /// input [`analyze_plan`](crate::analyze_plan) is designed to vet
    /// before the plan touches traffic generation.
    pub fn from_parts(policy: SePolicy, layers: Vec<LayerPlan>) -> Self {
        EncryptionPlan { policy, layers }
    }

    /// The policy this plan was built with.
    pub fn policy(&self) -> &SePolicy {
        &self.policy
    }

    /// The per-layer plans in execution order.
    pub fn layers(&self) -> &[LayerPlan] {
        &self.layers
    }

    /// Looks up a layer plan by name.
    pub fn layer(&self, name: &str) -> Option<&LayerPlan> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Mean encrypted-row fraction across all planned layers (unweighted).
    pub fn mean_encrypted_fraction(&self) -> f64 {
        if self.layers.is_empty() {
            return 0.0;
        }
        self.layers
            .iter()
            .map(|l| l.encrypted_fraction())
            .sum::<f64>()
            / self.layers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_nn::models::{resnet18_topology, vgg16_topology};

    #[test]
    fn boundary_layers_fully_encrypted() {
        let topo = vgg16_topology();
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        // 13 CONV + 3 FC = 16 planned layers.
        assert_eq!(plan.layers().len(), 16);
        let convs: Vec<&LayerPlan> = plan.layers().iter().filter(|l| l.is_conv).collect();
        assert!(convs[0].fully_encrypted, "first CONV");
        assert!(convs[1].fully_encrypted, "second CONV");
        assert!(convs[12].fully_encrypted, "last CONV");
        assert!(!convs[5].fully_encrypted, "middle CONV uses SE");
        assert!(plan
            .layers()
            .iter()
            .filter(|l| !l.is_conv)
            .all(|l| l.fully_encrypted));
    }

    #[test]
    fn se_layers_encrypt_the_requested_fraction() {
        let topo = vgg16_topology();
        let plan =
            EncryptionPlan::from_topology(&topo, SePolicy::default().with_ratio(0.5)).unwrap();
        let mid = plan
            .layers()
            .iter()
            .find(|l| l.is_conv && !l.fully_encrypted)
            .unwrap();
        let frac = mid.encrypted_fraction();
        assert!((frac - 0.5).abs() < 0.05, "{frac}");
    }

    #[test]
    fn ratio_zero_encrypts_only_boundaries() {
        let topo = resnet18_topology();
        let plan =
            EncryptionPlan::from_topology(&topo, SePolicy::default().with_ratio(0.0)).unwrap();
        let se_layers: Vec<&LayerPlan> = plan
            .layers()
            .iter()
            .filter(|l| !l.fully_encrypted)
            .collect();
        assert!(!se_layers.is_empty());
        assert!(se_layers.iter().all(|l| l.encrypted_rows.is_empty()));
    }

    #[test]
    fn is_row_encrypted_agrees_with_list() {
        let topo = vgg16_topology();
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let mid = plan
            .layers()
            .iter()
            .find(|l| l.is_conv && !l.fully_encrypted)
            .unwrap();
        for r in 0..mid.rows {
            assert_eq!(
                mid.is_row_encrypted(r),
                mid.encrypted_rows.contains(&r),
                "row {r}"
            );
        }
    }

    #[test]
    fn from_model_uses_real_l1_norms() {
        use seal_tensor::rng::SeedableRng;
        let mut rng = seal_tensor::rng::rngs::StdRng::seed_from_u64(3);
        let model =
            seal_nn::models::vgg16(&mut rng, &seal_nn::models::VggConfig::reduced()).unwrap();
        let plan = EncryptionPlan::from_model(&model, SePolicy::paper_default()).unwrap();
        assert_eq!(plan.layers().len(), 16);
        // An SE layer's encrypted rows must be the top-ℓ1 rows of the model.
        let matrices = model.kernel_matrices();
        let (idx, se) = plan
            .layers()
            .iter()
            .enumerate()
            .find(|(_, l)| !l.fully_encrypted)
            .unwrap();
        let norms = &matrices[idx].row_l1;
        let min_enc = se
            .encrypted_rows
            .iter()
            .map(|&r| norms[r])
            .fold(f32::INFINITY, f32::min);
        let max_plain = (0..se.rows)
            .filter(|r| !se.encrypted_rows.contains(r))
            .map(|r| norms[r])
            .fold(f32::NEG_INFINITY, f32::max);
        assert!(
            min_enc >= max_plain,
            "encrypted rows must dominate: min enc {min_enc} vs max plain {max_plain}"
        );
    }

    #[test]
    fn disabled_boundary_rule_plans_every_layer_selectively() {
        let topo = vgg16_topology();
        let mut policy = SePolicy::paper_default();
        policy.boundary_full_encryption = false;
        let plan = EncryptionPlan::from_topology(&topo, policy).unwrap();
        assert!(plan.layers().iter().all(|l| !l.fully_encrypted));
    }

    #[test]
    fn invalid_ratio_rejected() {
        let topo = vgg16_topology();
        assert!(EncryptionPlan::from_topology(&topo, SePolicy::default().with_ratio(1.5)).is_err());
    }
}
