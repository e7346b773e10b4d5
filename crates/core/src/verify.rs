//! Algebraic security-invariant checking (the paper's Eqs. 1–3).
//!
//! The SE scheme is only sound if, in every equation visible to a bus
//! snooper, encrypted operands never pair with plaintext ones: "encrypted
//! input channels are never multiplied with unencrypted weight rows, and
//! unencrypted input channels are never multiplied with encrypted weight
//! rows" (Sec. III-A). Then every unknown appears only inside a product of
//! two unknowns, and no individual matrix can be solved for.
//!
//! [`derive_assignment`] lowers a plan to the wire-level channel/row tags
//! and [`verify_assignment`] checks the invariant, flagging any
//! row-channel mismatch. [`analyze_plan`] runs the full static analysis a
//! deployment should pass before any traffic is generated: the coupling
//! invariant plus structural plan checks (row indices sorted, in range,
//! ratio honoured, boundary rule honoured). [`verify_heap_layout`] extends
//! the same static treatment to [`SecureHeap`](crate::SecureHeap)
//! allocations. None of these run the simulator.

use std::collections::BTreeSet;

use crate::{EncryptionPlan, LayerPlan, SecureHeap};

/// Wire-level encryption tags for one CONV/FC layer: which kernel rows are
/// ciphertext, and which channels of the input feature map arriving on the
/// bus are ciphertext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelAssignment {
    /// Layer name.
    pub layer: String,
    /// Total rows/channels.
    pub rows: usize,
    /// Encrypted kernel rows.
    pub encrypted_rows: BTreeSet<usize>,
    /// Encrypted input-feature-map channels.
    pub encrypted_input_channels: BTreeSet<usize>,
}

/// A violation of the SE coupling invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecurityViolation {
    /// An encrypted kernel row multiplies a plaintext input channel: the
    /// adversary sees `Y = Σ … + X_i · ω_i` with `X_i` known — the
    /// encrypted `ω_i` can be solved for (given enough spatial positions).
    ExposedWeightRow {
        /// Layer name.
        layer: String,
        /// Offending row/channel index.
        row: usize,
    },
    /// A plaintext kernel row multiplies an encrypted input channel: the
    /// known `ω_i` lets the adversary solve for the encrypted activations
    /// `X_i`, defeating the channel's encryption.
    ExposedChannel {
        /// Layer name.
        layer: String,
        /// Offending row/channel index.
        row: usize,
    },
}

impl std::fmt::Display for SecurityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SecurityViolation::ExposedWeightRow { layer, row } => write!(
                f,
                "layer {layer}: encrypted weight row {row} pairs with a plaintext input channel"
            ),
            SecurityViolation::ExposedChannel { layer, row } => write!(
                f,
                "layer {layer}: encrypted input channel {row} pairs with a plaintext weight row"
            ),
        }
    }
}

/// Derives the wire-level assignment implied by a plan (SE's rule: input
/// channel `i` is encrypted iff kernel row `i` is).
pub fn derive_assignment(plan: &EncryptionPlan) -> Vec<ChannelAssignment> {
    plan.layers().iter().map(assignment_for).collect()
}

fn assignment_for(l: &LayerPlan) -> ChannelAssignment {
    let rows: BTreeSet<usize> = if l.fully_encrypted {
        (0..l.rows).collect()
    } else {
        l.encrypted_rows.iter().copied().collect()
    };
    ChannelAssignment {
        layer: l.name.clone(),
        rows: l.rows,
        encrypted_rows: rows.clone(),
        encrypted_input_channels: rows,
    }
}

/// Checks the SE coupling invariant over a wire-level assignment.
///
/// # Errors
///
/// Returns every violation found (empty `Ok(())` when the assignment is
/// sound).
pub fn verify_assignment(assignments: &[ChannelAssignment]) -> Result<(), Vec<SecurityViolation>> {
    let mut violations = Vec::new();
    for a in assignments {
        for row in 0..a.rows {
            let w_enc = a.encrypted_rows.contains(&row);
            let x_enc = a.encrypted_input_channels.contains(&row);
            match (w_enc, x_enc) {
                (true, false) => violations.push(SecurityViolation::ExposedWeightRow {
                    layer: a.layer.clone(),
                    row,
                }),
                (false, true) => violations.push(SecurityViolation::ExposedChannel {
                    layer: a.layer.clone(),
                    row,
                }),
                _ => {}
            }
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// A finding of the static plan/heap analyzer ([`analyze_plan`],
/// [`verify_heap_layout`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanFinding {
    /// The wire-level coupling invariant is broken.
    Coupling(SecurityViolation),
    /// The plan's policy carries a ratio outside `[0, 1]`.
    RatioOutOfBounds {
        /// The offending ratio.
        ratio: f64,
    },
    /// An SE layer encrypts a different number of rows than the policy
    /// ratio dictates.
    RatioDrift {
        /// Layer name.
        layer: String,
        /// Rows the policy ratio dictates (`round(rows × ratio)`).
        expected: usize,
        /// Rows the plan actually encrypts.
        actual: usize,
    },
    /// A boundary layer (first two CONV, last CONV, or any FC) is not
    /// fully encrypted although the policy demands it.
    BoundaryNotEncrypted {
        /// Layer name.
        layer: String,
    },
    /// A layer is marked fully encrypted although the boundary rule does
    /// not apply to it (or is disabled) — legal on the wire but it breaks
    /// the plan's performance contract.
    UnexpectedFullEncryption {
        /// Layer name.
        layer: String,
    },
    /// `encrypted_rows` is not strictly ascending (unsorted or duplicated
    /// indices).
    UnsortedRows {
        /// Layer name.
        layer: String,
    },
    /// An encrypted row index is out of range for the layer.
    RowOutOfRange {
        /// Layer name.
        layer: String,
        /// The offending row index.
        row: usize,
        /// The layer's row count.
        rows: usize,
    },
    /// Two heap regions share address-space bytes.
    OverlappingRegions {
        /// Index and base address of the earlier region.
        first: (usize, u64),
        /// Index and base address of the later region.
        second: (usize, u64),
    },
}

impl std::fmt::Display for PlanFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanFinding::Coupling(v) => write!(f, "coupling: {v}"),
            PlanFinding::RatioOutOfBounds { ratio } => {
                write!(f, "policy ratio {ratio} outside [0, 1]")
            }
            PlanFinding::RatioDrift {
                layer,
                expected,
                actual,
            } => write!(
                f,
                "layer {layer}: encrypts {actual} rows but the policy ratio dictates {expected}"
            ),
            PlanFinding::BoundaryNotEncrypted { layer } => write!(
                f,
                "layer {layer}: boundary layer not fully encrypted despite the boundary rule"
            ),
            PlanFinding::UnexpectedFullEncryption { layer } => write!(
                f,
                "layer {layer}: fully encrypted although the boundary rule does not cover it"
            ),
            PlanFinding::UnsortedRows { layer } => {
                write!(f, "layer {layer}: encrypted_rows is not strictly ascending")
            }
            PlanFinding::RowOutOfRange { layer, row, rows } => {
                write!(
                    f,
                    "layer {layer}: encrypted row {row} out of range ({rows} rows)"
                )
            }
            PlanFinding::OverlappingRegions { first, second } => write!(
                f,
                "heap regions {} (base {:#x}) and {} (base {:#x}) overlap",
                first.0, first.1, second.0, second.1
            ),
        }
    }
}

/// Statically analyzes an encryption plan without running the simulator:
/// the wire-level coupling invariant (Eqs. 1–3), per-layer structural
/// sanity (sorted, in-range row indices), the policy ratio, and the
/// boundary rule.
///
/// # Errors
///
/// Returns every finding (empty `Ok(())` when the plan is sound).
pub fn analyze_plan(plan: &EncryptionPlan) -> Result<(), Vec<PlanFinding>> {
    let mut findings = Vec::new();
    let policy = plan.policy();
    if !(0.0..=1.0).contains(&policy.ratio) {
        findings.push(PlanFinding::RatioOutOfBounds {
            ratio: policy.ratio,
        });
    }
    let conv_positions: Vec<usize> = plan
        .layers()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.is_conv)
        .map(|(i, _)| i)
        .collect();
    for (i, l) in plan.layers().iter().enumerate() {
        // Structural checks first: row lists must be strictly ascending
        // and in range regardless of policy.
        if l.encrypted_rows.windows(2).any(|w| w[0] >= w[1]) {
            findings.push(PlanFinding::UnsortedRows {
                layer: l.name.clone(),
            });
        }
        for &row in &l.encrypted_rows {
            if row >= l.rows {
                findings.push(PlanFinding::RowOutOfRange {
                    layer: l.name.clone(),
                    row,
                    rows: l.rows,
                });
            }
        }
        // Boundary rule: first two CONV, last CONV, every FC.
        let boundary_conv = l.is_conv
            && (conv_positions.first() == Some(&i)
                || conv_positions.get(1) == Some(&i)
                || conv_positions.last() == Some(&i));
        let is_boundary = boundary_conv || !l.is_conv;
        if policy.boundary_full_encryption && is_boundary && !l.fully_encrypted {
            findings.push(PlanFinding::BoundaryNotEncrypted {
                layer: l.name.clone(),
            });
        }
        if l.fully_encrypted && !(policy.boundary_full_encryption && is_boundary) {
            findings.push(PlanFinding::UnexpectedFullEncryption {
                layer: l.name.clone(),
            });
        }
        // SE layers must encrypt exactly the ratio-dictated row count.
        if !l.fully_encrypted && (0.0..=1.0).contains(&policy.ratio) {
            let expected = (l.rows as f64 * policy.ratio).round() as usize;
            if l.encrypted_rows.len() != expected {
                findings.push(PlanFinding::RatioDrift {
                    layer: l.name.clone(),
                    expected,
                    actual: l.encrypted_rows.len(),
                });
            }
        }
    }
    if let Err(violations) = verify_assignment(&derive_assignment(plan)) {
        findings.extend(violations.into_iter().map(PlanFinding::Coupling));
    }
    if findings.is_empty() {
        Ok(())
    } else {
        Err(findings)
    }
}

/// Statically checks a heap's address-space layout: no two regions —
/// whatever their encryption tags — may share bytes. An `emalloc` region
/// aliased by a plain region would leak its plaintext on the bus through
/// the alias.
///
/// # Errors
///
/// Returns one finding per overlapping pair.
pub fn verify_heap_layout(heap: &SecureHeap) -> Result<(), Vec<PlanFinding>> {
    verify_region_layout(&heap.layout())
}

/// [`verify_heap_layout`] over a raw `(base, size, encrypted)` layout —
/// useful when the layout comes from a trace rather than a live heap.
///
/// # Errors
///
/// Returns one finding per overlapping pair.
pub fn verify_region_layout(layout: &[(u64, u64, bool)]) -> Result<(), Vec<PlanFinding>> {
    // Sort region indices by base so overlaps are adjacent.
    let mut order: Vec<usize> = (0..layout.len()).collect();
    order.sort_by_key(|&i| layout[i].0);
    let mut findings = Vec::new();
    for pair in order.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let (a_base, a_len, _) = layout[a];
        let (b_base, _, _) = layout[b];
        if a_base + a_len > b_base {
            findings.push(PlanFinding::OverlappingRegions {
                first: (a, a_base),
                second: (b, b_base),
            });
        }
    }
    if findings.is_empty() {
        Ok(())
    } else {
        Err(findings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SePolicy;
    use seal_nn::models::vgg16_topology;

    #[test]
    fn plans_are_sound_by_construction() {
        let topo = vgg16_topology();
        for ratio in [0.0, 0.3, 0.5, 0.9, 1.0] {
            let plan =
                crate::EncryptionPlan::from_topology(&topo, SePolicy::default().with_ratio(ratio))
                    .unwrap();
            let a = derive_assignment(&plan);
            assert!(verify_assignment(&a).is_ok(), "ratio {ratio}");
        }
    }

    #[test]
    fn corrupted_assignment_is_caught() {
        let topo = vgg16_topology();
        let plan = crate::EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        let mut a = derive_assignment(&plan);
        // Find an SE layer and break the coupling: encrypt a row whose
        // channel stays plaintext.
        let se = a
            .iter_mut()
            .find(|x| x.encrypted_rows.len() < x.rows)
            .unwrap();
        let plain_row = (0..se.rows)
            .find(|r| !se.encrypted_rows.contains(r))
            .unwrap();
        se.encrypted_rows.insert(plain_row);
        let err = verify_assignment(&a).unwrap_err();
        assert!(matches!(err[0], SecurityViolation::ExposedWeightRow { .. }));
        assert!(err[0].to_string().contains("plaintext input channel"));
    }

    #[test]
    fn exposed_channel_direction_also_caught() {
        let a = vec![ChannelAssignment {
            layer: "toy".into(),
            rows: 2,
            encrypted_rows: BTreeSet::from([0]),
            encrypted_input_channels: BTreeSet::from([0, 1]),
        }];
        let err = verify_assignment(&a).unwrap_err();
        assert_eq!(
            err,
            vec![SecurityViolation::ExposedChannel {
                layer: "toy".into(),
                row: 1
            }]
        );
    }

    /// The paper's two-layer worked example (Eqs. 1–3): with a 50% ratio,
    /// row ω_r0 of layer 1 and row ω'_r1 of layer 2 encrypted, channels X0
    /// and Y1 are encrypted — every bus-visible product pairs two unknowns.
    #[test]
    fn paper_worked_example_is_sound() {
        let a = vec![
            ChannelAssignment {
                layer: "layer1".into(),
                rows: 2,
                encrypted_rows: BTreeSet::from([0]),
                encrypted_input_channels: BTreeSet::from([0]),
            },
            ChannelAssignment {
                layer: "layer2".into(),
                rows: 2,
                encrypted_rows: BTreeSet::from([1]),
                encrypted_input_channels: BTreeSet::from([1]),
            },
        ];
        assert!(verify_assignment(&a).is_ok());
    }

    #[test]
    fn analyze_accepts_planner_output() {
        use seal_nn::models::{resnet18_topology, resnet34_topology, vgg16, VggConfig};
        use seal_tensor::rng::{rngs::StdRng, SeedableRng};
        for topo in [vgg16_topology(), resnet18_topology(), resnet34_topology()] {
            for ratio in [0.0, 0.3, 0.5, 1.0] {
                let policy = SePolicy::default().with_ratio(ratio);
                let plan = crate::EncryptionPlan::from_topology(&topo, policy).unwrap();
                let verdict = analyze_plan(&plan);
                assert!(
                    verdict.is_ok(),
                    "{} @ ratio {ratio}: {verdict:?}",
                    topo.name()
                );
            }
        }
        let mut no_boundary = SePolicy::paper_default();
        no_boundary.boundary_full_encryption = false;
        let plan = crate::EncryptionPlan::from_topology(&vgg16_topology(), no_boundary).unwrap();
        assert!(analyze_plan(&plan).is_ok());
        // A plan built from real weights must be as sound as one from
        // synthesized topology norms.
        let model = vgg16(&mut StdRng::seed_from_u64(0x5EA1), &VggConfig::reduced()).unwrap();
        let plan = crate::EncryptionPlan::from_model(&model, SePolicy::paper_default()).unwrap();
        assert!(
            analyze_plan(&plan).is_ok(),
            "vgg16 from model: {:?}",
            analyze_plan(&plan)
        );
    }

    #[test]
    fn analyze_flags_handwritten_plan_defects() {
        use crate::{EncryptionPlan, LayerPlan};
        // One SE conv layer with every structural defect at once: unsorted
        // rows, a row out of range, and three encrypted rows where the 50%
        // ratio dictates four.
        let bad = LayerPlan {
            name: "conv_mid".into(),
            is_conv: true,
            rows: 8,
            encrypted_rows: vec![5, 3, 11],
            fully_encrypted: false,
        };
        let fc = LayerPlan {
            name: "fc".into(),
            is_conv: false,
            rows: 4,
            encrypted_rows: (0..4).collect(),
            fully_encrypted: true,
        };
        let plan = EncryptionPlan::from_parts(SePolicy::paper_default(), vec![bad, fc]);
        let findings = analyze_plan(&plan).unwrap_err();
        assert!(findings
            .iter()
            .any(|f| matches!(f, PlanFinding::UnsortedRows { layer } if layer == "conv_mid")));
        assert!(findings.iter().any(|f| matches!(
            f,
            PlanFinding::RowOutOfRange {
                row: 11,
                rows: 8,
                ..
            }
        )));
        assert!(findings
            .iter()
            .any(|f| matches!(f, PlanFinding::RatioDrift { .. })));
        // The only two CONV boundary positions collapse onto conv_mid,
        // which is not fully encrypted.
        assert!(findings
            .iter()
            .any(|f| matches!(f, PlanFinding::BoundaryNotEncrypted { .. })));
    }

    #[test]
    fn analyze_flags_ratio_and_unexpected_full_encryption() {
        use crate::{EncryptionPlan, LayerPlan};
        let mut policy = SePolicy::paper_default();
        policy.boundary_full_encryption = false;
        policy.ratio = 1.5;
        let layer = LayerPlan {
            name: "fc".into(),
            is_conv: false,
            rows: 4,
            encrypted_rows: (0..4).collect(),
            fully_encrypted: true,
        };
        let plan = EncryptionPlan::from_parts(policy, vec![layer]);
        let findings = analyze_plan(&plan).unwrap_err();
        assert!(findings
            .iter()
            .any(|f| matches!(f, PlanFinding::RatioOutOfBounds { .. })));
        assert!(findings.iter().any(
            |f| matches!(f, PlanFinding::UnexpectedFullEncryption { layer } if layer == "fc")
        ));
    }

    #[test]
    fn heap_layouts_from_the_allocator_never_overlap() {
        use seal_crypto::Key128;
        let mut heap = crate::SecureHeap::new(Key128::from_seed(1));
        for i in 1..16 {
            if i % 2 == 0 {
                heap.emalloc(i * 24).unwrap();
            } else {
                heap.malloc(i * 24).unwrap();
            }
        }
        assert!(verify_heap_layout(&heap).is_ok());
        // A heap provisioned the way a deployment would: one region per
        // layer of the paper-default VGG-16 plan (64 bytes per kernel
        // row), `emalloc` for layers that encrypt anything.
        let plan =
            crate::EncryptionPlan::from_topology(&vgg16_topology(), SePolicy::paper_default())
                .unwrap();
        let mut heap = crate::SecureHeap::new(Key128::from_seed(0xD0C));
        for layer in plan.layers() {
            let bytes = (layer.rows * 64).max(1);
            if layer.fully_encrypted || !layer.encrypted_rows.is_empty() {
                heap.emalloc(bytes).unwrap();
            } else {
                heap.malloc(bytes).unwrap();
            }
        }
        assert!(verify_heap_layout(&heap).is_ok());
    }

    #[test]
    fn overlapping_regions_are_caught() {
        let layout = [
            (0x1000u64, 0x100u64, true),
            (0x1080, 0x100, false), // overlaps the first region
            (0x2000, 0x100, true),
        ];
        let findings = verify_region_layout(&layout).unwrap_err();
        assert_eq!(findings.len(), 1);
        assert!(matches!(
            findings[0],
            PlanFinding::OverlappingRegions {
                first: (0, 0x1000),
                second: (1, 0x1080)
            }
        ));
        assert!(findings[0].to_string().contains("0x1080"));
    }
}
