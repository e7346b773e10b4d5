//! Kernel-row importance ranking (Sec. III-A, "Relative Importance
//! Measurement").
//!
//! The SE scheme measures a kernel row's importance as the sum of absolute
//! weights (ℓ1-norm) of all kernels reading that input channel — rows with
//! small sums "tend to produce feature maps with weak activations" (after
//! Li et al.'s pruning observation) and are left unencrypted.

use crate::CoreError;

/// How row importance is scored. ℓ1 is the paper's choice; the others exist
/// for the ablation bench (`ablation_importance`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ImportanceMetric {
    /// Sum of absolute weights — the paper's measure.
    #[default]
    L1,
    /// Deterministic pseudo-random scores from the given seed (ablation:
    /// criticality-blind selection).
    Random(u64),
    /// Negated ℓ1 (ablation: deliberately encrypt the *least* important
    /// rows — the worst case for security).
    InverseL1,
}

/// Returns row indices ordered from **most** to least important under the
/// metric.
///
/// Ties break toward the lower row index so ranking is deterministic.
pub fn rank_rows(row_l1: &[f32], metric: ImportanceMetric) -> Vec<usize> {
    let score = |i: usize| -> f64 {
        match metric {
            ImportanceMetric::L1 => row_l1[i] as f64,
            ImportanceMetric::InverseL1 => -(row_l1[i] as f64),
            ImportanceMetric::Random(seed) => {
                // splitmix64 of (seed, i) → uniform in [0, 1).
                let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as f64 / u64::MAX as f64
            }
        }
    };
    let mut order: Vec<usize> = (0..row_l1.len()).collect();
    order.sort_by(|&a, &b| {
        score(b)
            .partial_cmp(&score(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(&b))
    });
    order
}

/// Selects the rows to encrypt: the `ratio` fraction with the **largest**
/// importance (the paper encrypts "partial kernel rows with the largest
/// sums"). Returns sorted row indices.
///
/// # Errors
///
/// Returns [`CoreError::InvalidPolicy`] if `ratio` is outside `[0, 1]`.
pub fn select_encrypted_rows(
    row_l1: &[f32],
    ratio: f64,
    metric: ImportanceMetric,
) -> Result<Vec<usize>, CoreError> {
    if !(0.0..=1.0).contains(&ratio) {
        return Err(CoreError::InvalidPolicy {
            reason: format!("encryption ratio {ratio} outside [0, 1]"),
        });
    }
    let count = (row_l1.len() as f64 * ratio).round() as usize;
    let mut selected: Vec<usize> = rank_rows(row_l1, metric).into_iter().take(count).collect();
    selected.sort_unstable();
    Ok(selected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_ranks_largest_first() {
        let norms = [3.0, 9.0, 1.0, 5.0];
        assert_eq!(rank_rows(&norms, ImportanceMetric::L1), vec![1, 3, 0, 2]);
    }

    #[test]
    fn inverse_l1_ranks_smallest_first() {
        let norms = [3.0, 9.0, 1.0, 5.0];
        assert_eq!(
            rank_rows(&norms, ImportanceMetric::InverseL1),
            vec![2, 0, 3, 1]
        );
    }

    #[test]
    fn random_is_deterministic_and_seed_dependent() {
        let norms = [1.0f32; 32];
        let a = rank_rows(&norms, ImportanceMetric::Random(1));
        let b = rank_rows(&norms, ImportanceMetric::Random(1));
        let c = rank_rows(&norms, ImportanceMetric::Random(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn selection_takes_top_fraction() {
        let norms = [3.0, 9.0, 1.0, 5.0];
        let sel = select_encrypted_rows(&norms, 0.5, ImportanceMetric::L1).unwrap();
        assert_eq!(sel, vec![1, 3]);
    }

    #[test]
    fn ratio_bounds_enforced() {
        assert!(select_encrypted_rows(&[1.0], 1.1, ImportanceMetric::L1).is_err());
        assert!(select_encrypted_rows(&[1.0], -0.1, ImportanceMetric::L1).is_err());
        assert_eq!(
            select_encrypted_rows(&[1.0, 2.0], 0.0, ImportanceMetric::L1).unwrap(),
            Vec::<usize>::new()
        );
        assert_eq!(
            select_encrypted_rows(&[1.0, 2.0], 1.0, ImportanceMetric::L1).unwrap(),
            vec![0, 1]
        );
    }

    #[test]
    fn ties_break_deterministically() {
        let norms = [2.0f32, 2.0, 2.0];
        assert_eq!(rank_rows(&norms, ImportanceMetric::L1), vec![0, 1, 2]);
    }

    #[test]
    fn rounding_of_fractional_counts() {
        // 3 rows at 50% → 2 rows (round(1.5) = 2).
        let sel = select_encrypted_rows(&[1.0, 2.0, 3.0], 0.5, ImportanceMetric::L1).unwrap();
        assert_eq!(sel.len(), 2);
    }
}
