//! Security-level classification of encryption ratios (Sec. III-B).
//!
//! The paper's empirical findings, reproduced by `seal-attack` (Figs. 3–4):
//!
//! * **IP stealing** — substitute-model accuracy matches the black-box
//!   floor once the encryption ratio reaches **40%**;
//! * **Adversarial attacks** — I-FGSM transferability matches the
//!   black-box floor once the ratio reaches **50%**.
//!
//! SEAL therefore ships with a 50% default ratio: "the maximum performance
//! benefit when achieving the same security level as the black-box models".

/// Ratio above which IP-stealing resistance matches the black-box model
/// (Fig. 3).
pub const IP_SAFE_RATIO: f64 = 0.4;
/// Ratio above which adversarial-attack transferability matches the
/// black-box model (Fig. 4).
pub const ADVERSARIAL_SAFE_RATIO: f64 = 0.5;

/// The security classification of a selective-encryption ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityLevel {
    /// Equivalent to encrypting everything (black-box adversary) for both
    /// IP stealing and adversarial attacks.
    BlackBoxEquivalent,
    /// Safe against IP stealing but leaks enough structure to improve
    /// adversarial-example transferability.
    IpSafeOnly,
    /// Important weights are exposed; substitute models recover victim
    /// accuracy and transferability rises sharply.
    Degraded,
}

/// The ratio the paper recommends (and SEAL defaults to): the smallest
/// ratio achieving [`SecurityLevel::BlackBoxEquivalent`].
pub fn recommended_ratio() -> f64 {
    ADVERSARIAL_SAFE_RATIO
}

/// Classifies an encryption ratio against the paper's empirical
/// thresholds.
pub fn security_level(ratio: f64) -> SecurityLevel {
    if ratio >= ADVERSARIAL_SAFE_RATIO {
        SecurityLevel::BlackBoxEquivalent
    } else if ratio >= IP_SAFE_RATIO {
        SecurityLevel::IpSafeOnly
    } else {
        SecurityLevel::Degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_ratio_is_the_papers_50_percent() {
        assert_eq!(recommended_ratio(), 0.5);
        assert_eq!(
            security_level(recommended_ratio()),
            SecurityLevel::BlackBoxEquivalent
        );
    }

    #[test]
    fn thresholds_partition_the_ratio_axis() {
        assert_eq!(security_level(0.1), SecurityLevel::Degraded);
        assert_eq!(security_level(0.39), SecurityLevel::Degraded);
        assert_eq!(security_level(0.4), SecurityLevel::IpSafeOnly);
        assert_eq!(security_level(0.49), SecurityLevel::IpSafeOnly);
        assert_eq!(security_level(0.5), SecurityLevel::BlackBoxEquivalent);
        assert_eq!(security_level(1.0), SecurityLevel::BlackBoxEquivalent);
    }
}
