use seal_gpusim::EncryptionMode;

/// The five system configurations compared throughout the paper's
/// evaluation (Figures 5–8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Insecure GPU without memory encryption.
    Baseline,
    /// Traditional direct encryption of all traffic.
    Direct,
    /// Traditional counter-mode encryption of all traffic.
    Counter,
    /// SEAL smart encryption over a direct-encryption engine.
    SealDirect,
    /// SEAL smart encryption over a counter-mode engine.
    SealCounter,
}

impl Scheme {
    /// All five schemes in the paper's presentation order.
    pub const ALL: [Scheme; 5] = [
        Scheme::Baseline,
        Scheme::Direct,
        Scheme::Counter,
        Scheme::SealDirect,
        Scheme::SealCounter,
    ];

    /// The hardware encryption mode this scheme runs on.
    pub fn mode(&self) -> EncryptionMode {
        match self {
            Scheme::Baseline => EncryptionMode::None,
            Scheme::Direct | Scheme::SealDirect => EncryptionMode::Direct,
            Scheme::Counter | Scheme::SealCounter => EncryptionMode::Counter,
        }
    }

    /// Whether the SE scheme selects the encrypted subset (vs. all or
    /// nothing).
    pub fn is_selective(&self) -> bool {
        matches!(self, Scheme::SealDirect | Scheme::SealCounter)
    }

    /// Whether any traffic is encrypted at all.
    pub fn encrypts(&self) -> bool {
        !matches!(self, Scheme::Baseline)
    }

    /// The paper's label for this scheme.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::Direct => "Direct",
            Scheme::Counter => "Counter",
            Scheme::SealDirect => "SEAL-D",
            Scheme::SealCounter => "SEAL-C",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_match_hardware() {
        assert_eq!(Scheme::Baseline.mode(), EncryptionMode::None);
        assert_eq!(Scheme::Direct.mode(), EncryptionMode::Direct);
        assert_eq!(Scheme::SealDirect.mode(), EncryptionMode::Direct);
        assert_eq!(Scheme::Counter.mode(), EncryptionMode::Counter);
        assert_eq!(Scheme::SealCounter.mode(), EncryptionMode::Counter);
    }

    #[test]
    fn selectivity() {
        assert!(Scheme::SealDirect.is_selective());
        assert!(Scheme::SealCounter.is_selective());
        assert!(!Scheme::Direct.is_selective());
        assert!(!Scheme::Baseline.encrypts());
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = Scheme::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            ["Baseline", "Direct", "Counter", "SEAL-D", "SEAL-C"]
        );
    }
}
