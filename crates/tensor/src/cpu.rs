//! Centralised, cached CPU feature detection for kernel dispatch.
//!
//! Every micro-kernel family (`f32` GEMM/conv in [`crate::ops`], the int8
//! quantized path in `ops::quant`) asks *this* module — never
//! `is_x86_feature_detected!` directly — which ISA extensions the host
//! offers, so the AVX-512 path and the existing AVX2/FMA kernels can never
//! disagree about the machine they are running on. Detection runs once per
//! process and is cached in a [`std::sync::OnceLock`]; the answers are
//! immutable afterwards.
//!
//! Mode selection happens one layer above, in [`crate::ops::KernelMode`],
//! always against these cached features. With `SEAL_KERNEL` unset (or
//! unknown) the mode is the widest *bit-identical* one the host offers:
//! `avx512` → `avx2` → `scalar`, which all evaluate the same
//! multiply-then-add tree — and on the int8 side select `vpdpbusd`
//! wherever VNNI exists. `fma` rounds differently and is therefore never
//! picked implicitly, only by `SEAL_KERNEL=fma`. An explicit request the
//! CPU cannot run *degrades* (`avx512 → avx2 → scalar` within the
//! multiply-then-add rounding class, `fma → avx2 → scalar` for the
//! contracted class), so it can never select an illegal instruction.

use std::sync::OnceLock;

/// The ISA extensions the kernels care about, probed once per process.
///
/// On non-`x86_64` targets every field is `false` and all kernels run
/// their portable scalar bodies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuFeatures {
    /// 256-bit integer/float vectors (`vpmaddwd`, 8-lane `f32`).
    pub avx2: bool,
    /// Fused multiply-add (`vfmadd*`); only meaningful with `avx2`.
    pub fma: bool,
    /// AVX-512 foundation: 512-bit registers and masking.
    pub avx512f: bool,
    /// AVX-512 byte/word instructions (needed by the int8 kernels).
    pub avx512bw: bool,
    /// AVX-512 instructions on 128/256-bit vectors.
    pub avx512vl: bool,
    /// AVX-512 VNNI: `vpdpbusd` u8×i8→i32 dot-product accumulate.
    pub avx512vnni: bool,
}

impl CpuFeatures {
    /// True when the full AVX-512 baseline the kernels assume (foundation
    /// + byte/word + vector-length) is present.
    pub fn avx512(self) -> bool {
        self.avx512f && self.avx512bw && self.avx512vl
    }

    /// Short human-readable summary, e.g. `"avx2+fma+avx512+vnni"`.
    pub fn summary(self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        if self.avx2 {
            parts.push("avx2");
        }
        if self.fma {
            parts.push("fma");
        }
        if self.avx512() {
            parts.push("avx512");
        }
        if self.avx512vnni {
            parts.push("vnni");
        }
        if parts.is_empty() {
            parts.push("scalar");
        }
        parts.join("+")
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> CpuFeatures {
    CpuFeatures {
        avx2: std::arch::is_x86_feature_detected!("avx2"),
        fma: std::arch::is_x86_feature_detected!("fma"),
        avx512f: std::arch::is_x86_feature_detected!("avx512f"),
        avx512bw: std::arch::is_x86_feature_detected!("avx512bw"),
        avx512vl: std::arch::is_x86_feature_detected!("avx512vl"),
        avx512vnni: std::arch::is_x86_feature_detected!("avx512vnni"),
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> CpuFeatures {
    CpuFeatures::default()
}

/// The host's kernel-relevant CPU features, detected on first call and
/// cached for the lifetime of the process.
pub fn cpu_features() -> CpuFeatures {
    static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
    *FEATURES.get_or_init(detect)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable_across_calls() {
        assert_eq!(cpu_features(), cpu_features());
    }

    #[test]
    fn implied_features_are_consistent() {
        let f = cpu_features();
        // `avx512()` is the conjunction the kernels rely on; it must never
        // report true when a component is missing.
        assert_eq!(f.avx512(), f.avx512f && f.avx512bw && f.avx512vl);
        // VNNI without the AVX-512 baseline would be undispatchable; the
        // int8 kernels gate on both, which the summary reflects.
        if f.avx512vnni && f.avx512() {
            assert!(f.summary().contains("vnni"));
        }
    }

    #[test]
    fn summary_never_empty() {
        assert!(!cpu_features().summary().is_empty());
        assert_eq!(CpuFeatures::default().summary(), "scalar");
    }
}
