use seal_crypto::{CounterCacheConfig, EngineSpec};

use crate::{DramTiming, SimError};

/// Which memory-encryption scheme the memory controllers apply.
///
/// The paper compares five configurations; this enum provides the three
/// hardware behaviours. SEAL-D/SEAL-C are `Direct`/`Counter` runs whose
/// workloads mark only the SE-selected fraction of traffic as encrypted
/// (see `seal-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncryptionMode {
    /// Insecure baseline: the engine is bypassed for everything.
    None,
    /// Direct encryption: data blocks pass through the AES pipeline on the
    /// way to/from DRAM (decryption latency on the read critical path).
    Direct,
    /// Counter-mode encryption: pads are generated from per-line counters
    /// (latency overlapped with DRAM) at the cost of counter traffic on
    /// counter-cache misses.
    Counter,
}

impl EncryptionMode {
    /// Returns `true` if this mode ever exercises the AES engine.
    pub fn encrypts(&self) -> bool {
        !matches!(self, EncryptionMode::None)
    }
}

impl std::fmt::Display for EncryptionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EncryptionMode::None => "baseline",
            EncryptionMode::Direct => "direct",
            EncryptionMode::Counter => "counter",
        };
        f.write_str(s)
    }
}

/// Microarchitectural parameters of the simulated GPU.
///
/// [`GpuConfig::gtx480`] reproduces the paper's setup (Sec. IV-A):
/// NVIDIA GeForce GTX480, 15 SMs, GDDR5 at 1848 MHz on a 384-bit bus split
/// over 6 channels, one AES engine per memory controller.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable configuration name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Shader core clock in GHz (the cycle domain of every timestamp).
    pub core_clock_ghz: f64,
    /// Number of memory channels / controllers (each owns one AES engine).
    pub num_channels: usize,
    /// Aggregate DRAM bandwidth in GB/s across all channels.
    pub total_dram_gbps: f64,
    /// Memory access granularity in bytes (GPU cache-line / burst size).
    pub line_bytes: u64,
    /// Uncontended DRAM access latency in core cycles.
    pub dram_latency_cycles: u64,
    /// Peak instruction issue per cycle across the chip (thread
    /// instructions; SMs × lanes × dual issue for Fermi).
    pub peak_issue_per_cycle: f64,
    /// Maximum memory requests in flight chip-wide (MSHR/latency-tolerance
    /// window).
    pub max_outstanding: usize,
    /// AES engine instantiated in every memory controller.
    pub engine: EngineSpec,
    /// Total on-chip counter cache (split evenly across controllers).
    pub counter_cache: CounterCacheConfig,
    /// Engines per memory controller (1 in the paper; the ablation bench
    /// sweeps this).
    pub engines_per_mc: usize,
    /// DRAM channel timing model. [`DramTiming::Flat`] (default) uses the
    /// per-workload efficiency knob the reproduction is calibrated
    /// against; [`DramTiming::Banked`] makes row locality emergent.
    pub dram_timing: DramTiming,
}

impl GpuConfig {
    /// The paper's GTX480 configuration.
    ///
    /// GDDR5 at 1848 MHz, DDR, 384-bit bus: `1848e6 × 2 × 48 B ≈ 177.4 GB/s`
    /// over 6 channels (29.6 GB/s each). Core clock 1.401 GHz, 15 SMs ×
    /// 32 lanes × dual issue = 960 peak issue/cycle.
    pub fn gtx480() -> Self {
        GpuConfig {
            name: "GTX480".into(),
            num_sms: 15,
            core_clock_ghz: 1.401,
            num_channels: 6,
            total_dram_gbps: 177.4,
            line_bytes: 128,
            dram_latency_cycles: 220,
            peak_issue_per_cycle: 960.0,
            max_outstanding: 768,
            engine: EngineSpec::seal_default(),
            counter_cache: CounterCacheConfig::with_kilobytes(96),
            engines_per_mc: 1,
            dram_timing: DramTiming::Flat,
        }
    }

    /// A modern HBM-class accelerator: the same architecture with a
    /// 1 TB/s bus over 16 channels — the paper's motivation extrapolated
    /// ("the bandwidth gap remains"): even with one engine per channel,
    /// 16 × 8 GB/s = 128 GB/s of AES against 1 TB/s of DRAM is an 8× gap,
    /// worse than the GTX480's 3.7×.
    pub fn hbm_accelerator() -> Self {
        GpuConfig {
            name: "HBM-accelerator".into(),
            num_sms: 60,
            core_clock_ghz: 1.4,
            num_channels: 16,
            total_dram_gbps: 1000.0,
            line_bytes: 128,
            dram_latency_cycles: 300,
            peak_issue_per_cycle: 3840.0,
            max_outstanding: 4096,
            engine: EngineSpec::seal_default(),
            counter_cache: CounterCacheConfig::with_kilobytes(256),
            engines_per_mc: 1,
            dram_timing: DramTiming::Flat,
        }
    }

    /// An edge-NPU-class device: a narrow LPDDR bus where the engine gap
    /// almost closes (2 channels × 8 GB/s vs 34 GB/s LPDDR5) — the regime
    /// where plain encryption is nearly free and SEAL buys little.
    pub fn edge_npu() -> Self {
        GpuConfig {
            name: "edge-NPU".into(),
            num_sms: 4,
            core_clock_ghz: 1.0,
            num_channels: 2,
            total_dram_gbps: 34.0,
            line_bytes: 128,
            dram_latency_cycles: 180,
            peak_issue_per_cycle: 256.0,
            max_outstanding: 256,
            engine: EngineSpec::seal_default(),
            counter_cache: CounterCacheConfig::with_kilobytes(48),
            engines_per_mc: 1,
            dram_timing: DramTiming::Flat,
        }
    }

    /// Replaces the counter-cache capacity (the Fig. 1 sweep).
    #[must_use]
    pub fn with_counter_cache_kb(mut self, kb: usize) -> Self {
        self.counter_cache = CounterCacheConfig::with_kilobytes(kb);
        self
    }

    /// Replaces the engines-per-controller count (ablation).
    #[must_use]
    pub fn with_engines_per_mc(mut self, n: usize) -> Self {
        self.engines_per_mc = n;
        self
    }

    /// Switches the DRAM timing model.
    #[must_use]
    pub fn with_dram_timing(mut self, timing: DramTiming) -> Self {
        self.dram_timing = timing;
        self
    }

    /// Per-channel DRAM bandwidth in GB/s.
    pub fn channel_gbps(&self) -> f64 {
        self.total_dram_gbps / self.num_channels as f64
    }

    /// Core cycles to transfer one line on one channel at 100% efficiency.
    pub fn line_service_cycles(&self) -> f64 {
        self.line_bytes as f64 / (self.channel_gbps() * 1e9) * self.core_clock_ghz * 1e9
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a parameter that is zero,
    /// negative or not finite (NaN included), the engine's throughput
    /// among them.
    pub fn validate(&self) -> Result<(), SimError> {
        let positive = [
            (self.num_sms as f64, "num_sms"),
            (self.core_clock_ghz, "core_clock_ghz"),
            (self.num_channels as f64, "num_channels"),
            (self.total_dram_gbps, "total_dram_gbps"),
            (self.line_bytes as f64, "line_bytes"),
            (self.peak_issue_per_cycle, "peak_issue_per_cycle"),
            (self.max_outstanding as f64, "max_outstanding"),
            (self.engines_per_mc as f64, "engines_per_mc"),
            (self.engine.throughput_gbps, "engine.throughput_gbps"),
        ];
        for (v, name) in positive {
            if !(v > 0.0 && v.is_finite()) {
                return Err(SimError::InvalidConfig {
                    reason: format!("{name} must be positive"),
                });
            }
        }
        if let DramTiming::Banked {
            banks,
            row_bytes,
            row_miss_penalty,
        } = self.dram_timing
        {
            let penalty_ok = row_miss_penalty >= 0.0 && row_miss_penalty.is_finite();
            if banks == 0 || row_bytes == 0 || !penalty_ok {
                return Err(SimError::InvalidConfig {
                    reason: "banked DRAM timing needs positive banks/row and non-negative penalty"
                        .into(),
                });
            }
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::gtx480()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx480_matches_paper_parameters() {
        let c = GpuConfig::gtx480();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.num_channels, 6);
        // 1848 MHz × 2 (DDR) × 48 B = 177.4 GB/s.
        assert!((c.total_dram_gbps - 177.4).abs() < 0.1);
        assert!((c.channel_gbps() - 29.57).abs() < 0.1);
        assert_eq!(c.engine.throughput_gbps, 8.0);
        assert_eq!(c.engine.latency_cycles, 20);
    }

    #[test]
    fn bandwidth_gap_is_the_papers() {
        // Six engines: 48 GB/s vs 177.4 GB/s bus — the 3.7× gap that
        // motivates SEAL.
        let c = GpuConfig::gtx480();
        let engine_total = c.engine.throughput_gbps * c.num_channels as f64;
        assert!((engine_total - 48.0).abs() < 1e-9);
        assert!(c.total_dram_gbps / engine_total > 3.5);
    }

    #[test]
    fn line_service_time_is_sub_ten_cycles() {
        let c = GpuConfig::gtx480();
        // 128 B / 29.57 GB/s = 4.33 ns ≈ 6.06 cycles at 1.401 GHz.
        assert!((c.line_service_cycles() - 6.06).abs() < 0.1);
    }

    #[test]
    fn extension_presets_are_valid_and_span_the_gap() {
        for cfg in [GpuConfig::hbm_accelerator(), GpuConfig::edge_npu()] {
            assert!(cfg.validate().is_ok(), "{}", cfg.name);
        }
        let gap =
            |c: &GpuConfig| c.total_dram_gbps / (c.engine.throughput_gbps * c.num_channels as f64);
        assert!(gap(&GpuConfig::hbm_accelerator()) > 6.0);
        assert!(gap(&GpuConfig::edge_npu()) < 2.5);
        assert!(gap(&GpuConfig::gtx480()) > 3.5);
    }

    #[test]
    fn validation_catches_zeroes() {
        let mut c = GpuConfig::gtx480();
        c.num_channels = 0;
        assert!(c.validate().is_err());
        assert!(GpuConfig::gtx480().validate().is_ok());
    }

    #[test]
    fn validation_rejects_nan_infinite_and_dead_engine() {
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut c = GpuConfig::gtx480();
            c.core_clock_ghz = v;
            assert!(c.validate().is_err(), "core_clock_ghz {v}");
            let mut c = GpuConfig::gtx480();
            c.total_dram_gbps = v;
            assert!(c.validate().is_err(), "total_dram_gbps {v}");
            let mut c = GpuConfig::gtx480();
            c.peak_issue_per_cycle = v;
            assert!(c.validate().is_err(), "peak_issue_per_cycle {v}");
            // A dead engine used to pass and price every encrypted line at
            // infinite cycles.
            let mut c = GpuConfig::gtx480();
            c.engine.throughput_gbps = v;
            assert!(c.validate().is_err(), "engine throughput {v}");
            assert!(crate::Simulator::new(c, EncryptionMode::Direct).is_err());
        }
        for penalty in [-1.0, f64::NAN, f64::INFINITY] {
            let c = GpuConfig::gtx480().with_dram_timing(DramTiming::Banked {
                banks: 16,
                row_bytes: 2048,
                row_miss_penalty: penalty,
            });
            assert!(c.validate().is_err(), "row_miss_penalty {penalty}");
        }
        let free_rows = GpuConfig::gtx480().with_dram_timing(DramTiming::Banked {
            banks: 16,
            row_bytes: 2048,
            row_miss_penalty: 0.0,
        });
        assert!(free_rows.validate().is_ok(), "a free row miss is valid");
    }

    #[test]
    fn mode_display_and_encrypts() {
        assert_eq!(EncryptionMode::None.to_string(), "baseline");
        assert!(!EncryptionMode::None.encrypts());
        assert!(EncryptionMode::Direct.encrypts());
        assert!(EncryptionMode::Counter.encrypts());
    }
}
