use seal_crypto::CounterCacheConfig;

use crate::{
    EncryptionMode, GpuConfig, McReport, MemoryController, SimError, SimReport, Workload,
};

/// The simulator: a GPU configuration plus an encryption mode.
///
/// [`run`](Simulator::run) replays a workload's request trace through the
/// memory hierarchy: requests issue in order, paced by the front end
/// (instruction budget over peak issue) and by the bounded in-flight window;
/// each request is serviced by its address-interleaved memory controller.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: GpuConfig,
    mode: EncryptionMode,
}

impl Simulator {
    /// Creates a simulator after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for invalid GPU parameters.
    pub fn new(config: GpuConfig, mode: EncryptionMode) -> Result<Self, SimError> {
        config.validate()?;
        Ok(Simulator { config, mode })
    }

    /// The GPU configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The encryption mode.
    pub fn mode(&self) -> EncryptionMode {
        self.mode
    }

    /// Simulates one workload and returns its report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the per-controller counter-cache slice is
    /// too small to construct.
    pub fn run(&self, workload: &Workload) -> Result<SimReport, SimError> {
        let cfg = &self.config;
        let requests = workload.requests(cfg.line_bytes);
        let total = requests.len();

        // Per-MC slice of the shared counter-cache capacity.
        let slice = CounterCacheConfig {
            capacity_bytes: (cfg.counter_cache.capacity_bytes / cfg.num_channels)
                .max(cfg.counter_cache.line_bytes * cfg.counter_cache.ways),
            ..cfg.counter_cache
        };
        // Banked timing derives locality itself: use the raw transfer time.
        let line_service = match cfg.dram_timing {
            crate::DramTiming::Flat => cfg.line_service_cycles() / workload.dram_efficiency(),
            crate::DramTiming::Banked { .. } => cfg.line_service_cycles(),
        };
        let mut mcs: Vec<MemoryController> = (0..cfg.num_channels)
            .map(|_| {
                MemoryController::with_timing(
                    self.mode,
                    line_service,
                    cfg.dram_latency_cycles as f64,
                    cfg.line_bytes,
                    &cfg.engine,
                    cfg.engines_per_mc,
                    cfg.core_clock_ghz,
                    slice,
                    cfg.dram_timing,
                )
            })
            .collect::<Result<_, _>>()?;

        // Front-end pacing: the compute/issue work spread over the trace.
        let frontend_cycles =
            workload.instructions() as f64 / (cfg.peak_issue_per_cycle * workload.frontend_efficiency());
        let gap = if total == 0 {
            0.0
        } else {
            frontend_cycles / total as f64
        };

        // Every real line size is a power of two: index lines by shift.
        let line_shift = cfg
            .line_bytes
            .is_power_of_two()
            .then(|| cfg.line_bytes.trailing_zeros());
        let mut ring = vec![0.0f64; cfg.max_outstanding];
        let mut slot = 0usize;
        let mut next_issue = 0.0f64;
        let mut last_completion = 0.0f64;

        for req in requests {
            // Stall on the window slot this request reuses.
            let issue = next_issue.max(ring[slot]);
            next_issue = issue + gap;
            // Hashed (swizzled) channel interleaving, as real GPU memory
            // partitions use, so strided tile walks cannot camp on a
            // subset of channels.
            let line = match line_shift {
                Some(shift) => req.addr >> shift,
                None => req.addr / cfg.line_bytes,
            };
            let hashed = line ^ (line >> 7) ^ (line >> 13);
            let mc = (hashed % cfg.num_channels as u64) as usize;
            let done = mcs[mc].service(issue, &req);
            ring[slot] = done;
            slot += 1;
            if slot == ring.len() {
                slot = 0;
            }
            if done > last_completion {
                last_completion = done;
            }
        }

        let cycles = last_completion.max(frontend_cycles);
        let per_mc = mcs
            .iter()
            .map(|m| {
                let cc = m.counter_cache_stats();
                McReport {
                    lines: m.lines(),
                    encrypted_lines: m.encrypted_lines(),
                    dram_busy: m.dram_busy(),
                    engine_busy: m.engine_busy(),
                    extra_counter_lines: m.extra_counter_lines(),
                    counter_hits: cc.hits,
                    counter_misses: cc.misses,
                }
            })
            .collect();

        Ok(SimReport {
            workload: workload.name().to_string(),
            mode: self.mode,
            cycles,
            instructions: workload.instructions(),
            requests: total as u64,
            traffic_bytes: workload.traffic_bytes(),
            encrypted_bytes: workload.encrypted_bytes(),
            per_mc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Region;

    /// A fully-encrypted streaming workload with negligible compute.
    fn streaming(bytes: u64, encrypted: bool) -> Workload {
        Workload::builder("stream")
            .region(Region::read("data", 0, bytes).encrypted(encrypted))
            .instructions(1000)
            .build()
            .unwrap()
    }

    fn run(mode: EncryptionMode, wl: &Workload) -> SimReport {
        Simulator::new(GpuConfig::gtx480(), mode)
            .unwrap()
            .run(wl)
            .unwrap()
    }

    #[test]
    fn bandwidth_bound_stream_matches_analytic_dram_time() {
        let bytes = 64u64 << 20;
        let r = run(EncryptionMode::None, &streaming(bytes, true));
        // 64 MB over 177.4 GB/s × 0.8 efficiency at 1.401 GHz.
        let expected = bytes as f64 / (177.4e9 * 0.8) * 1.401e9;
        assert!(
            (r.cycles - expected).abs() / expected < 0.05,
            "cycles {} vs analytic {expected}",
            r.cycles
        );
    }

    #[test]
    fn direct_encryption_throttles_to_engine_bandwidth() {
        let bytes = 64u64 << 20;
        let base = run(EncryptionMode::None, &streaming(bytes, true));
        let enc = run(EncryptionMode::Direct, &streaming(bytes, true));
        // Engine-bound: 48 GB/s vs DRAM 141.9 GB/s effective → ~3× slower.
        let ratio = enc.cycles / base.cycles;
        assert!(
            (2.4..=3.5).contains(&ratio),
            "expected engine-bound slowdown ≈ 2.95, got {ratio}"
        );
    }

    #[test]
    fn unencrypted_regions_bypass_the_engine_under_direct() {
        let bytes = 16u64 << 20;
        let plain = run(EncryptionMode::Direct, &streaming(bytes, false));
        let base = run(EncryptionMode::None, &streaming(bytes, false));
        assert!((plain.cycles - base.cycles).abs() / base.cycles < 0.01);
    }

    #[test]
    fn half_encrypted_stream_sits_between_baseline_and_full() {
        let half = Workload::builder("half")
            .region(Region::read("enc", 0, 32 << 20).encrypted(true))
            .region(Region::read("plain", 1 << 30, 32 << 20))
            .instructions(1000)
            .build()
            .unwrap();
        let full = run(EncryptionMode::Direct, &streaming(64 << 20, true));
        let base = run(EncryptionMode::None, &streaming(64 << 20, true));
        let mid = run(EncryptionMode::Direct, &half);
        assert!(mid.cycles < full.cycles * 0.75, "SEAL-style bypass helps");
        assert!(mid.cycles > base.cycles * 1.05, "but is not free");
    }

    #[test]
    fn counter_mode_is_no_faster_than_direct_when_streaming() {
        // Streaming fresh pages: counter cache misses generate extra
        // traffic — the paper's observation that Counter ≈ Direct on GPUs.
        let wl = streaming(64 << 20, true);
        let d = run(EncryptionMode::Direct, &wl);
        let c = run(EncryptionMode::Counter, &wl);
        assert!(c.cycles >= d.cycles * 0.95, "direct {} counter {}", d.cycles, c.cycles);
    }

    #[test]
    fn frontend_bound_workload_ignores_encryption() {
        let wl = Workload::builder("compute")
            .region(Region::read("data", 0, 1 << 20).encrypted(true))
            .instructions(2_000_000_000)
            .build()
            .unwrap();
        let base = run(EncryptionMode::None, &wl);
        let enc = run(EncryptionMode::Direct, &wl);
        assert!((enc.cycles - base.cycles).abs() / base.cycles < 0.02);
        // IPC at the front-end ceiling: 960 × 0.85.
        assert!((base.ipc() - 816.0).abs() < 20.0, "ipc {}", base.ipc());
    }

    #[test]
    fn requests_spread_across_all_channels() {
        let r = run(EncryptionMode::None, &streaming(8 << 20, false));
        let lines: Vec<u64> = r.per_mc.iter().map(|m| m.lines).collect();
        let min = *lines.iter().min().unwrap();
        let max = *lines.iter().max().unwrap();
        assert!(max - min <= max / 10, "imbalanced channels: {lines:?}");
    }

    #[test]
    fn counter_mode_hit_rate_reported() {
        let r = run(EncryptionMode::Counter, &streaming(8 << 20, true));
        // Sequential stream: a 4 KB page holds 32 lines, interleaved over 6
        // channels — each MC sees ~5.3 sequential hits per page (≈ 0.81).
        assert!(r.counter_hit_rate() > 0.75, "{}", r.counter_hit_rate());
    }

    #[test]
    fn report_totals_are_consistent() {
        let wl = streaming(1 << 20, true);
        let r = run(EncryptionMode::Direct, &wl);
        assert_eq!(r.requests, (1 << 20) / 128);
        let mc_lines: u64 = r.per_mc.iter().map(|m| m.lines).sum();
        assert_eq!(mc_lines, r.requests);
        assert_eq!(r.encrypted_bytes, 1 << 20);
    }
}
