use crate::EncryptionMode;

/// Per-memory-controller statistics of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct McReport {
    /// Lines serviced (excluding counter fetches).
    pub lines: u64,
    /// Lines routed through the AES engine.
    pub encrypted_lines: u64,
    /// Cycles the DRAM channel was occupied.
    pub dram_busy: f64,
    /// Cycles the engines' initiation stages were occupied.
    pub engine_busy: f64,
    /// Extra DRAM line fetches for counter-cache misses.
    pub extra_counter_lines: u64,
    /// Counter-cache hits.
    pub counter_hits: u64,
    /// Counter-cache misses.
    pub counter_misses: u64,
}

/// Results of simulating one workload under one encryption mode.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Workload name.
    pub workload: String,
    /// Encryption mode simulated.
    pub mode: EncryptionMode,
    /// Total execution cycles.
    pub cycles: f64,
    /// Front-end instructions executed.
    pub instructions: u64,
    /// Memory requests issued.
    pub requests: u64,
    /// Bytes moved across the bus (requested traffic; counter fetches are
    /// reported separately).
    pub traffic_bytes: u64,
    /// Bytes of that traffic in encrypted regions.
    pub encrypted_bytes: u64,
    /// Per-controller breakdown.
    pub per_mc: Vec<McReport>,
}

impl SimReport {
    /// Instructions per cycle — the paper's headline metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }

    /// Wall-clock execution time in milliseconds at `clock_ghz`.
    pub fn time_ms(&self, clock_ghz: f64) -> f64 {
        self.cycles / (clock_ghz * 1e9) * 1e3
    }

    /// Aggregate counter-cache hit rate across controllers (0 when counter
    /// mode never ran).
    pub fn counter_hit_rate(&self) -> f64 {
        let hits: u64 = self.per_mc.iter().map(|m| m.counter_hits).sum();
        let misses: u64 = self.per_mc.iter().map(|m| m.counter_misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Mean DRAM-channel utilisation over the run.
    pub fn dram_utilisation(&self) -> f64 {
        if self.cycles <= 0.0 || self.per_mc.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.per_mc.iter().map(|m| m.dram_busy).sum();
        busy / (self.cycles * self.per_mc.len() as f64)
    }

    /// Mean AES-engine utilisation over the run.
    pub fn engine_utilisation(&self) -> f64 {
        if self.cycles <= 0.0 || self.per_mc.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.per_mc.iter().map(|m| m.engine_busy).sum();
        busy / (self.cycles * self.per_mc.len() as f64)
    }

    /// Achieved bus bandwidth in GB/s at `clock_ghz` (includes counter
    /// traffic).
    pub fn achieved_gbps(&self, clock_ghz: f64, line_bytes: u64) -> f64 {
        if self.cycles <= 0.0 {
            return 0.0;
        }
        let extra: u64 = self.per_mc.iter().map(|m| m.extra_counter_lines).sum();
        let bytes = self.traffic_bytes + extra * line_bytes;
        bytes as f64 / (self.cycles / (clock_ghz * 1e9)) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            workload: "t".into(),
            mode: EncryptionMode::Counter,
            cycles: 1000.0,
            instructions: 5000,
            requests: 100,
            traffic_bytes: 12_800,
            encrypted_bytes: 6400,
            per_mc: vec![McReport {
                lines: 100,
                encrypted_lines: 50,
                dram_busy: 600.0,
                engine_busy: 500.0,
                extra_counter_lines: 10,
                counter_hits: 40,
                counter_misses: 10,
            }],
        }
    }

    #[test]
    fn ipc_is_instructions_over_cycles() {
        assert!((report().ipc() - 5.0).abs() < 1e-12);
        let mut r = report();
        r.cycles = 0.0;
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn hit_rate_aggregates_mcs() {
        assert!((report().counter_hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn utilisations() {
        let r = report();
        assert!((r.dram_utilisation() - 0.6).abs() < 1e-12);
        assert!((r.engine_utilisation() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn time_and_bandwidth() {
        let r = report();
        // 1000 cycles at 1 GHz = 1 µs = 0.001 ms.
        assert!((r.time_ms(1.0) - 0.001).abs() < 1e-9);
        // (12800 + 10×128) B in 1 µs = 14.08 GB/s.
        assert!((r.achieved_gbps(1.0, 128) - 14.08).abs() < 1e-6);
    }
}
