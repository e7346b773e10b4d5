//! Hardware AES engine performance model.
//!
//! Table I of the paper surveys published hardware AES implementations; the
//! evaluation models "a pipeline AES encryption engine with 128-bit block
//! \[Mathew et al.\], in which the overall AES encryption latency for a cache
//! line is 20 cycles and the bandwidth of each AES engine is 8 GB/s". One
//! such engine sits in each of the six memory controllers.
//!
//! [`EngineSpec`] carries the published figures; [`EnginePipeline`] turns a
//! spec into cycle-accounting that `seal-gpusim` attaches to each memory
//! controller: a pipelined unit with a fixed initiation interval (set by
//! throughput) plus a fixed pipeline latency.

#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use crate::CryptoError;

/// Published characteristics of a hardware AES engine (one row of Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// Implementation name / citation.
    pub name: &'static str,
    /// Die area in mm², when reported.
    pub area_mm2: Option<f64>,
    /// Power in mW, when reported.
    pub power_mw: Option<f64>,
    /// Encryption latency for one block/cache line, in cycles.
    pub latency_cycles: u64,
    /// Sustained throughput in GB/s.
    pub throughput_gbps: f64,
}

impl EngineSpec {
    /// The engine modelled in the paper's evaluation (Sec. IV-A): pipelined
    /// 128-bit AES after Mathew et al., 20-cycle cache-line latency, 8 GB/s.
    pub fn seal_default() -> Self {
        EngineSpec {
            name: "SEAL modelled engine (Mathew-class pipeline)",
            area_mm2: Some(1.1),
            power_mw: Some(125.0),
            latency_cycles: 20,
            throughput_gbps: 8.0,
        }
    }

    /// Cycles of engine occupancy for `bytes` of data at `clock_ghz`.
    ///
    /// This is the pipeline initiation cost — the reciprocal-throughput
    /// component, excluding the fixed latency.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a cycle count far below 2^64; `as` saturates a float at the bound"
    )]
    pub fn occupancy_cycles(&self, bytes: u64, clock_ghz: f64) -> u64 {
        let seconds = bytes as f64 / (self.throughput_gbps * 1e9);
        (seconds * clock_ghz * 1e9).ceil() as u64
    }
}

/// The five engines of Table I, in paper order.
pub const TABLE_I_ENGINES: [EngineSpec; 5] = [
    EngineSpec {
        name: "Morioka et al. [16]",
        area_mm2: None,
        power_mw: Some(1920.0),
        latency_cycles: 10,
        throughput_gbps: 1.5,
    },
    EngineSpec {
        name: "Mathew et al. [15]",
        area_mm2: Some(1.1),
        power_mw: Some(125.0),
        latency_cycles: 20,
        throughput_gbps: 6.6,
    },
    EngineSpec {
        name: "Ensilica [3]",
        area_mm2: Some(1.4),
        power_mw: None,
        latency_cycles: 11,
        throughput_gbps: 8.0,
    },
    EngineSpec {
        name: "Sayilar et al. [21]",
        area_mm2: Some(6.3),
        power_mw: Some(6207.0),
        latency_cycles: 20,
        throughput_gbps: 16.0,
    },
    EngineSpec {
        name: "Liu et al. [14]",
        area_mm2: Some(6.6),
        power_mw: Some(1580.0),
        latency_cycles: 152,
        throughput_gbps: 19.0,
    },
];

/// Cycle-accounting state of one pipelined AES engine instance.
///
/// The engine accepts a new cache line once its previous line has cleared
/// the initiation stage; each line additionally pays the fixed pipeline
/// latency before its pad/ciphertext is available.
///
/// ```
/// use seal_crypto::{EnginePipeline, EngineSpec};
///
/// # fn main() -> Result<(), seal_crypto::CryptoError> {
/// let mut eng = EnginePipeline::new(EngineSpec::seal_default(), 1.401)?;
/// let done_a = eng.submit(0, 128);
/// let done_b = eng.submit(0, 128);
/// assert!(done_b > done_a, "back-to-back lines serialise on throughput");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EnginePipeline {
    spec: EngineSpec,
    clock_ghz: f64,
    next_free: u64,
    lines_processed: u64,
    busy_cycles: u64,
    stalls: u64,
    stall_cycles: u64,
    recoveries: u64,
    recovery_cycles: u64,
}

// Ownership contract with the seal-pool parallel runtime: an
// `EnginePipeline` is plain owned state (no interior mutability, no
// thread affinity), so each seal-serve cost lane owns its engine
// exclusively and lanes never share one across threads — the pipeline
// may *move* to whichever worker holds the lane's lock, which is
// exactly `Send`. The assertion makes that load-bearing property a
// compile error to lose (e.g. by caching an `Rc` inside).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<EnginePipeline>();
};

impl EnginePipeline {
    /// Creates an idle engine clocked at `clock_ghz` (the cycle domain in
    /// which [`submit`](Self::submit) timestamps are expressed).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidConfig`] for a clock or throughput
    /// that is not positive and finite (NaN included).
    pub fn new(spec: EngineSpec, clock_ghz: f64) -> Result<Self, CryptoError> {
        let usable = |v: f64| v > 0.0 && v.is_finite();
        if !usable(clock_ghz) {
            return Err(CryptoError::InvalidConfig {
                reason: format!("clock {clock_ghz} GHz must be positive"),
            });
        }
        if !usable(spec.throughput_gbps) {
            return Err(CryptoError::InvalidConfig {
                reason: format!("throughput {} GB/s must be positive", spec.throughput_gbps),
            });
        }
        Ok(EnginePipeline {
            spec,
            clock_ghz,
            next_free: 0,
            lines_processed: 0,
            busy_cycles: 0,
            stalls: 0,
            stall_cycles: 0,
            recoveries: 0,
            recovery_cycles: 0,
        })
    }

    /// The engine's spec.
    pub fn spec(&self) -> &EngineSpec {
        &self.spec
    }

    /// Submits `bytes` for encryption at cycle `now`; returns the cycle when
    /// the result is available.
    ///
    /// An empty submission (`bytes == 0`) is a no-op: nothing enters the
    /// pipeline, so the engine state (next-free cycle, line count, busy
    /// cycles) is untouched and the "result" is available at `now`.
    pub fn submit(&mut self, now: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return now;
        }
        let occupancy = self.spec.occupancy_cycles(bytes, self.clock_ghz);
        let start = now.max(self.next_free);
        self.next_free = start + occupancy;
        self.lines_processed += 1;
        self.busy_cycles += occupancy;
        start + occupancy + self.spec.latency_cycles
    }

    /// Injects an engine stall of `cycles` (a fault-model event: clock
    /// gating, voltage droop, a wedged pipeline stage). The engine's
    /// next-free cycle is pushed out, so subsequent submissions pay for
    /// the stall in lane throughput.
    pub fn inject_stall(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.next_free = self.next_free.saturating_add(cycles);
        self.stalls += 1;
        self.stall_cycles += cycles;
    }

    /// Submits `bytes` at `now` plus `recovery_attempts` integrity
    /// re-fetches of the same line, each preceded by an exponentially
    /// growing penalty (`base`, `2·base`, ... capped at `max`) modelling
    /// the DRAM round-trip + backoff of a MAC-failure recovery.
    ///
    /// Returns the cycle when the (finally verified) result is available.
    /// With `recovery_attempts == 0` this is exactly [`submit`]
    /// (Self::submit). Recovery traffic is tracked separately via
    /// [`recoveries`](Self::recoveries) / [`recovery_cycles`]
    /// (Self::recovery_cycles) so reports can price the integrity tax.
    pub fn submit_with_recovery(
        &mut self,
        now: u64,
        bytes: u64,
        recovery_attempts: u32,
        recovery_base_cycles: u64,
        recovery_max_cycles: u64,
    ) -> u64 {
        let mut done = self.submit(now, bytes);
        for attempt in 0..recovery_attempts {
            let penalty = if recovery_base_cycles == 0 {
                0
            } else if attempt >= 63 {
                recovery_max_cycles
            } else {
                recovery_base_cycles
                    .saturating_mul(1u64 << attempt)
                    .min(recovery_max_cycles)
            };
            let redo = self.submit(done.saturating_add(penalty), bytes);
            self.recoveries += 1;
            self.recovery_cycles += redo.saturating_sub(done);
            done = redo;
        }
        done
    }

    /// First cycle at which a new line could begin processing.
    pub fn next_free_cycle(&self) -> u64 {
        self.next_free
    }

    /// Number of lines submitted so far.
    pub fn lines_processed(&self) -> u64 {
        self.lines_processed
    }

    /// Total cycles of initiation-stage occupancy so far (utilisation
    /// numerator).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Number of injected stalls so far.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Total cycles lost to injected stalls.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Number of integrity-recovery re-fetches performed so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Total cycles spent on integrity recovery (backoff + re-encrypt).
    pub fn recovery_cycles(&self) -> u64 {
        self.recovery_cycles
    }

    /// Resets the engine to idle, keeping the spec.
    pub fn reset(&mut self) {
        self.next_free = 0;
        self.lines_processed = 0;
        self.busy_cycles = 0;
        self.stalls = 0;
        self.stall_cycles = 0;
        self.recoveries = 0;
        self.recovery_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_matches_paper_rows() {
        assert_eq!(TABLE_I_ENGINES.len(), 5);
        assert_eq!(TABLE_I_ENGINES[1].name, "Mathew et al. [15]");
        assert_eq!(TABLE_I_ENGINES[1].throughput_gbps, 6.6);
        assert_eq!(TABLE_I_ENGINES[4].latency_cycles, 152);
        // Average hardware throughput is "about 8 GB/s" per the paper.
        let avg: f64 = TABLE_I_ENGINES
            .iter()
            .map(|e| e.throughput_gbps)
            .sum::<f64>()
            / 5.0;
        assert!((avg - 10.2).abs() < 0.3, "avg {avg}");
    }

    #[test]
    fn occupancy_for_128b_line_at_8gbps() {
        let spec = EngineSpec::seal_default();
        // 128 B / 8 GB/s = 16 ns = 22.4 cycles @ 1.401 GHz → ceil 23.
        assert_eq!(spec.occupancy_cycles(128, 1.401), 23);
    }

    #[test]
    fn pipeline_latency_added_once_per_line() {
        let mut eng = EnginePipeline::new(EngineSpec::seal_default(), 1.401).unwrap();
        let done = eng.submit(100, 128);
        assert_eq!(done, 100 + 23 + 20);
    }

    #[test]
    fn back_to_back_lines_serialise_on_initiation_interval() {
        let mut eng = EnginePipeline::new(EngineSpec::seal_default(), 1.401).unwrap();
        let a = eng.submit(0, 128);
        let b = eng.submit(0, 128);
        assert_eq!(b - a, 23, "second line waits one occupancy interval");
        assert_eq!(eng.lines_processed(), 2);
    }

    #[test]
    fn idle_gap_does_not_accumulate() {
        let mut eng = EnginePipeline::new(EngineSpec::seal_default(), 1.401).unwrap();
        eng.submit(0, 128);
        let done = eng.submit(10_000, 128);
        assert_eq!(done, 10_000 + 23 + 20);
    }

    #[test]
    fn zero_byte_submission_is_a_noop() {
        let mut eng = EnginePipeline::new(EngineSpec::seal_default(), 1.401).unwrap();
        eng.submit(0, 128);
        let free_before = eng.next_free_cycle();
        // An empty request completes instantly and must not occupy the
        // pipeline or count as a processed line.
        assert_eq!(eng.submit(5, 0), 5);
        assert_eq!(eng.next_free_cycle(), free_before);
        assert_eq!(eng.lines_processed(), 1);
        assert_eq!(eng.busy_cycles(), 23);
        // Subsequent real traffic is unaffected.
        assert_eq!(eng.submit(10_000, 128), 10_000 + 23 + 20);
    }

    #[test]
    fn injected_stall_delays_subsequent_lines() {
        let mut eng = EnginePipeline::new(EngineSpec::seal_default(), 1.401).unwrap();
        eng.inject_stall(1_000);
        assert_eq!(eng.submit(0, 128), 1_000 + 23 + 20);
        assert_eq!(eng.stalls(), 1);
        assert_eq!(eng.stall_cycles(), 1_000);
        // Zero-cycle stall is a no-op.
        eng.inject_stall(0);
        assert_eq!(eng.stalls(), 1);
    }

    #[test]
    fn recovery_prices_backoff_and_refetch() {
        let mut eng = EnginePipeline::new(EngineSpec::seal_default(), 1.401).unwrap();
        // Clean path is identical to submit().
        assert_eq!(eng.submit_with_recovery(0, 128, 0, 100, 1_000), 43);
        assert_eq!(eng.recoveries(), 0);
        eng.reset();
        // Two recoveries: base then doubled penalty, each plus a re-fetch.
        let done = eng.submit_with_recovery(0, 128, 2, 100, 1_000);
        // 43 clean; +100 backoff +43 re-encrypt; +200 +43.
        assert_eq!(done, 43 + 143 + 243);
        assert_eq!(eng.recoveries(), 2);
        assert_eq!(eng.recovery_cycles(), 143 + 243);
        assert_eq!(eng.lines_processed(), 3, "re-fetches occupy the engine");
        eng.reset();
        // Penalty saturates at the cap for large attempt counts.
        let capped = eng.submit_with_recovery(0, 128, 70, 100, 1_000);
        assert!(capped > 70 * 1_000);
        assert_eq!(eng.recoveries(), 70);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(EnginePipeline::new(EngineSpec::seal_default(), 0.0).is_err());
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                EnginePipeline::new(EngineSpec::seal_default(), v).is_err(),
                "clock {v}"
            );
            let mut bad = EngineSpec::seal_default();
            bad.throughput_gbps = v;
            assert!(EnginePipeline::new(bad, 1.0).is_err(), "throughput {v}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut eng = EnginePipeline::new(EngineSpec::seal_default(), 1.401).unwrap();
        eng.submit(0, 128);
        eng.reset();
        assert_eq!(eng.next_free_cycle(), 0);
        assert_eq!(eng.lines_processed(), 0);
        assert_eq!(eng.busy_cycles(), 0);
    }
}
