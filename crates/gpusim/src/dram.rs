//! DRAM channel timing models.
//!
//! Two levels of fidelity:
//!
//! * [`DramTiming::Flat`] — the calibrated default: every line occupies the
//!   channel for `line_service / workload.dram_efficiency` cycles. The
//!   efficiency knob encodes row locality per workload class (streaming
//!   ≈ 0.8, strided pooling ≈ 0.5), which is what the paper-reproduction
//!   experiments are calibrated against.
//! * [`DramTiming::Banked`] — an explicit open-row model: each channel has
//!   `banks` banks with one open row each; a row hit streams at full
//!   bandwidth, a row miss pays precharge+activate on the *bank* while
//!   other banks keep the channel busy. Row locality then *emerges* from
//!   the address stream instead of being asserted. Useful for studying
//!   access patterns the flat knob cannot express (e.g. bank camping).
//!
//! GDDR5-era defaults: 2 KB rows, 16 banks per channel, ~40 ns
//! row-cycle penalty (≈ 56 cycles at 1.4 GHz).

/// Channel timing model selector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DramTiming {
    /// Fixed per-line service scaled by the workload's efficiency knob.
    #[default]
    Flat,
    /// Open-row banked model with explicit activate/precharge penalties.
    Banked {
        /// Banks per channel.
        banks: usize,
        /// Row (page) size in bytes.
        row_bytes: u64,
        /// Extra cycles a row miss costs on its bank before data can move.
        row_miss_penalty: f64,
    },
}

impl DramTiming {
    /// GDDR5-class banked timing (16 banks, 2 KB rows, 56-cycle misses).
    pub fn gddr5_banked() -> Self {
        DramTiming::Banked {
            banks: 16,
            row_bytes: 2048,
            row_miss_penalty: 56.0,
        }
    }
}

/// Per-channel DRAM state for the banked model.
#[derive(Debug, Clone)]
pub struct BankedChannel {
    banks: Vec<BankState>,
    row_bytes: u64,
    row_miss_penalty: f64,
    /// Cycles one line occupies the data bus at full rate.
    transfer_cycles: f64,
    channel_next_free: f64,
    busy: f64,
    row_hits: u64,
    row_misses: u64,
}

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    next_free: f64,
}

impl BankedChannel {
    /// Creates an idle channel.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0` or `row_bytes == 0` (configs are validated
    /// upstream).
    pub fn new(banks: usize, row_bytes: u64, row_miss_penalty: f64, transfer_cycles: f64) -> Self {
        assert!(banks > 0 && row_bytes > 0, "validated by GpuConfig");
        BankedChannel {
            banks: vec![
                BankState {
                    open_row: None,
                    next_free: 0.0
                };
                banks
            ],
            row_bytes,
            row_miss_penalty,
            transfer_cycles,
            channel_next_free: 0.0,
            busy: 0.0,
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// Services one line at address `addr` arriving at cycle `t`; returns
    /// the cycle its data transfer completes (excluding fixed access
    /// latency, which the controller adds).
    pub fn access(&mut self, t: f64, addr: u64) -> f64 {
        let row = addr / self.row_bytes;
        let bank_idx = (row % self.banks.len() as u64) as usize;
        let bank = &mut self.banks[bank_idx];
        let hit = bank.open_row == Some(row);
        if hit {
            self.row_hits += 1;
        } else {
            self.row_misses += 1;
        }
        let prep = if hit { 0.0 } else { self.row_miss_penalty };
        // The bank must be free and (on a miss) activated; the shared data
        // bus serialises transfers across banks.
        let bank_ready = t.max(bank.next_free) + prep;
        let start = bank_ready.max(self.channel_next_free);
        let done = start + self.transfer_cycles;
        self.channel_next_free = done;
        bank.next_free = done;
        bank.open_row = Some(row);
        self.busy += self.transfer_cycles;
        done
    }

    /// First cycle the data bus is free.
    pub fn next_free(&self) -> f64 {
        self.channel_next_free
    }

    /// Data-bus busy cycles so far.
    pub fn busy_cycles(&self) -> f64 {
        self.busy
    }

    /// Row-buffer hit rate so far (0 when idle).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> BankedChannel {
        BankedChannel::new(16, 2048, 56.0, 6.0)
    }

    /// Issues all accesses at t = 0 (a loaded queue, as the simulator's
    /// in-flight window provides) and returns the last completion.
    fn drain(ch: &mut BankedChannel, addrs: impl Iterator<Item = u64>) -> f64 {
        let mut last = 0.0f64;
        for a in addrs {
            last = last.max(ch.access(0.0, a));
        }
        last
    }

    #[test]
    fn sequential_stream_hits_the_open_row() {
        let mut ch = channel();
        let t = drain(&mut ch, (0..64u64).map(|i| i * 128));
        // 2 KB row = 16 lines: 4 misses in 64 accesses.
        assert!(ch.row_hit_rate() > 0.9, "{}", ch.row_hit_rate());
        // Throughput ≈ one transfer per line plus a few activates.
        assert!(t < 64.0 * 6.0 + 5.0 * 56.0 + 1.0, "{t}");
    }

    #[test]
    fn bank_camping_serialises_on_one_bank() {
        // Stride of banks × row_bytes keeps hitting bank 0 with new rows:
        // every access pays the full row-miss penalty back to back even
        // with a loaded queue.
        let mut ch = channel();
        let stride = 16 * 2048u64;
        let t = drain(&mut ch, (0..32u64).map(|i| i * stride));
        assert_eq!(ch.row_hit_rate(), 0.0);
        assert!(t >= 32.0 * (56.0 + 6.0) - 1.0, "{t}");
    }

    #[test]
    fn row_misses_across_banks_overlap() {
        // Stride of one row: consecutive accesses land on different banks,
        // so activates overlap and the bus stays near-saturated.
        let mut ch = channel();
        let t = drain(&mut ch, (0..64u64).map(|i| i * 2048));
        assert_eq!(ch.row_hit_rate(), 0.0);
        // Far faster than serialised misses: bounded by bus + one prep.
        assert!(t < 64.0 * 6.0 + 2.0 * 56.0 + 1.0, "{t}");
    }

    #[test]
    fn revisiting_a_row_after_eviction_misses_again() {
        let mut ch = channel();
        ch.access(0.0, 0); // open row 0 on bank 0
        ch.access(0.0, 16 * 2048); // row 16 also maps to bank 0 → evicts
        ch.access(0.0, 0); // row 0 again → miss
        assert_eq!(ch.row_hit_rate(), 0.0);
    }

    #[test]
    fn stats_accumulate() {
        let mut ch = channel();
        for i in 0..10u64 {
            ch.access(0.0, i * 128);
        }
        assert!((ch.busy_cycles() - 60.0).abs() < 1e-9);
        assert!(ch.next_free() >= 60.0);
    }
}
