use seal_crypto::{CounterCache, CounterCacheConfig, EngineSpec};

use crate::dram::BankedChannel;
use crate::{DramTiming, EncryptionMode, MemoryRequest, SimError};

/// An [`EncryptionMode`] as a type: a controller loop generic over it has
/// every per-request test of the mode folded away at compile time.
pub(crate) trait Mode {
    const MODE: EncryptionMode;
}

/// [`EncryptionMode::None`] as a type.
pub(crate) struct PlainMode;
/// [`EncryptionMode::Direct`] as a type.
pub(crate) struct DirectMode;
/// [`EncryptionMode::Counter`] as a type.
pub(crate) struct CounterMode;

impl Mode for PlainMode {
    const MODE: EncryptionMode = EncryptionMode::None;
}

impl Mode for DirectMode {
    const MODE: EncryptionMode = EncryptionMode::Direct;
}

impl Mode for CounterMode {
    const MODE: EncryptionMode = EncryptionMode::Counter;
}

#[derive(Debug)]
enum Channel {
    /// Flat service: fixed cycles per line (efficiency-scaled).
    Flat { next_free: f64, busy: f64 },
    /// Open-row banked model (see [`crate::DramTiming::Banked`]).
    Banked(BankedChannel),
}

/// One memory controller: a DRAM channel, its slice of the counter cache,
/// and one or more AES engines.
///
/// All timestamps are core-clock cycles as `f64` (fractional line service
/// times matter: a 128-byte line takes 6.06 cycles on a 29.6 GB/s channel).
#[derive(Debug)]
pub struct MemoryController {
    mode: EncryptionMode,
    /// Cycles a line occupies the channel (already divided by the
    /// workload's DRAM efficiency; banked mode uses the raw transfer time
    /// and derives locality itself).
    line_service: f64,
    dram_latency: f64,
    engine_occupancy: f64,
    engine_latency: f64,
    channel: Channel,
    engine_next_free: Vec<f64>,
    /// This controller's counter-cache slice; only counter mode has one.
    counter_cache: Option<CounterCache>,
    // Statistics.
    lines: u64,
    encrypted_lines: u64,
    engine_busy: f64,
    extra_counter_lines: u64,
}

impl MemoryController {
    /// Builds a controller.
    ///
    /// * `line_service` — channel occupancy per line in cycles (at the
    ///   workload's DRAM efficiency).
    /// * `engine` — the AES engine spec; `engines` instances are
    ///   instantiated.
    /// * `cc_config` — this controller's counter-cache slice.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for invalid cache geometry or zero engines.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mode: EncryptionMode,
        line_service: f64,
        dram_latency: f64,
        line_bytes: u64,
        engine: &EngineSpec,
        engines: usize,
        clock_ghz: f64,
        cc_config: CounterCacheConfig,
    ) -> Result<Self, SimError> {
        Self::with_timing(
            mode,
            line_service,
            dram_latency,
            line_bytes,
            engine,
            engines,
            clock_ghz,
            cc_config,
            DramTiming::Flat,
        )
    }

    /// Builds a controller with an explicit DRAM timing model. For
    /// [`DramTiming::Banked`], `line_service` is interpreted as the raw
    /// full-rate transfer time (locality emerges from the bank model).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for invalid cache geometry or zero engines.
    #[allow(clippy::too_many_arguments)]
    pub fn with_timing(
        mode: EncryptionMode,
        line_service: f64,
        dram_latency: f64,
        line_bytes: u64,
        engine: &EngineSpec,
        engines: usize,
        clock_ghz: f64,
        cc_config: CounterCacheConfig,
        timing: DramTiming,
    ) -> Result<Self, SimError> {
        if engines == 0 {
            return Err(SimError::InvalidConfig {
                reason: "memory controller needs at least one engine".into(),
            });
        }
        // The other modes never look a counter up: check the geometry, skip
        // the allocation.
        let counter_cache = if mode == EncryptionMode::Counter {
            Some(CounterCache::new(cc_config)?)
        } else {
            cc_config.validate()?;
            None
        };
        let occupancy = line_bytes as f64 / (engine.throughput_gbps * 1e9) * clock_ghz * 1e9;
        let channel = match timing {
            DramTiming::Flat => Channel::Flat {
                next_free: 0.0,
                busy: 0.0,
            },
            DramTiming::Banked {
                banks,
                row_bytes,
                row_miss_penalty,
            } => Channel::Banked(BankedChannel::new(
                banks,
                row_bytes,
                row_miss_penalty,
                line_service,
            )),
        };
        Ok(MemoryController {
            mode,
            line_service,
            dram_latency,
            engine_occupancy: occupancy,
            engine_latency: engine.latency_cycles as f64,
            channel,
            engine_next_free: vec![0.0; engines],
            counter_cache,
            lines: 0,
            encrypted_lines: 0,
            engine_busy: 0.0,
            extra_counter_lines: 0,
        })
    }

    /// Occupies the DRAM channel for one line at `addr` starting no
    /// earlier than `t`; returns data-available time (service + access
    /// latency).
    #[inline(always)]
    fn dram_access(&mut self, t: f64, addr: u64) -> f64 {
        match &mut self.channel {
            Channel::Flat { next_free, busy } => {
                let start = t.max(*next_free);
                *next_free = start + self.line_service;
                *busy += self.line_service;
                start + self.line_service + self.dram_latency
            }
            Channel::Banked(ch) => ch.access(t, addr) + self.dram_latency,
        }
    }

    /// Runs one line through the least-loaded AES engine starting no
    /// earlier than `t`; returns pad/ciphertext-ready time.
    #[inline(always)]
    fn engine_run(&mut self, t: f64) -> f64 {
        let Some((first, rest)) = self.engine_next_free.split_first_mut() else {
            // Unreachable: the constructor rejects zero engines; with no
            // engines there is no pad to wait on.
            return t;
        };
        // The first among the least loaded; with the paper's one engine
        // per controller there is nothing to scan.
        let next_free = rest
            .iter_mut()
            .fold(first, |least, e| if *e < *least { e } else { least });
        let start = t.max(*next_free);
        *next_free = start + self.engine_occupancy;
        self.engine_busy += self.engine_occupancy;
        start + self.engine_occupancy + self.engine_latency
    }

    /// Services a request arriving at cycle `arrival`; returns its
    /// completion time.
    #[inline]
    pub fn service(&mut self, arrival: f64, req: &MemoryRequest) -> f64 {
        match self.mode {
            EncryptionMode::None => self.service_as::<PlainMode>(arrival, req),
            EncryptionMode::Direct => self.service_as::<DirectMode>(arrival, req),
            EncryptionMode::Counter => self.service_as::<CounterMode>(arrival, req),
        }
    }

    /// [`service`](Self::service) for a controller built for `M::MODE`:
    /// the one body both it and the simulator's per-mode loop run.
    #[inline(always)]
    pub(crate) fn service_as<M: Mode>(&mut self, arrival: f64, req: &MemoryRequest) -> f64 {
        debug_assert_eq!(self.mode, M::MODE, "controller serviced under another mode");
        self.lines += 1;
        if !req.encrypted || !M::MODE.encrypts() {
            return self.dram_access(arrival, req.addr);
        }
        self.encrypted_lines += 1;
        match M::MODE {
            EncryptionMode::None => unreachable!("handled above"),
            EncryptionMode::Direct => {
                if req.write {
                    // Writes sit in the MC's write buffer while the engine
                    // encrypts them, so they consume channel bandwidth near
                    // arrival without blocking younger reads; the line is
                    // durable once both resources have processed it.
                    let enc_done = self.engine_run(arrival);
                    let dram_done = self.dram_access(arrival, req.addr);
                    enc_done.max(dram_done)
                } else {
                    // Fetch ciphertext, then decrypt — AES latency sits on
                    // the read critical path.
                    let data = self.dram_access(arrival, req.addr);
                    self.engine_run(data)
                }
            }
            EncryptionMode::Counter => {
                // Counter lookup; a miss costs a real DRAM line fetch.
                let hit = match &mut self.counter_cache {
                    Some(cache) => cache.access(req.addr),
                    // Unreachable: counter mode always builds its cache.
                    None => false,
                };
                let counter_ready = if hit {
                    arrival
                } else {
                    self.extra_counter_lines += 1;
                    // Counter metadata lives in a dedicated region; offset
                    // the address so banked models treat it as its own rows.
                    self.dram_access(arrival, req.addr ^ (1 << 40))
                };
                // Pad generation overlaps the data access (the whole point
                // of counter mode) but still occupies the engine.
                let pad = self.engine_run(counter_ready);
                let data = self.dram_access(arrival, req.addr);
                if req.write {
                    // Write-buffered like the direct case; complete when
                    // both the pad and the channel slot are done.
                    data.max(pad)
                } else {
                    data.max(pad) + 1.0
                }
            }
        }
    }

    /// First cycle at which the DRAM channel is free.
    pub fn dram_next_free(&self) -> f64 {
        match &self.channel {
            Channel::Flat { next_free, .. } => *next_free,
            Channel::Banked(ch) => ch.next_free(),
        }
    }

    /// Row-buffer hit rate (banked timing only; 0 under flat timing).
    pub fn row_hit_rate(&self) -> f64 {
        match &self.channel {
            Channel::Flat { .. } => 0.0,
            Channel::Banked(ch) => ch.row_hit_rate(),
        }
    }

    /// Lines serviced (excluding counter-fetch lines).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Lines that passed the AES engine.
    pub fn encrypted_lines(&self) -> u64 {
        self.encrypted_lines
    }

    /// Cycles the DRAM channel was busy.
    pub fn dram_busy(&self) -> f64 {
        match &self.channel {
            Channel::Flat { busy, .. } => *busy,
            Channel::Banked(ch) => ch.busy_cycles(),
        }
    }

    /// Cycles the engines' initiation stages were busy (summed).
    pub fn engine_busy(&self) -> f64 {
        self.engine_busy
    }

    /// Extra DRAM line fetches caused by counter-cache misses.
    pub fn extra_counter_lines(&self) -> u64 {
        self.extra_counter_lines
    }

    /// Counter-cache statistics (all zero outside counter mode).
    pub fn counter_cache_stats(&self) -> seal_crypto::CounterCacheStats {
        self.counter_cache
            .as_ref()
            .map(CounterCache::stats)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc(mode: EncryptionMode) -> MemoryController {
        MemoryController::new(
            mode,
            6.06,
            220.0,
            128,
            &EngineSpec::seal_default(),
            1,
            1.401,
            CounterCacheConfig::with_kilobytes(16),
        )
        .unwrap()
    }

    fn read(addr: u64, encrypted: bool) -> MemoryRequest {
        MemoryRequest {
            addr,
            write: false,
            encrypted,
        }
    }

    #[test]
    fn plain_read_is_service_plus_latency() {
        let mut m = mc(EncryptionMode::None);
        let done = m.service(0.0, &read(0, false));
        assert!((done - (6.06 + 220.0)).abs() < 1e-9);
    }

    #[test]
    fn back_to_back_plain_reads_pipeline_on_the_channel() {
        let mut m = mc(EncryptionMode::None);
        let a = m.service(0.0, &read(0, false));
        let b = m.service(0.0, &read(128, false));
        assert!(
            (b - a - 6.06).abs() < 1e-9,
            "second line waits one service slot"
        );
    }

    #[test]
    fn direct_read_adds_engine_after_dram() {
        let mut m = mc(EncryptionMode::Direct);
        let done = m.service(0.0, &read(0, true));
        // dram (6.06 + 220) then engine (22.9 occupancy + 20 latency).
        let occupancy = 128.0 / 8e9 * 1.401e9;
        assert!((done - (226.06 + occupancy + 20.0)).abs() < 1e-6);
        assert_eq!(m.encrypted_lines(), 1);
    }

    #[test]
    fn unencrypted_requests_bypass_engine_even_in_direct_mode() {
        let mut m = mc(EncryptionMode::Direct);
        let done = m.service(0.0, &read(0, false));
        assert!((done - 226.06).abs() < 1e-9);
        assert_eq!(m.engine_busy(), 0.0);
    }

    #[test]
    fn counter_hit_overlaps_engine_with_dram() {
        let mut m = mc(EncryptionMode::Counter);
        // Warm the counter cache for this page.
        m.service(0.0, &read(0, true));
        let t0 = m.dram_next_free();
        let done = m.service(1000.0, &read(128, true));
        let _ = t0;
        // Hit: pad = 1000 + occupancy + 20 ≈ 1042.9; data = 1000 + 226.06;
        // completion = max + 1 — pad path dominated by DRAM latency.
        assert!((done - (1000.0 + 6.06 + 220.0 + 1.0)).abs() < 1.0, "{done}");
    }

    #[test]
    fn counter_miss_costs_a_dram_fetch() {
        let mut m = mc(EncryptionMode::Counter);
        m.service(0.0, &read(0, true));
        let extra_before = m.extra_counter_lines();
        // A distant page misses the counter cache.
        m.service(5000.0, &read(1 << 30, true));
        assert_eq!(m.extra_counter_lines(), extra_before + 1);
        // Miss consumed channel time: 3 lines of dram_busy total (2 data +
        // 1 counter) after the second request... plus the first miss.
        assert!((m.dram_busy() - 4.0 * 6.06).abs() < 1e-6);
    }

    #[test]
    fn engine_throughput_gates_back_to_back_encrypted_reads() {
        let mut m = mc(EncryptionMode::Direct);
        let mut last = 0.0f64;
        let mut times = Vec::new();
        for i in 0..10 {
            last = m.service(0.0, &read(i * 128, true));
            times.push(last);
        }
        // Steady-state spacing = engine occupancy (22.4), not DRAM (6.06).
        let spacing = (times[9] - times[4]) / 5.0;
        let occupancy = 128.0 / 8e9 * 1.401e9;
        assert!((spacing - occupancy).abs() < 0.5, "spacing {spacing}");
        let _ = last;
    }

    #[test]
    fn two_engines_halve_the_encrypted_spacing() {
        let mut m = MemoryController::new(
            EncryptionMode::Direct,
            6.06,
            220.0,
            128,
            &EngineSpec::seal_default(),
            2,
            1.401,
            CounterCacheConfig::with_kilobytes(16),
        )
        .unwrap();
        let mut times = Vec::new();
        for i in 0..12 {
            times.push(m.service(0.0, &read(i * 128, true)));
        }
        let spacing = (times[11] - times[5]) / 6.0;
        let occupancy = 128.0 / 8e9 * 1.401e9;
        assert!((spacing - occupancy / 2.0).abs() < 0.5, "spacing {spacing}");
    }

    #[test]
    fn zero_engines_rejected() {
        assert!(MemoryController::new(
            EncryptionMode::Direct,
            6.0,
            220.0,
            128,
            &EngineSpec::seal_default(),
            0,
            1.401,
            CounterCacheConfig::with_kilobytes(16),
        )
        .is_err());
    }
}
