//! The encrypted-weight-streaming cost model.
//!
//! The serving runtime is real (threads, queues, batches); the memory
//! encryption is *virtual*: every realized batch is priced under three
//! schemes simultaneously — [`Scheme::Baseline`] (no encryption),
//! [`Scheme::Counter`] (full counter-mode encryption) and
//! [`Scheme::SealCounter`] (the paper's smart encryption at the configured
//! ratio) — each with its own [`EnginePipeline`], [`CounterCache`] and
//! virtual clock. Because all three lanes see the *same* batch stream, the
//! resulting makespans order strictly by encrypted bytes regardless of
//! thread timing: Baseline < SEAL-C < Counter in cycles, and the reverse
//! in throughput. That is exactly the paper's claim, surfaced as serving
//! latency instead of IPC.
//!
//! Per batch of `B` samples a lane pays, in virtual cycles:
//!
//! * engine occupancy for `weights_enc + B · fmap_enc` bytes (weights are
//!   streamed once per batch — the batch amortises the encrypted weight
//!   traffic, which is why bigger batches recover throughput),
//! * a DRAM round-trip penalty per counter-cache *demand* miss plus a
//!   small bandwidth-overlap charge per prefetcher fill (counter-mode
//!   lanes only),
//! * the batch's compute cycles (`B · FLOPs / flops_per_cycle`), identical
//!   across lanes.
//!
//! The counter walk itself follows the configured
//! [`CounterGeometry`](seal_crypto::CounterGeometry): each lane's weight
//! window is registered as a pinned read-only region (GuardNN-style shared
//! major counter — warm after the first batch, immune to streaming
//! evictions), the per-batch weight sweep is one batched
//! [`access_run`](CounterCache::access_run) call, and streaming feature
//! maps stay cold but engage the next-line prefetcher so their counter
//! fetches overlap the data fetches instead of stalling them.
//!
//! Host cost per lane and batch: the pinned weight sweep is O(1), and
//! the feature-map walk is O(min(pages, cache lines)) — each batch's
//! pages continue one fresh ascending stream, which `access_run` prices
//! in closed form — so pricing a batch does not grow with its traffic.
//! An injected miss storm lands above the stream and sends that lane's
//! later walks back to the per-page loop (same results, chaos runs only).

use seal_crypto::{
    Aes128, CounterCache, CryptoError, CtrCipher, EnginePipeline, EngineSpec,
    Key128, TenantCrypto,
};
use seal_core::traffic::network_traffic_dt;
use seal_core::{EncryptionPlan, Scheme, SePolicy};
use seal_faults::{FaultConfig, FaultPlan};
use seal_nn::{DType, NetworkTopology};

use crate::{ServeError, ServerConfig};

/// Virtual cycles charged per counter-cache demand miss (one DRAM round
/// trip to fetch the counter line).
const COUNTER_MISS_CYCLES: u64 = 200;

/// Virtual cycles charged per prefetcher fill: the fetch still occupies
/// DRAM bandwidth, but it overlaps the in-flight data access instead of
/// stalling the pipeline, so it is priced at a fraction of a demand miss.
const PREFETCH_FILL_CYCLES: u64 = 20;

/// Virtual base address of the streaming feature-map region, far above the
/// weight region so the two never alias in the counter cache.
const FMAP_REGION_BASE: u64 = 1 << 40;

/// Virtual base address of the miss-storm region, above even the
/// feature-map region so injected storms are always cold.
const STORM_REGION_BASE: u64 = 1 << 50;

/// Virtual cycles of the first integrity-recovery re-fetch; each further
/// attempt doubles (exponential backoff in the cycle domain).
const RECOVERY_BASE_CYCLES: u64 = 400;

/// Cap on a single recovery attempt's backoff penalty.
const RECOVERY_MAX_CYCLES: u64 = 10_000;

/// `FaultPlan::draw` domains for the tamper events (address and bit).
const TAMPER_ADDR_DOMAIN: u64 = 0x7461_6464;
const TAMPER_BIT_DOMAIN: u64 = 0x7462_6974;

/// Injected-fault and recovery accounting across the whole run.
///
/// Every count is a pure function of the fault seed and the number of
/// costed samples: tampers are *real* — each event encrypts a block with
/// the chaos cipher, flips a planned ciphertext bit and must be caught by
/// [`decrypt_verified`](seal_crypto::CtrCipher::decrypt_verified). A tamper
/// that decrypts without a tag mismatch is a **silent corruption**, the one
/// outcome the chaos suite treats as fatal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Tamper events injected (ciphertext bit flips).
    pub tampers_injected: u64,
    /// Tampers caught by per-block MAC verification.
    pub tampers_detected: u64,
    /// Tampers that decrypted without a tag mismatch (must stay 0).
    pub silent_corruptions: u64,
    /// Engine-stall events injected.
    pub stalls_injected: u64,
    /// Counter-cache miss storms injected.
    pub storms_injected: u64,
    /// Integrity-recovery re-fetches priced through the engine pipelines
    /// (summed over the counter-mode lanes).
    pub recoveries: u64,
    /// Virtual cycles those recoveries cost (summed over counter lanes).
    pub recovery_cycles: u64,
    /// Virtual cycles lost to injected engine stalls (summed over counter
    /// lanes).
    pub stall_cycles: u64,
}

/// The chaos schedule threaded through the cost model: a seeded plan, a
/// real cipher for tamper round-trips, and the running fault accounting.
#[derive(Debug)]
struct ChaosState {
    plan: FaultPlan,
    config: FaultConfig,
    cipher: CtrCipher,
    payload: Vec<u8>,
    stats: FaultStats,
    /// Base of the address window tamper events land in (0 for the
    /// single-tenant server, the tenant's counter window otherwise).
    addr_base: u64,
}

/// The fault events one costed batch crosses, identical for every lane
/// (all lanes see the same sample stream).
#[derive(Debug, Clone, Copy, Default)]
struct BatchFaults {
    tampers: u64,
    stalls: u64,
    storms: u64,
}

impl ChaosState {
    /// Computes the events crossed by samples `(before, after]` and runs
    /// the real tamper round-trips (once per event, not per lane).
    fn cross_batch(&mut self, before: u64, after: u64) -> BatchFaults {
        let c = &self.config;
        let ev = BatchFaults {
            tampers: FaultPlan::crossings(c.tamper_every_samples, before, after),
            stalls: FaultPlan::crossings(c.stall_every_samples, before, after),
            storms: FaultPlan::crossings(c.storm_every_samples, before, after),
        };
        let first = before.checked_div(c.tamper_every_samples).unwrap_or(0);
        for k in 0..ev.tampers {
            self.run_tamper(first + k);
        }
        self.stats.stalls_injected += ev.stalls;
        self.stats.storms_injected += ev.storms;
        ev
    }

    /// One tamper event: encrypt a block, flip a planned ciphertext bit,
    /// and demand that verified decryption rejects it.
    fn run_tamper(&mut self, event: u64) {
        let addr = self.addr_base + (self.plan.draw(TAMPER_ADDR_DOMAIN, event) % 4096) * 64;
        let mut tc = self.cipher.encrypt_tagged(addr, &self.payload);
        self.stats.tampers_injected += 1;
        if tc
            .flip_ciphertext_bit(self.plan.draw(TAMPER_BIT_DOMAIN, event))
            .is_some()
        {
            match self.cipher.decrypt_verified(addr, &tc) {
                Err(CryptoError::TagMismatch { .. }) => self.stats.tampers_detected += 1,
                _ => self.stats.silent_corruptions += 1,
            }
        }
    }
}

/// One scheme's independent virtual pipeline.
#[derive(Debug)]
struct SchemeLane {
    scheme: Scheme,
    engine: EnginePipeline,
    cache: CounterCache,
    /// Base of this lane's weight-page counter addresses (the owning
    /// tenant's counter window; 0 for the single-tenant server).
    weight_base: u64,
    /// Encrypted weight bytes streamed once per batch.
    weight_enc: u64,
    /// Counter pages the weight sweep touches per batch.
    weight_pages: u64,
    /// Bytes of data one counter line covers (from the lane's geometry).
    page_bytes: u64,
    /// Encrypted feature-map bytes per sample.
    fmap_enc: u64,
    /// Virtual cycle at which this lane finishes its last batch.
    free_at: u64,
    /// Cursor allocating fresh feature-map pages per batch.
    fmap_cursor: u64,
    /// Cursor allocating always-cold pages for injected miss storms.
    storm_cursor: u64,
    enc_bytes: u64,
    total_bytes: u64,
    batches: u64,
    samples: u64,
}

/// Final per-scheme accounting, one row per lane.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeSummary {
    /// The scheme this row describes.
    pub scheme: Scheme,
    /// Batches costed.
    pub batches: u64,
    /// Samples costed.
    pub samples: u64,
    /// Total bytes that passed the AES engine.
    pub enc_bytes: u64,
    /// Total bytes moved (encrypted + plain).
    pub total_bytes: u64,
    /// Virtual cycle at which the last batch finished.
    pub makespan_cycles: u64,
    /// Makespan converted to seconds at the configured clock.
    pub virtual_seconds: f64,
    /// Samples per virtual second.
    pub throughput_rps: f64,
    /// Counter-cache hit rate (0 for schemes without counters).
    pub counter_hit_rate: f64,
    /// Counter-cache hits, including read-only-region and prefetch hits.
    pub counter_hits: u64,
    /// Counter-cache demand misses (each priced one DRAM round trip).
    pub counter_misses: u64,
    /// Hits served by a line the next-line prefetcher brought in.
    pub prefetch_hits: u64,
    /// Lines the prefetcher fetched ahead of use (priced at the
    /// bandwidth-overlap rate, not the demand-miss rate).
    pub prefetch_fills: u64,
    /// Hits served by the pinned read-only weight window's shared major
    /// counter.
    pub ro_hits: u64,
    /// Makespan relative to the Baseline lane (1.0 = no slowdown).
    pub slowdown_vs_baseline: f64,
}

/// Prices every realized batch under the three schemes.
#[derive(Debug)]
pub struct CostModel {
    lanes: Vec<SchemeLane>,
    clock_ghz: f64,
    flops_per_sample: u64,
    flops_per_cycle: f64,
    /// Plain + encrypted bytes of one sample's feature maps.
    fmap_total: u64,
    /// Plain + encrypted weight bytes per batch.
    weight_total: u64,
    /// Armed when the server config carries a fault schedule.
    chaos: Option<ChaosState>,
}

/// The three lanes every server prices, in reporting order.
pub const COSTED_SCHEMES: [Scheme; 3] = [Scheme::Baseline, Scheme::SealCounter, Scheme::Counter];

impl CostModel {
    /// Builds the per-scheme lanes for `topo` under the server's SE ratio
    /// and hardware knobs.
    ///
    /// # Errors
    ///
    /// Propagates plan/traffic errors ([`ServeError::Core`]) and engine or
    /// counter-cache configuration errors ([`ServeError::Crypto`]).
    pub fn new(topo: &NetworkTopology, config: &ServerConfig) -> Result<Self, ServeError> {
        CostModel::build(topo, config, None)
    }

    /// [`CostModel::new`] with every virtual address — weight counter
    /// pages, streaming feature-map cursor, storm cursor and tamper
    /// targets — confined to `tenant`'s private counter window, and the
    /// chaos cipher replaced by the tenant's own key/nonce. Two tenants'
    /// cost models therefore never share a counter address or a keystream,
    /// which is the isolation property the multi-tenant server tests.
    ///
    /// # Errors
    ///
    /// Same as [`CostModel::new`].
    pub fn for_tenant(
        topo: &NetworkTopology,
        config: &ServerConfig,
        tenant: &TenantCrypto,
    ) -> Result<Self, ServeError> {
        CostModel::build(topo, config, Some(tenant))
    }

    pub(crate) fn build(
        topo: &NetworkTopology,
        config: &ServerConfig,
        tenant: Option<&TenantCrypto>,
    ) -> Result<Self, ServeError> {
        let base = tenant.map_or(0, |t| t.counter_base());
        // The dtype served is the dtype priced: an int8 deployment moves
        // one byte per element (plus the per-channel scale sideband), so
        // every lane's engine/counter traffic shrinks ~4× while the
        // encrypted *fractions* — a plan property — stay put.
        let dtype = if config.quantized {
            DType::Int8
        } else {
            DType::F32
        };
        let policy = SePolicy::paper_default().with_ratio(config.se_ratio);
        let plan = EncryptionPlan::from_topology(topo, policy)?;
        let weight_total = topo.total_weight_bytes_dt(dtype);
        let fmap_total: u64 = topo
            .layers()
            .iter()
            .map(|l| l.ifmap_bytes_dt(dtype) + l.ofmap_bytes_dt(dtype))
            .sum();

        let geometry = config.counter_geometry;
        let mut lanes = Vec::with_capacity(COSTED_SCHEMES.len());
        for scheme in COSTED_SCHEMES {
            let split = network_traffic_dt(topo, &plan, scheme, dtype)?;
            let weight_enc: u64 = split.iter().map(|l| l.weight_enc).sum();
            let fmap_enc: u64 = split.iter().map(|l| l.ifmap_enc + l.ofmap_enc).sum();
            let mut cc_cfg = geometry.cache_config(config.counter_cache_kb);
            let page_bytes = cc_cfg.coverage_bytes as u64;
            let weight_pages = weight_enc.div_ceil(page_bytes);
            // Pin this lane's weight window as a GuardNN-style read-only
            // region: the weights never change at serving time, so one
            // shared major counter covers the whole window and streaming
            // feature maps can never evict it. The window sits at the
            // tenant's counter base, far below the fmap/storm cursors, so
            // tenant windows stay disjoint by construction.
            if geometry.read_only_weights && weight_pages > 0 {
                cc_cfg = cc_cfg.with_read_only_region(base, weight_pages * page_bytes)?;
            }
            lanes.push(SchemeLane {
                scheme,
                engine: EnginePipeline::new(EngineSpec::seal_default(), config.clock_ghz)?,
                cache: CounterCache::new(cc_cfg)?,
                weight_base: base,
                weight_enc,
                weight_pages,
                page_bytes,
                fmap_enc,
                free_at: 0,
                fmap_cursor: base + FMAP_REGION_BASE,
                storm_cursor: base + STORM_REGION_BASE,
                enc_bytes: 0,
                total_bytes: 0,
                batches: 0,
                samples: 0,
            });
        }
        let chaos = match &config.faults {
            Some(fc) if fc.any_enabled() => Some(ChaosState {
                plan: FaultPlan::new(config.fault_seed, *fc)?,
                config: *fc,
                // Tamper round-trips run under the tenant's own key and
                // nonce when one is attached — tampering one tenant's
                // ciphertext can never involve another tenant's keystream.
                cipher: match tenant {
                    Some(t) => CtrCipher::new(Aes128::new(t.key()), t.nonce()),
                    None => CtrCipher::new(
                        Aes128::new(&Key128::from_seed(config.fault_seed)),
                        config.fault_seed ^ 0x5345_414C,
                    ),
                },
                payload: vec![0xA5; 64],
                stats: FaultStats::default(),
                addr_base: base,
            }),
            _ => None,
        };
        Ok(CostModel {
            lanes,
            clock_ghz: config.clock_ghz,
            flops_per_sample: topo.total_flops(),
            flops_per_cycle: config.flops_per_cycle,
            fmap_total,
            weight_total,
            chaos,
        })
    }

    /// Prices one batch of `batch` samples on every lane, advancing each
    /// lane's virtual clock.
    ///
    /// Under an armed chaos schedule the batch also crosses the plan's
    /// sample-periodic fault events: each tamper runs a *real*
    /// encrypt/flip/verify round-trip and its recovery re-fetch is priced
    /// through the counter lanes' engines with exponential backoff, so
    /// recovery cost shows up in lane throughput exactly like organic
    /// traffic would.
    pub fn cost_batch(&mut self, batch: usize) {
        let b = batch as u64;
        let compute =
            (self.flops_per_sample as f64 * b as f64 / self.flops_per_cycle).ceil() as u64;
        // Fault events crossed by this batch, identical for every lane
        // (all lanes advance the same sample counter in lockstep).
        let before = self.lanes.first().map_or(0, |l| l.samples);
        let events = self
            .chaos
            .as_mut()
            .map(|c| c.cross_batch(before, before + b))
            .unwrap_or_default();
        let per_stall = self.chaos_stall_cycles();
        let storm_pages = self.chaos_storm_pages();
        let mut recovery = (0u64, 0u64); // (count, cycles) over counter lanes
        let mut stall_cycles = 0u64;
        for lane in &mut self.lanes {
            let enc = lane.weight_enc + b * lane.fmap_enc;
            let arrival = lane.free_at;
            let counter_lane =
                matches!(lane.scheme, Scheme::Counter | Scheme::SealCounter) && enc > 0;
            if counter_lane && events.stalls > 0 {
                for _ in 0..events.stalls {
                    lane.engine.inject_stall(per_stall);
                }
                stall_cycles += events.stalls * per_stall;
            }
            // The 0-byte path keeps the Baseline lane's engine untouched;
            // each detected tamper costs one bounded re-fetch retry priced
            // with exponential backoff through the same pipeline.
            let mut done = if counter_lane && events.tampers > 0 {
                let cycles_before = lane.engine.recovery_cycles();
                let done = lane.engine.submit_with_recovery(
                    arrival,
                    enc,
                    events.tampers as u32,
                    RECOVERY_BASE_CYCLES,
                    RECOVERY_MAX_CYCLES,
                );
                recovery.0 += events.tampers;
                recovery.1 += lane.engine.recovery_cycles() - cycles_before;
                done
            } else {
                lane.engine.submit(arrival, enc)
            };
            if counter_lane {
                let fills_before = lane.cache.stats().prefetch_fills;
                let mut misses = lane.walk_counters(b);
                // A miss storm floods the counter cache with always-cold
                // pages: every one is a priced miss and an eviction.
                misses += lane.walk_storm(events.storms * storm_pages);
                let fills = lane.cache.stats().prefetch_fills - fills_before;
                done += misses * COUNTER_MISS_CYCLES + fills * PREFETCH_FILL_CYCLES;
            }
            lane.free_at = done + compute;
            lane.enc_bytes += enc;
            lane.total_bytes += self.weight_total + b * self.fmap_total;
            lane.batches += 1;
            lane.samples += b;
        }
        if let Some(c) = self.chaos.as_mut() {
            c.stats.recoveries += recovery.0;
            c.stats.recovery_cycles += recovery.1;
            c.stats.stall_cycles += stall_cycles;
        }
    }

    /// Injected/recovered fault accounting; `None` when no schedule is
    /// armed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.chaos.as_ref().map(|c| c.stats)
    }

    fn chaos_stall_cycles(&self) -> u64 {
        self.chaos.as_ref().map_or(0, |c| c.config.stall_cycles)
    }

    fn chaos_storm_pages(&self) -> u64 {
        self.chaos.as_ref().map_or(0, |c| c.config.storm_pages)
    }

    /// Per-scheme summaries in [`COSTED_SCHEMES`] order.
    pub fn summaries(&self) -> Vec<SchemeSummary> {
        let baseline = self
            .lanes
            .iter()
            .find(|l| l.scheme == Scheme::Baseline)
            .map(|l| l.free_at)
            .unwrap_or(0);
        self.lanes
            .iter()
            .map(|lane| {
                let seconds = lane.free_at as f64 / (self.clock_ghz * 1e9);
                let cc = lane.cache.stats();
                SchemeSummary {
                    scheme: lane.scheme,
                    batches: lane.batches,
                    samples: lane.samples,
                    enc_bytes: lane.enc_bytes,
                    total_bytes: lane.total_bytes,
                    makespan_cycles: lane.free_at,
                    virtual_seconds: seconds,
                    throughput_rps: if seconds > 0.0 {
                        lane.samples as f64 / seconds
                    } else {
                        0.0
                    },
                    counter_hit_rate: cc.hit_rate(),
                    counter_hits: cc.hits,
                    counter_misses: cc.misses,
                    prefetch_hits: cc.prefetch_hits,
                    prefetch_fills: cc.prefetch_fills,
                    ro_hits: cc.ro_hits,
                    slowdown_vs_baseline: if baseline > 0 {
                        lane.free_at as f64 / baseline as f64
                    } else {
                        1.0
                    },
                }
            })
            .collect()
    }
}

impl SchemeSummary {
    /// Rolls per-tenant lane rows up into one fleet row per scheme
    /// ([`COSTED_SCHEMES`] order): counts and bytes sum, the makespan is
    /// the *max* across tenants (tenant lanes run concurrently), the hit
    /// rate is recomputed from the summed hit/miss counts, and the
    /// slowdown compares total scheme cycles against total Baseline
    /// cycles. Used by the TCP front-end, whose report spans many
    /// tenants' cost models.
    pub fn aggregate(per_tenant: &[Vec<SchemeSummary>]) -> Vec<SchemeSummary> {
        let baseline_total: u64 = per_tenant
            .iter()
            .flat_map(|rows| rows.iter())
            .filter(|r| r.scheme == Scheme::Baseline)
            .map(|r| r.makespan_cycles)
            .sum();
        COSTED_SCHEMES
            .iter()
            .map(|&scheme| {
                let mut out = SchemeSummary {
                    scheme,
                    batches: 0,
                    samples: 0,
                    enc_bytes: 0,
                    total_bytes: 0,
                    makespan_cycles: 0,
                    virtual_seconds: 0.0,
                    throughput_rps: 0.0,
                    counter_hit_rate: 0.0,
                    counter_hits: 0,
                    counter_misses: 0,
                    prefetch_hits: 0,
                    prefetch_fills: 0,
                    ro_hits: 0,
                    slowdown_vs_baseline: 1.0,
                };
                let mut scheme_total = 0u64;
                for row in per_tenant.iter().flat_map(|rows| rows.iter()) {
                    if row.scheme != scheme {
                        continue;
                    }
                    out.batches += row.batches;
                    out.samples += row.samples;
                    out.enc_bytes += row.enc_bytes;
                    out.total_bytes += row.total_bytes;
                    out.counter_hits += row.counter_hits;
                    out.counter_misses += row.counter_misses;
                    out.prefetch_hits += row.prefetch_hits;
                    out.prefetch_fills += row.prefetch_fills;
                    out.ro_hits += row.ro_hits;
                    scheme_total += row.makespan_cycles;
                    if row.makespan_cycles > out.makespan_cycles {
                        out.makespan_cycles = row.makespan_cycles;
                        out.virtual_seconds = row.virtual_seconds;
                    }
                }
                let accesses = out.counter_hits + out.counter_misses;
                if accesses > 0 {
                    out.counter_hit_rate = out.counter_hits as f64 / accesses as f64;
                }
                if out.virtual_seconds > 0.0 {
                    out.throughput_rps = out.samples as f64 / out.virtual_seconds;
                }
                if baseline_total > 0 {
                    out.slowdown_vs_baseline = scheme_total as f64 / baseline_total as f64;
                }
                out
            })
            .collect()
    }
}

impl SchemeLane {
    /// Exclusive end of this lane's weight counter window.
    fn weight_window_end(&self) -> u64 {
        self.weight_base + self.weight_pages * self.page_bytes
    }

    /// Walks the counter cache for one batch: the weight window is one
    /// batched [`access_run`] over stable addresses (pinned read-only
    /// under the tuned geometry — warm after batch 1), feature-map pages
    /// stream through fresh addresses (cold, but the prefetcher runs
    /// ahead of them, and the same call prices the whole stream without
    /// visiting its pages). Returns the demand-miss count.
    ///
    /// [`access_run`]: CounterCache::access_run
    fn walk_counters(&mut self, batch: u64) -> u64 {
        let mut misses = self.cache.access_run(self.weight_base, self.weight_pages).misses;
        let fmap_pages = (batch * self.fmap_enc).div_ceil(self.page_bytes);
        // The streaming cursor must never wander into the weight counter
        // window — that would let feature-map traffic alias (and, without
        // pinning, evict) the weight counters of its own tenant.
        debug_assert!(
            fmap_pages == 0 || self.fmap_cursor >= self.weight_window_end(),
            "fmap cursor {:#x} aliases the weight window [{:#x}, {:#x})",
            self.fmap_cursor,
            self.weight_base,
            self.weight_window_end()
        );
        misses += self.cache.access_run(self.fmap_cursor, fmap_pages).misses;
        self.fmap_cursor += fmap_pages * self.page_bytes;
        misses
    }

    /// An injected miss storm: `pages` never-before-seen counter pages
    /// sweep through the cache, each a guaranteed miss that also evicts a
    /// resident line. The cursor strides *two* pages so the next-line
    /// prefetcher can never cover a storm — storms model scattered cold
    /// counters, not a well-behaved stream. Returns the miss count
    /// (== `pages`).
    fn walk_storm(&mut self, pages: u64) -> u64 {
        debug_assert!(
            pages == 0 || self.storm_cursor >= self.weight_window_end(),
            "storm cursor {:#x} aliases the weight window [{:#x}, {:#x})",
            self.storm_cursor,
            self.weight_base,
            self.weight_window_end()
        );
        let mut misses = 0u64;
        for _ in 0..pages {
            if !self.cache.access(self.storm_cursor) {
                misses += 1;
            }
            self.storm_cursor += 2 * self.page_bytes;
        }
        misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_nn::models::vgg16_topology;

    fn model() -> CostModel {
        let cfg = ServerConfig::smoke();
        CostModel::new(&vgg16_topology(), &cfg).unwrap()
    }

    fn by_scheme(rows: &[SchemeSummary], s: Scheme) -> SchemeSummary {
        rows.iter().find(|r| r.scheme == s).cloned().unwrap()
    }

    #[test]
    fn schemes_order_strictly_for_any_batch_stream() {
        let mut m = model();
        for b in [1usize, 4, 2, 8, 1, 3] {
            m.cost_batch(b);
        }
        let rows = m.summaries();
        let base = by_scheme(&rows, Scheme::Baseline);
        let seal = by_scheme(&rows, Scheme::SealCounter);
        let full = by_scheme(&rows, Scheme::Counter);
        assert!(
            base.makespan_cycles < seal.makespan_cycles
                && seal.makespan_cycles < full.makespan_cycles,
            "cycles must order Baseline < SEAL-C < Counter: {} {} {}",
            base.makespan_cycles,
            seal.makespan_cycles,
            full.makespan_cycles
        );
        assert!(
            base.throughput_rps > seal.throughput_rps
                && seal.throughput_rps > full.throughput_rps,
            "throughput must order Baseline > SEAL-C > Counter"
        );
        assert_eq!(base.enc_bytes, 0);
        assert!(seal.enc_bytes < full.enc_bytes);
        assert_eq!(base.total_bytes, full.total_bytes);
        assert_eq!(base.samples, 19);
    }

    #[test]
    fn batching_amortises_encrypted_weight_streaming() {
        // Same 8 samples as 8 singleton batches vs one batch of 8: the
        // batched run streams encrypted weights once instead of 8 times,
        // so its SEAL-C makespan must be smaller.
        let mut singles = model();
        for _ in 0..8 {
            singles.cost_batch(1);
        }
        let mut batched = model();
        batched.cost_batch(8);
        let s = by_scheme(&singles.summaries(), Scheme::SealCounter);
        let b = by_scheme(&batched.summaries(), Scheme::SealCounter);
        assert_eq!(s.samples, b.samples);
        assert!(
            b.makespan_cycles < s.makespan_cycles,
            "batched {} vs singles {}",
            b.makespan_cycles,
            s.makespan_cycles
        );
    }

    #[test]
    fn weight_counters_hit_across_batches() {
        // VGG-16's encrypted weight sweep is far larger than the counter
        // cache, so it thrashes; the MLP's weight pages fit, which is what
        // exposes the stable-address reuse across batches.
        use seal_nn::models::{mlp_topology, MlpConfig};
        use seal_tensor::Shape;
        let topo = mlp_topology(&MlpConfig::reduced(), Shape::nchw(1, 3, 8, 8)).unwrap();
        let mut m = CostModel::new(&topo, &ServerConfig::smoke()).unwrap();
        for _ in 0..4 {
            m.cost_batch(1);
        }
        let seal = by_scheme(&m.summaries(), Scheme::SealCounter);
        assert!(
            seal.counter_hit_rate > 0.0,
            "stable weight pages must produce counter hits, got {}",
            seal.counter_hit_rate
        );
        // The baseline lane never touches its counter cache.
        let base = by_scheme(&m.summaries(), Scheme::Baseline);
        assert_eq!(base.counter_hit_rate, 0.0);
    }

    #[test]
    fn slowdown_is_relative_to_baseline() {
        let mut m = model();
        m.cost_batch(4);
        let rows = m.summaries();
        let base = by_scheme(&rows, Scheme::Baseline);
        let full = by_scheme(&rows, Scheme::Counter);
        assert!((base.slowdown_vs_baseline - 1.0).abs() < f64::EPSILON);
        assert!(full.slowdown_vs_baseline > 1.0);
    }

    fn chaos_model(seed: u64) -> CostModel {
        let cfg = ServerConfig::chaos_smoke(seed);
        CostModel::new(&vgg16_topology(), &cfg).unwrap()
    }

    #[test]
    fn chaos_faults_are_deterministic_and_never_silent() {
        let mut a = chaos_model(11);
        let mut b = chaos_model(11);
        for batch in [4usize, 1, 3, 4, 2, 4, 4, 1, 4, 4, 4, 2] {
            a.cost_batch(batch);
        }
        // Different batch composition, same 37 samples: sample-periodic
        // fault crossings must not care how the stream was batched.
        for batch in [1usize, 1, 2, 4, 4, 4, 4, 4, 4, 4, 4, 1] {
            b.cost_batch(batch);
        }
        let (sa, sb) = (a.fault_stats().unwrap(), b.fault_stats().unwrap());
        // Recovery *cycles* depend on how tampers group into batches (the
        // backoff attempt counter restarts per batch), so only the event
        // counts are part of the determinism contract — the same set the
        // chaos smoke compares across runs.
        let counts = |s: FaultStats| FaultStats {
            recovery_cycles: 0,
            ..s
        };
        assert_eq!(
            counts(sa),
            counts(sb),
            "fault event accounting is batch-composition invariant"
        );
        assert!(sa.tampers_injected > 0, "37 samples at period 5 must tamper");
        assert_eq!(sa.tampers_detected, sa.tampers_injected);
        assert_eq!(sa.silent_corruptions, 0, "every tamper caught by its MAC");
        assert!(sa.stalls_injected > 0 && sa.storms_injected > 0);
        assert_eq!(sa.recoveries, 2 * sa.tampers_injected, "both counter lanes");
        assert!(sa.recovery_cycles > 0 && sa.stall_cycles > 0);
    }

    #[test]
    fn fault_recovery_cost_is_visible_in_lane_makespan() {
        let mut clean = model();
        let mut chaotic = chaos_model(11);
        for _ in 0..10 {
            clean.cost_batch(4);
            chaotic.cost_batch(4);
        }
        let c = by_scheme(&clean.summaries(), Scheme::Counter);
        let f = by_scheme(&chaotic.summaries(), Scheme::Counter);
        assert!(
            f.makespan_cycles > c.makespan_cycles,
            "stalls/recoveries/storms must slow the counter lane: {} vs {}",
            f.makespan_cycles,
            c.makespan_cycles
        );
        // Chaos pricing never touches the unencrypted baseline lane.
        let cb = by_scheme(&clean.summaries(), Scheme::Baseline);
        let fb = by_scheme(&chaotic.summaries(), Scheme::Baseline);
        assert_eq!(cb.makespan_cycles, fb.makespan_cycles);
    }

    #[test]
    fn tenant_chaos_never_perturbs_another_tenants_lanes() {
        use seal_crypto::TenantCrypto;
        // Tenant B prices the identical batch stream twice: once while
        // tenant A sits idle, once while tenant A's cost model runs a full
        // tamper/stall/storm chaos schedule. B's accounting — makespans,
        // hit rates, byte counts — must be bitwise identical either way,
        // and every tamper against A must be caught by A's own MAC.
        let chaos_cfg = ServerConfig::chaos_smoke(13);
        let clean_cfg = ServerConfig {
            faults: None,
            ..chaos_cfg.clone()
        };
        let ta = TenantCrypto::derive(9, 0).unwrap();
        let tb = TenantCrypto::derive(9, 1).unwrap();
        let run = |tamper_a: bool| {
            let a_cfg = if tamper_a { &chaos_cfg } else { &clean_cfg };
            let mut a = CostModel::for_tenant(&vgg16_topology(), a_cfg, &ta).unwrap();
            let mut b = CostModel::for_tenant(&vgg16_topology(), &clean_cfg, &tb).unwrap();
            for batch in [4usize, 1, 3, 4, 2, 4] {
                a.cost_batch(batch);
                b.cost_batch(batch);
            }
            (a.fault_stats(), b.summaries())
        };
        let (a_idle, b_while_idle) = run(false);
        let (a_chaos, b_while_chaos) = run(true);
        assert!(a_idle.is_none());
        let f = a_chaos.expect("chaos armed on tenant A");
        assert!(f.tampers_injected > 0, "schedule must actually tamper");
        assert_eq!(f.tampers_detected, f.tampers_injected);
        assert_eq!(f.silent_corruptions, 0, "A's own MAC catches every tamper");
        assert_eq!(
            b_while_idle, b_while_chaos,
            "tampering tenant A must not move tenant B's accounting"
        );
    }

    #[test]
    fn int8_lanes_outrun_their_f32_counterparts_per_scheme() {
        // Same batch stream priced at f32 and int8: every encrypting lane
        // moves ~4× fewer bytes, so its makespan shrinks and throughput
        // rises, while the Baseline lane (0 encrypted bytes, identical
        // compute) only sheds plain-traffic accounting. The scheme
        // *ordering* must hold within each dtype.
        let mut f32_model = model();
        let q_cfg = ServerConfig {
            quantized: true,
            ..ServerConfig::smoke()
        };
        let mut q_model = CostModel::new(&vgg16_topology(), &q_cfg).unwrap();
        for b in [4usize, 8, 1, 8, 3] {
            f32_model.cost_batch(b);
            q_model.cost_batch(b);
        }
        let f_rows = f32_model.summaries();
        let q_rows = q_model.summaries();
        for scheme in COSTED_SCHEMES {
            let f = by_scheme(&f_rows, scheme);
            let q = by_scheme(&q_rows, scheme);
            assert_eq!(f.samples, q.samples);
            // ~4× fewer total bytes (scale sidebands keep it above 3×).
            assert!(
                q.total_bytes * 3 < f.total_bytes,
                "{scheme:?}: int8 total {} vs f32 {}",
                q.total_bytes,
                f.total_bytes
            );
            if scheme == Scheme::Baseline {
                assert_eq!(q.enc_bytes, 0);
            } else {
                assert!(
                    q.enc_bytes * 3 < f.enc_bytes,
                    "{scheme:?}: int8 enc {} vs f32 {}",
                    q.enc_bytes,
                    f.enc_bytes
                );
                assert!(
                    q.makespan_cycles < f.makespan_cycles,
                    "{scheme:?}: int8 must finish sooner ({} vs {})",
                    q.makespan_cycles,
                    f.makespan_cycles
                );
                assert!(q.throughput_rps > f.throughput_rps);
            }
        }
        // Within the int8 run the paper's ordering is preserved.
        let base = by_scheme(&q_rows, Scheme::Baseline);
        let seal = by_scheme(&q_rows, Scheme::SealCounter);
        let full = by_scheme(&q_rows, Scheme::Counter);
        assert!(base.makespan_cycles < seal.makespan_cycles);
        assert!(seal.makespan_cycles < full.makespan_cycles);
    }

    #[test]
    fn quiescent_faults_leave_the_cost_model_unarmed() {
        let mut cfg = ServerConfig::smoke();
        cfg.faults = Some(seal_faults::FaultConfig::quiescent());
        let m = CostModel::new(&vgg16_topology(), &cfg).unwrap();
        assert!(m.fault_stats().is_none());
    }
}


#[cfg(test)]
mod locality_tests {
    //! Satellite coverage for the counter-locality overhaul: a Fig.
    //! 1-style capacity sweep, the tuned-geometry smoke win, and the
    //! pinned-window-vs-chaos-storm property.

    use super::*;
    use seal_crypto::CounterGeometry;
    use seal_nn::models::vgg16_topology;

    fn by_scheme(rows: &[SchemeSummary], s: Scheme) -> SchemeSummary {
        rows.iter().find(|r| r.scheme == s).cloned().unwrap()
    }

    /// Fig. 1-style sensitivity sweep under the *classic* (pre-overhaul)
    /// split geometry: hit rate must be monotone non-decreasing in
    /// capacity, thrash to zero when the weight window dwarfs the cache,
    /// and clear 0.9 once 1536 KB covers the working set — the paper's
    /// Fig. 6-8 shape.
    #[test]
    fn classic_hit_rate_is_monotone_in_capacity_and_saturates() {
        let topo = vgg16_topology();
        let mut rates = Vec::new();
        for kb in [24usize, 96, 384, 768, 1536] {
            let cfg = ServerConfig {
                counter_cache_kb: kb,
                counter_geometry: CounterGeometry::classic(),
                ..ServerConfig::smoke()
            };
            let mut m = CostModel::new(&topo, &cfg).unwrap();
            for _ in 0..200 {
                m.cost_batch(1);
            }
            rates.push((kb, by_scheme(&m.summaries(), Scheme::Counter).counter_hit_rate));
        }
        for pair in rates.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1,
                "hit rate must be monotone in capacity: {rates:?}"
            );
        }
        assert_eq!(rates[0].1, 0.0, "24 KB must thrash on the smoke walk");
        assert!(
            rates.last().unwrap().1 > 0.9,
            "1536 KB must exceed 0.9 on the smoke workload: {rates:?}"
        );
    }

    /// The tuned geometry (read-only weight window + prefetcher) is the
    /// smoke default and must beat both the recorded 4.238x Counter-lane
    /// slowdown and the 0.5 hit-rate floor from the acceptance criteria.
    #[test]
    fn tuned_geometry_fixes_the_counter_lane_on_smoke() {
        let mut m = CostModel::new(&vgg16_topology(), &ServerConfig::smoke()).unwrap();
        for _ in 0..25 {
            m.cost_batch(4);
        }
        let rows = m.summaries();
        let seal = by_scheme(&rows, Scheme::SealCounter);
        let full = by_scheme(&rows, Scheme::Counter);
        for r in [&seal, &full] {
            assert!(
                r.counter_hit_rate >= 0.5,
                "{:?} hit rate {} below the 0.5 floor",
                r.scheme,
                r.counter_hit_rate
            );
            assert!(r.ro_hits > 0, "weight window never pinned for {:?}", r.scheme);
            assert!(
                r.prefetch_hits > 0,
                "fmap stream never hit a prefetched line for {:?}",
                r.scheme
            );
        }
        assert!(
            full.slowdown_vs_baseline < 4.238,
            "Counter lane regressed: {}",
            full.slowdown_vs_baseline
        );
        assert!(
            seal.slowdown_vs_baseline < full.slowdown_vs_baseline,
            "SEAL-C must stay cheaper than full Counter"
        );
    }

    /// Chaos miss-storms stream through an always-cold region; the
    /// pinned read-only weight window must be untouched by them, so the
    /// counter lanes stay warm even under sustained storms. (The storm
    /// and fmap cursor debug-asserts also run here.)
    #[test]
    fn chaos_storms_cannot_cool_the_pinned_weight_window() {
        let cfg = ServerConfig::chaos_smoke(7);
        let mut m = CostModel::new(&vgg16_topology(), &cfg).unwrap();
        for _ in 0..40 {
            m.cost_batch(2);
        }
        let stats = m.fault_stats().expect("chaos armed");
        assert!(stats.storms_injected > 0, "plan must actually inject storms");
        let full = by_scheme(&m.summaries(), Scheme::Counter);
        assert!(
            full.counter_hit_rate >= 0.5,
            "storms must not evict the pinned window: hit rate {}",
            full.counter_hit_rate
        );
        assert!(full.ro_hits > 0);
    }
}
