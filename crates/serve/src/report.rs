//! The JSON serving report and its smoke-test acceptance checks.
//!
//! Reports are rendered with the same hand-rolled JSON writer idiom the
//! rest of the workspace uses (the toolchain is hermetic — no serde), and
//! land under `results/serve_*.json` so the reproduction scripts can diff
//! scheme columns across runs.

use std::io::Write as _;
use std::path::Path;

use seal_core::Scheme;
use seal_nn::NetworkTopology;

use crate::cost::{CostModel, SchemeSummary};
use crate::loadgen::{ChaosReport, LoadReport};
use crate::server::ServeStats;
use crate::{ServeError, ServerConfig, COSTED_SCHEMES};

/// One virtual lane priced at f32 and at int8: the same scheme, the same
/// batch stream, two numeric formats. The delta *is* the SEAL lane
/// economics of quantization — int8 moves ~4× fewer bytes through the AES
/// engine, so every encrypting lane's makespan shrinks while the
/// encrypted fraction (a plan property) stays put.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantLaneDelta {
    /// The scheme both rows describe.
    pub scheme: Scheme,
    /// The lane priced at f32 traffic.
    pub f32_lane: SchemeSummary,
    /// The lane priced at int8 traffic.
    pub int8_lane: SchemeSummary,
}

impl QuantLaneDelta {
    /// int8 over f32 encrypted bytes (≈0.25; the per-channel scale
    /// sideband keeps it slightly above an exact quarter). `0` when the
    /// f32 lane encrypts nothing (Baseline).
    pub fn enc_bytes_ratio(&self) -> f64 {
        if self.f32_lane.enc_bytes > 0 {
            self.int8_lane.enc_bytes as f64 / self.f32_lane.enc_bytes as f64
        } else {
            0.0
        }
    }

    /// int8 over f32 lane makespan (`< 1` on encrypting lanes; ≈1 on the
    /// Baseline lane, whose cycles are pure compute).
    pub fn makespan_ratio(&self) -> f64 {
        if self.f32_lane.makespan_cycles > 0 {
            self.int8_lane.makespan_cycles as f64 / self.f32_lane.makespan_cycles as f64
        } else {
            1.0
        }
    }
}

/// Throughput of the same smoke workload served through the f32 compiled
/// plan vs the int8 quantized plan, plus the per-scheme virtual-lane
/// deltas: of the two served passes (reported), and of one reference
/// batch priced through both cost models (gated).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantComparison {
    /// Client-observed throughput with the f32 plan (`quantized = false`).
    pub f32_rps: f64,
    /// Client-observed throughput with the int8 plan (`quantized = true`).
    pub int8_rps: f64,
    /// Per-scheme lane totals of the two served passes, f32 and int8 side
    /// by side, in [`COSTED_SCHEMES`] order. How many batches each pass
    /// cut its requests into follows the wall clock, and every batch
    /// streams the weights once, so these totals are reported, not gated.
    pub lanes: Vec<QuantLaneDelta>,
    /// The same lane pairs for one batch of `max_batch` samples priced
    /// through fresh cost models ([`QuantComparison::reference_lanes`]): a
    /// function of the cost model alone, which is what the smoke gate
    /// checks.
    pub reference: Vec<QuantLaneDelta>,
}

impl QuantComparison {
    /// Prices one batch of `config.max_batch` samples of `topology`
    /// through an f32 and an int8 cost model and pairs the lanes, in
    /// [`COSTED_SCHEMES`] order.
    ///
    /// # Errors
    ///
    /// Whatever [`CostModel::new`] rejects in `config`.
    pub fn reference_lanes(
        topology: &NetworkTopology,
        config: &ServerConfig,
    ) -> Result<Vec<QuantLaneDelta>, ServeError> {
        let price = |quantized: bool| -> Result<Vec<SchemeSummary>, ServeError> {
            let config = ServerConfig {
                quantized,
                ..config.clone()
            };
            let mut cost = CostModel::new(topology, &config)?;
            cost.cost_batch(config.max_batch);
            Ok(cost.summaries())
        };
        let (f32_rows, int8_rows) = (price(false)?, price(true)?);
        Ok(COSTED_SCHEMES
            .iter()
            .filter_map(|&scheme| {
                Some(QuantLaneDelta {
                    scheme,
                    f32_lane: scheme_row(&f32_rows, scheme)?.clone(),
                    int8_lane: scheme_row(&int8_rows, scheme)?.clone(),
                })
            })
            .collect())
    }

    /// int8 over f32 client throughput (`> 1` means quantization won
    /// end to end).
    pub fn speedup(&self) -> f64 {
        if self.f32_rps > 0.0 {
            self.int8_rps / self.f32_rps
        } else {
            0.0
        }
    }
}

/// Everything one serving run produced: the configuration, the client-side
/// load-generator view and the server-side runtime + cost-model view.
#[derive(Debug)]
pub struct ServeReport {
    /// Configuration the server ran with.
    pub config: ServerConfig,
    /// Client-side observations from the load generator.
    pub load: LoadReport,
    /// Server-side statistics collected at shutdown.
    pub stats: ServeStats,
    /// f32-vs-int8 planned measurement (smoke runs only).
    pub quant_comparison: Option<QuantComparison>,
}

impl ServeReport {
    /// Renders the full report as a JSON object string.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"model\": \"{}\",\n",
            json_escape(&self.config.model)
        ));
        out.push_str("  \"config\": {\n");
        out.push_str(&format!("    \"workers\": {},\n", self.config.workers));
        out.push_str(&format!("    \"max_batch\": {},\n", self.config.max_batch));
        out.push_str(&format!(
            "    \"batch_deadline_us\": {},\n",
            self.config.batch_deadline.as_micros()
        ));
        out.push_str(&format!(
            "    \"queue_capacity\": {},\n",
            self.config.queue_capacity
        ));
        out.push_str(&format!("    \"se_ratio\": {},\n", self.config.se_ratio));
        out.push_str(&format!("    \"clock_ghz\": {},\n", self.config.clock_ghz));
        out.push_str(&format!(
            "    \"counter_cache_kb\": {},\n",
            self.config.counter_cache_kb
        ));
        out.push_str(&format!(
            "    \"flops_per_cycle\": {},\n",
            self.config.flops_per_cycle
        ));
        out.push_str(&format!("    \"seed\": {},\n", self.config.seed));
        out.push_str(&format!("    \"quantized\": {}\n", self.config.quantized));
        out.push_str("  },\n");

        // Which kernels ran: stated in the `quant` and `server` blocks.
        let kernel = format!(
            "    \"kernel_mode\": \"{}\",\n    \"int8_kernel\": \"{}\",\n",
            self.stats.kernel_mode, self.stats.int8_kernel
        );
        if let Some(q) = &self.quant_comparison {
            out.push_str("  \"quant\": {\n");
            out.push_str(&format!(
                "    \"f32_throughput_rps\": {:.3},\n",
                q.f32_rps
            ));
            out.push_str(&format!(
                "    \"int8_throughput_rps\": {:.3},\n",
                q.int8_rps
            ));
            out.push_str(&format!("    \"speedup\": {:.3},\n", q.speedup()));
            out.push_str(&kernel);
            out.push_str("    \"lanes\": ");
            out.push_str(&lanes_json(&q.lanes));
            out.push_str(",\n    \"reference_batch_lanes\": ");
            out.push_str(&lanes_json(&q.reference));
            out.push('\n');
            out.push_str("  },\n");
        }

        out.push_str("  \"load\": {\n");
        out.push_str(&format!("    \"mode\": \"{}\",\n", self.load.mode.name()));
        out.push_str(&format!("    \"requested\": {},\n", self.load.requested));
        out.push_str(&format!("    \"completed\": {},\n", self.load.completed));
        out.push_str(&format!("    \"rejected\": {},\n", self.load.rejected));
        out.push_str(&format!(
            "    \"wall_seconds\": {:.6},\n",
            self.load.wall_seconds
        ));
        out.push_str(&format!(
            "    \"observed_throughput_rps\": {:.3},\n",
            self.load.observed_throughput_rps
        ));
        out.push_str("    \"latency_us\": ");
        out.push_str(&latency_json(&self.load.latency));
        out.push('\n');
        out.push_str("  },\n");

        out.push_str("  \"server\": {\n");
        out.push_str(&kernel);
        out.push_str("    \"latency_us\": ");
        out.push_str(&latency_json(&self.stats.latency));
        out.push_str(",\n");
        out.push_str(&format!(
            "    \"batches\": {{ \"count\": {}, \"samples\": {}, \"mean_size\": {:.3}, \"max_size\": {} }},\n",
            self.stats.batches.batches,
            self.stats.batches.samples,
            self.stats.batches.mean(),
            self.stats.batches.max_batch
        ));
        out.push_str(&format!(
            "    \"queue_depth\": {{ \"samples\": {}, \"mean\": {:.3}, \"max\": {} }},\n",
            self.stats.queue_depth.samples,
            self.stats.queue_depth.mean(),
            self.stats.queue_depth.depth_max
        ));
        out.push_str(&format!(
            "    \"worker_errors\": {},\n",
            self.stats.worker_errors.len()
        ));
        out.push_str(&format!("    \"shed\": {},\n", self.stats.shed));
        out.push_str(&format!("    \"panicked\": {},\n", self.stats.panicked));
        out.push_str(&format!("    \"drained\": {},\n", self.stats.drained));
        out.push_str(&format!(
            "    \"supervision\": {{ \"panics\": {}, \"respawns\": {}, \"quarantined\": {} }},\n",
            self.stats.supervision.panics,
            self.stats.supervision.respawns,
            self.stats.supervision.quarantined
        ));
        out.push_str(&format!(
            "    \"breaker\": {{ \"trips\": {}, \"rejections\": {}, \"probes\": {} }}\n",
            self.stats.breaker.trips, self.stats.breaker.rejections, self.stats.breaker.probes
        ));
        out.push_str("  },\n");

        if let Some(f) = &self.stats.faults {
            out.push_str("  \"faults\": {\n");
            out.push_str(&format!(
                "    \"tampers_injected\": {},\n",
                f.tampers_injected
            ));
            out.push_str(&format!(
                "    \"tampers_detected\": {},\n",
                f.tampers_detected
            ));
            out.push_str(&format!(
                "    \"silent_corruptions\": {},\n",
                f.silent_corruptions
            ));
            out.push_str(&format!("    \"stalls_injected\": {},\n", f.stalls_injected));
            out.push_str(&format!("    \"storms_injected\": {},\n", f.storms_injected));
            out.push_str(&format!("    \"recoveries\": {},\n", f.recoveries));
            out.push_str(&format!("    \"recovery_cycles\": {},\n", f.recovery_cycles));
            out.push_str(&format!("    \"stall_cycles\": {}\n", f.stall_cycles));
            out.push_str("  },\n");
        }

        out.push_str("  \"schemes\": [\n");
        for (i, s) in self.stats.schemes.iter().enumerate() {
            out.push_str(&scheme_json(s, "    "));
            out.push_str(if i + 1 < self.stats.schemes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Writes the JSON report to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }

    /// Checks the smoke-run acceptance properties and returns every
    /// violation (empty = the run is acceptable):
    ///
    /// * some requests completed and client throughput is positive,
    /// * latency percentiles are ordered (`p50 <= p99`),
    /// * no worker errors,
    /// * the SE scheme column ordering holds on the virtual lanes —
    ///   Baseline throughput > SEAL-C throughput > Counter throughput.
    pub fn smoke_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.load.completed == 0 {
            violations.push("no requests completed".to_string());
        }
        if self.load.observed_throughput_rps <= 0.0 {
            violations.push(format!(
                "observed throughput {} must be positive",
                self.load.observed_throughput_rps
            ));
        }
        let (p50, p99) = (self.load.latency.p50(), self.load.latency.p99());
        if p50 > p99 {
            violations.push(format!("latency p50 {p50}us exceeds p99 {p99}us"));
        }
        if !self.stats.worker_errors.is_empty() {
            let joined = self
                .stats
                .worker_errors
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            violations.push(format!(
                "{} worker errors: {joined}",
                self.stats.worker_errors.len()
            ));
        }
        if let Some(f) = &self.stats.faults {
            if f.silent_corruptions > 0 {
                violations.push(format!(
                    "{} injected tampers decrypted silently (MAC must catch every one)",
                    f.silent_corruptions
                ));
            }
            if f.tampers_detected != f.tampers_injected {
                violations.push(format!(
                    "tamper accounting broken: {} injected, {} detected",
                    f.tampers_injected, f.tampers_detected
                ));
            }
        }
        match (
            scheme_row(&self.stats.schemes, Scheme::Baseline),
            scheme_row(&self.stats.schemes, Scheme::SealCounter),
            scheme_row(&self.stats.schemes, Scheme::Counter),
        ) {
            (Some(base), Some(seal), Some(full)) => {
                if !(base.throughput_rps > seal.throughput_rps
                    && seal.throughput_rps > full.throughput_rps)
                {
                    violations.push(format!(
                        "scheme throughput not strictly ordered: {} ({}) vs {} ({}) vs {} ({})",
                        base.scheme.label(),
                        base.throughput_rps,
                        seal.scheme.label(),
                        seal.throughput_rps,
                        full.scheme.label(),
                        full.throughput_rps
                    ));
                }
            }
            _ => violations.push("report is missing scheme rows".to_string()),
        }
        if let Some(q) = &self.quant_comparison {
            // The reference-batch deltas are a function of the cost model
            // alone, so they are checked exactly. The served totals are
            // not: each pass cuts its requests into however many batches
            // the wall clock allows (25 against 40 is ordinary) and every
            // batch streams the weights again, so their ratio moves with
            // the host. They and the wall-clock rps pair are reported but
            // not gated — the kernel speedup is pinned by `bench_quant`.
            for (name, lanes) in [("served", &q.lanes), ("reference", &q.reference)] {
                if lanes.len() != COSTED_SCHEMES.len() {
                    violations.push(format!(
                        "quant comparison has {} {name} lanes, expected {}",
                        lanes.len(),
                        COSTED_SCHEMES.len()
                    ));
                }
            }
            for lane in &q.reference {
                if lane.f32_lane.enc_bytes == 0 {
                    if lane.int8_lane.enc_bytes != 0 {
                        violations.push(format!(
                            "{}: int8 lane encrypts {} bytes where f32 encrypts none",
                            lane.scheme.label(),
                            lane.int8_lane.enc_bytes
                        ));
                    }
                    continue;
                }
                if lane.int8_lane.enc_bytes * 3 >= lane.f32_lane.enc_bytes {
                    violations.push(format!(
                        "{}: int8 enc bytes {} not ~4x below f32 {}",
                        lane.scheme.label(),
                        lane.int8_lane.enc_bytes,
                        lane.f32_lane.enc_bytes
                    ));
                }
                if lane.int8_lane.makespan_cycles >= lane.f32_lane.makespan_cycles {
                    violations.push(format!(
                        "{}: int8 lane makespan {} not below f32 {}",
                        lane.scheme.label(),
                        lane.int8_lane.makespan_cycles,
                        lane.f32_lane.makespan_cycles
                    ));
                }
            }
        }
        violations
    }
}

fn scheme_row(rows: &[SchemeSummary], s: Scheme) -> Option<&SchemeSummary> {
    rows.iter().find(|r| r.scheme == s)
}

/// One chaos run: the client-side outcome classification plus the
/// server-side shutdown statistics.
#[derive(Debug)]
pub struct ChaosRun {
    /// What the chaos load generator observed.
    pub load: ChaosReport,
    /// What the server reported at shutdown.
    pub stats: ServeStats,
}

impl ChaosRun {
    /// The seed-deterministic counters of this run, by stable name.
    /// Timing-dependent observations (wall seconds, virtual makespans,
    /// per-batch recovery-cycle grouping) are deliberately excluded — the
    /// chaos determinism check compares exactly these pairs.
    pub fn deterministic_counts(&self) -> Vec<(&'static str, u64)> {
        let f = self.stats.faults.unwrap_or_default();
        vec![
            ("requested", self.load.requested as u64),
            ("completed", self.load.completed as u64),
            ("shed", self.load.shed as u64),
            ("panicked", self.load.panicked as u64),
            ("oversized_rejected", self.load.oversized_rejected as u64),
            ("breaker_rejected", self.load.breaker_rejected as u64),
            ("injected_worker_panics", self.load.injected.worker_panics),
            ("injected_oversized", self.load.injected.oversized),
            ("injected_slow", self.load.injected.slow),
            ("injected_deadline_busts", self.load.injected.deadline_busts),
            ("tampers_injected", f.tampers_injected),
            ("tampers_detected", f.tampers_detected),
            ("silent_corruptions", f.silent_corruptions),
            ("stalls_injected", f.stalls_injected),
            ("storms_injected", f.storms_injected),
            ("recoveries", f.recoveries),
            ("supervisor_panics", self.stats.supervision.panics),
            ("supervisor_respawns", self.stats.supervision.respawns),
        ]
    }

    /// The liveness/integrity violations of this single run.
    fn violations(&self, label: &str) -> Vec<String> {
        let mut v = Vec::new();
        if !self.load.fully_accounted() {
            v.push(format!("{label}: outcomes do not account for every request: {:?}", self.load));
        }
        if self.load.timeouts > 0 {
            v.push(format!("{label}: {} requests hung past the bounded wait", self.load.timeouts));
        }
        if self.load.lost > 0 {
            v.push(format!("{label}: {} requests vanished without a typed answer", self.load.lost));
        }
        if self.load.shed != self.load.injected.deadline_busts as usize {
            v.push(format!(
                "{label}: shed {} != injected deadline busts {}",
                self.load.shed, self.load.injected.deadline_busts
            ));
        }
        if self.load.panicked != self.load.injected.worker_panics as usize {
            v.push(format!(
                "{label}: panicked {} != injected worker panics {}",
                self.load.panicked, self.load.injected.worker_panics
            ));
        }
        if self.load.oversized_rejected != self.load.injected.oversized as usize {
            v.push(format!(
                "{label}: oversized rejections {} != injected {}",
                self.load.oversized_rejected, self.load.injected.oversized
            ));
        }
        if self.stats.supervision.quarantined {
            v.push(format!("{label}: a worker was quarantined mid-smoke"));
        }
        match &self.stats.faults {
            None => v.push(format!("{label}: chaos run produced no fault stats")),
            Some(f) => {
                if f.silent_corruptions > 0 {
                    v.push(format!(
                        "{label}: {} injected tampers decrypted SILENTLY",
                        f.silent_corruptions
                    ));
                }
                if f.tampers_detected != f.tampers_injected {
                    v.push(format!(
                        "{label}: {} tampers injected but only {} detected",
                        f.tampers_injected, f.tampers_detected
                    ));
                }
            }
        }
        v
    }
}

/// The chaos smoke artifact: two same-seed runs and their determinism
/// verdict, written to `results/chaos_smoke.json`.
#[derive(Debug)]
pub struct ChaosSmoke {
    /// The fault-plan seed both runs used.
    pub seed: u64,
    /// The two runs, in execution order.
    pub runs: [ChaosRun; 2],
}

impl ChaosSmoke {
    /// `true` when both runs produced identical deterministic counters.
    pub fn deterministic(&self) -> bool {
        self.runs[0].deterministic_counts() == self.runs[1].deterministic_counts()
    }

    /// Every acceptance violation across both runs plus the cross-run
    /// determinism check (empty = the chaos smoke passes).
    pub fn violations(&self) -> Vec<String> {
        let mut v = self.runs[0].violations("run 1");
        v.extend(self.runs[1].violations("run 2"));
        if !self.deterministic() {
            let (a, b) = (
                self.runs[0].deterministic_counts(),
                self.runs[1].deterministic_counts(),
            );
            for ((name, x), (_, y)) in a.iter().zip(&b) {
                if x != y {
                    v.push(format!("seed {}: {name} differs across runs: {x} vs {y}", self.seed));
                }
            }
        }
        v
    }

    /// Renders the chaos smoke artifact as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("  \"fault_seed\": {},\n", self.seed));
        out.push_str(&format!("  \"deterministic\": {},\n", self.deterministic()));
        let violations = self.violations();
        out.push_str(&format!("  \"violations\": {},\n", violations.len()));
        out.push_str("  \"runs\": [\n");
        for (i, run) in self.runs.iter().enumerate() {
            out.push_str("    {\n");
            let counts = run.deterministic_counts();
            for (name, value) in &counts {
                out.push_str(&format!("      \"{name}\": {value},\n"));
            }
            out.push_str(&format!(
                "      \"wall_seconds\": {:.6}\n",
                run.load.wall_seconds
            ));
            out.push_str(if i == 0 { "    },\n" } else { "    }\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON artifact to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// Renders f32/int8 lane pairs as a JSON array (the `quant` block's
/// `lanes` and `reference_batch_lanes`).
fn lanes_json(lanes: &[QuantLaneDelta]) -> String {
    let mut out = String::from("[\n");
    for (i, lane) in lanes.iter().enumerate() {
        out.push_str("      {\n");
        out.push_str(&format!(
            "        \"scheme\": \"{}\",\n",
            json_escape(lane.scheme.label())
        ));
        out.push_str(&format!(
            "        \"enc_bytes_ratio\": {:.6},\n",
            lane.enc_bytes_ratio()
        ));
        out.push_str(&format!(
            "        \"makespan_ratio\": {:.6},\n",
            lane.makespan_ratio()
        ));
        out.push_str("        \"f32\": ");
        out.push_str(scheme_json(&lane.f32_lane, "").trim_start());
        out.push_str(",\n");
        out.push_str("        \"int8\": ");
        out.push_str(scheme_json(&lane.int8_lane, "").trim_start());
        out.push('\n');
        out.push_str(if i + 1 < lanes.len() {
            "      },\n"
        } else {
            "      }\n"
        });
    }
    out.push_str("    ]");
    out
}

/// Renders one latency histogram as an inline JSON object.
fn latency_json(h: &crate::metrics::LatencyHistogram) -> String {
    format!(
        "{{ \"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"mean\": {}, \"max\": {} }}",
        h.len(),
        h.p50(),
        h.p95(),
        h.p99(),
        h.mean(),
        h.max()
    )
}

/// Renders one scheme summary row (shared with the net report).
pub(crate) fn scheme_json(s: &SchemeSummary, indent: &str) -> String {
    format!(
        "{indent}{{ \"scheme\": \"{}\", \"batches\": {}, \"samples\": {}, \"enc_bytes\": {}, \
         \"total_bytes\": {}, \"makespan_cycles\": {}, \"virtual_seconds\": {:.9}, \
         \"throughput_rps\": {:.3}, \"counter_hit_rate\": {:.6}, \"counter_hits\": {}, \
         \"counter_misses\": {}, \"prefetch_hits\": {}, \"prefetch_fills\": {}, \
         \"ro_hits\": {}, \"slowdown_vs_baseline\": {:.6} }}",
        json_escape(s.scheme.label()),
        s.batches,
        s.samples,
        s.enc_bytes,
        s.total_bytes,
        s.makespan_cycles,
        s.virtual_seconds,
        s.throughput_rps,
        s.counter_hit_rate,
        s.counter_hits,
        s.counter_misses,
        s.prefetch_hits,
        s.prefetch_fills,
        s.ro_hits,
        s.slowdown_vs_baseline
    )
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{run_closed, LoadMode};
    use crate::Server;

    fn smoke_report() -> ServeReport {
        let config = ServerConfig {
            model: "mlp".into(),
            ..ServerConfig::smoke()
        };
        let server = Server::start(config.clone()).unwrap();
        let load = run_closed(&server, 12, 3, 5).unwrap();
        let stats = server.shutdown().unwrap();
        ServeReport {
            config,
            load,
            stats,
            quant_comparison: None,
        }
    }

    #[test]
    fn json_contains_every_section() {
        let report = smoke_report();
        let json = report.to_json();
        for needle in [
            "\"model\": \"mlp\"",
            "\"config\"",
            "\"load\"",
            "\"server\"",
            "\"schemes\"",
            "\"supervision\"",
            "\"breaker\"",
            "\"Baseline\"",
            "\"SEAL-C\"",
            "\"Counter\"",
            "\"mode\": \"closed\"",
            "\"counter_hits\"",
            "\"counter_misses\"",
            "\"prefetch_hits\"",
            "\"prefetch_fills\"",
            "\"ro_hits\"",
            "\"kernel_mode\"",
            "\"int8_kernel\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert!(matches!(report.load.mode, LoadMode::Closed { .. }));
    }

    /// Regression pin for the counter-locality overhaul: the smoke
    /// report's encrypting lanes must never again render
    /// `counter_hit_rate: 0.000000` — the tuned geometry keeps the
    /// weight window pinned read-only, so the walk hits from batch 2 on.
    #[test]
    fn smoke_report_counter_lanes_actually_hit() {
        let report = smoke_report();
        let mut checked = 0;
        for row in &report.stats.schemes {
            if row.enc_bytes > 0 && row.counter_hits + row.counter_misses > 0 {
                assert!(
                    row.counter_hit_rate > 0.0,
                    "{:?} lane regressed to a 0% counter hit rate",
                    row.scheme
                );
                assert!(row.ro_hits > 0, "{:?} weight window not pinned", row.scheme);
                checked += 1;
            }
        }
        assert!(checked >= 2, "both encrypting lanes must be checked");
    }

    #[test]
    fn write_creates_parent_directories() {
        let report = smoke_report();
        let dir = std::env::temp_dir().join("seal_serve_report_test");
        let path = dir.join("nested").join("serve.json");
        report.write(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with('{'));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Rendering only reads the stats: the written file, a rendering after
    /// the acceptance checks ran and one before are the same bytes.
    #[test]
    fn the_report_renders_byte_identically_from_the_same_stats() {
        let report = smoke_report();
        let first = report.to_json();
        let path = std::env::temp_dir().join("seal_serve_report_bytes.json");
        report.write(&path).unwrap();
        // (An mlp run breaks the scheme ordering by design; the checks
        // still run over every field.)
        assert!(!report.smoke_violations().is_empty());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
        assert_eq!(report.to_json(), first);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn quant_section_renders_and_gates_lane_deltas() {
        use seal_nn::models::vgg16_topology;
        // The f32/int8 lane pairs the smoke run records: served totals
        // with the skew a host's clock produces — the f32 pass cut its
        // requests into 25 batches, the int8 pass into 40, each batch
        // streaming the weights again — and the reference batch.
        let f_cfg = ServerConfig::smoke();
        let q_cfg = ServerConfig {
            quantized: true,
            ..ServerConfig::smoke()
        };
        let topo = vgg16_topology();
        let mut f_cost = CostModel::new(&topo, &f_cfg).unwrap();
        let mut q_cost = CostModel::new(&topo, &q_cfg).unwrap();
        for _ in 0..25 {
            f_cost.cost_batch(4);
        }
        for i in 0..40 {
            q_cost.cost_batch(if i < 20 { 3 } else { 2 });
        }
        let (f_rows, q_rows) = (f_cost.summaries(), q_cost.summaries());
        let lanes: Vec<QuantLaneDelta> = COSTED_SCHEMES
            .iter()
            .map(|&s| QuantLaneDelta {
                scheme: s,
                f32_lane: f_rows.iter().find(|r| r.scheme == s).unwrap().clone(),
                int8_lane: q_rows.iter().find(|r| r.scheme == s).unwrap().clone(),
            })
            .collect();
        assert!(lanes.iter().all(|l| l.f32_lane.samples == l.int8_lane.samples));
        let mut report = smoke_report();
        report.quant_comparison = Some(QuantComparison {
            f32_rps: 100.0,
            int8_rps: 150.0,
            lanes,
            reference: QuantComparison::reference_lanes(&topo, &f_cfg).unwrap(),
        });
        // Skewed batch counts are not a violation: the gate reads the
        // reference batch, whatever the served totals say.
        let v = report.smoke_violations();
        assert!(
            !v.iter().any(|s| s.contains("int8")),
            "healthy quant lanes must pass under skewed batch counts: {v:?}"
        );
        let json = report.to_json();
        for needle in [
            "\"quant\"",
            "\"f32_throughput_rps\"",
            "\"int8_throughput_rps\"",
            "\"lanes\"",
            "\"reference_batch_lanes\"",
            "\"enc_bytes_ratio\"",
            "\"makespan_ratio\"",
            "\"int8_kernel\"",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        // A SEAL-C reference delta of ~0.25-something enc bytes, priced
        // for exactly one full batch on each side.
        let q = report.quant_comparison.as_ref().unwrap();
        let seal = q
            .reference
            .iter()
            .find(|l| l.scheme == Scheme::SealCounter)
            .unwrap();
        assert_eq!((seal.f32_lane.batches, seal.int8_lane.batches), (1, 1));
        assert_eq!(seal.f32_lane.samples, f_cfg.max_batch as u64);
        assert!(
            seal.enc_bytes_ratio() > 0.2 && seal.enc_bytes_ratio() < 1.0 / 3.0,
            "{}",
            seal.enc_bytes_ratio()
        );
        assert!(seal.makespan_ratio() < 1.0);
        // Sabotage the served totals only: still no violation.
        let q = report.quant_comparison.as_mut().unwrap();
        for lane in &mut q.lanes {
            lane.int8_lane.enc_bytes = lane.f32_lane.enc_bytes;
        }
        let v = report.smoke_violations();
        assert!(!v.iter().any(|s| s.contains("int8")), "{v:?}");
        // A genuine ratio of exactly 1/3 in the cost model — the gate fires.
        let q = report.quant_comparison.as_mut().unwrap();
        for lane in &mut q.reference {
            lane.int8_lane.enc_bytes = lane.f32_lane.enc_bytes.div_ceil(3);
        }
        let v = report.smoke_violations();
        assert!(v.iter().any(|s| s.contains("not ~4x below")), "{v:?}");
        // A missing reference row is reported, not skipped.
        report.quant_comparison.as_mut().unwrap().reference.pop();
        let v = report.smoke_violations();
        assert!(v.iter().any(|s| s.contains("reference lanes")), "{v:?}");
    }

    #[test]
    fn violations_detect_broken_ordering() {
        let mut report = smoke_report();
        // A healthy mlp run still satisfies the latency/throughput checks;
        // force a scheme inversion to prove the detector fires.
        for row in &mut report.stats.schemes {
            row.throughput_rps = 1.0;
        }
        let violations = report.smoke_violations();
        assert!(violations.iter().any(|v| v.contains("not strictly ordered")));
    }
}
