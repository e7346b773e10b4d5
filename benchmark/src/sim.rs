//! `sim_paper`: the paper side, no serving. Full-size VGG-16 and
//! ResNet-18 on the simulated GTX480 under all five schemes.
//!
//! A segment is one sweep: every layer workload of both networks under
//! every scheme, one `Simulator::run` per op, on one thread. `seal-gpusim`
//! and `seal-crypto` do all the work; tensor, nn, serve and net do none.
//! The simulator is deterministic, so every simulated figure must repeat
//! exactly; only host time varies. The seed orders the ops of a sweep.

use std::time::Instant;

use seal_core::traffic::network_traffic;
use seal_core::workload::{network_workloads, DEFAULT_BATCH};
use seal_core::{EncryptionPlan, Scheme, SePolicy};
use seal_gpusim::{GpuConfig, SimReport, Simulator, Workload};
use seal_nn::models::{resnet18_topology, vgg16_topology};
use seal_nn::NetworkTopology;
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::seq::SliceRandom;
use seal_tensor::rng::SeedableRng;

use crate::hostclock::at_reference;
use crate::replay::{self, timed};
use crate::report::Metric;
use crate::stats::fast_decile_low;
use crate::trace::Tracer;
use crate::{end_to_end, run_live, time_setups, trace_common, Outcome, RunSpec, WARMUP_SEGMENTS};

/// Cold set-ups behind `setup_s` (well under a millisecond each, so it
/// takes a thousand for the phase to outlast the host's scheduling noise).
const SETUPS: usize = 1001;
const SCHEMES: usize = Scheme::ALL.len();

/// Metric-name suffix of a scheme.
fn key(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Baseline => "baseline",
        Scheme::Direct => "direct",
        Scheme::Counter => "counter",
        Scheme::SealDirect => "seal_d",
        Scheme::SealCounter => "seal_c",
    }
}

fn position(scheme: Scheme) -> usize {
    Scheme::ALL
        .iter()
        .position(|&s| s == scheme)
        .expect("Scheme::ALL lists every scheme")
}

/// One `Simulator::run`: a layer of a network under a scheme.
struct Op {
    network: usize,
    scheme: usize,
    layer: usize,
    workload: Workload,
}

/// Everything a sweep needs, built from nothing.
struct Bench {
    /// Canonical order: network, then scheme, then layer.
    ops: Vec<Op>,
    /// One simulator per scheme.
    sims: Vec<Simulator>,
    networks: usize,
}

fn topologies() -> [NetworkTopology; 2] {
    [vgg16_topology(), resnet18_topology()]
}

impl Bench {
    /// The cold set-up `setup_s` times: topologies, plans, layer workloads
    /// and simulators for all ten (network, scheme) pairs.
    fn build() -> Result<Bench, String> {
        let config = GpuConfig::gtx480();
        let sims = Scheme::ALL
            .iter()
            .map(|s| Simulator::new(config.clone(), s.mode()).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut ops = Vec::new();
        let topos = topologies();
        for (network, topo) in topos.iter().enumerate() {
            let plan = EncryptionPlan::from_topology(topo, SePolicy::paper_default())
                .map_err(|e| e.to_string())?;
            for (scheme, &s) in Scheme::ALL.iter().enumerate() {
                let workloads =
                    network_workloads(topo, &plan, s, DEFAULT_BATCH).map_err(|e| e.to_string())?;
                ops.extend(
                    workloads
                        .into_iter()
                        .enumerate()
                        .map(|(layer, workload)| Op {
                            network,
                            scheme,
                            layer,
                            workload,
                        }),
                );
            }
        }
        Ok(Bench {
            ops,
            sims,
            networks: topos.len(),
        })
    }
}

/// FNV-1a over every field of every report, in canonical op order.
fn checksum(reports: &[SimReport]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in reports {
        for v in [
            r.cycles.to_bits(),
            r.instructions,
            r.requests,
            r.traffic_bytes,
            r.encrypted_bytes,
        ] {
            eat(v);
        }
        for mc in &r.per_mc {
            for v in [
                mc.lines,
                mc.encrypted_lines,
                mc.dram_busy.to_bits(),
                mc.engine_busy.to_bits(),
                mc.extra_counter_lines,
                mc.counter_hits,
                mc.counter_misses,
            ] {
                eat(v);
            }
        }
    }
    h
}

/// Simulated totals of one sweep, per scheme over both networks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SchemeTotals {
    cycles: f64,
    instructions: u64,
    requests: u64,
    traffic_bytes: u64,
    encrypted_bytes: u64,
    counter_hits: u64,
    counter_misses: u64,
    extra_counter_lines: u64,
    /// Σ busy cycles over controllers and layers, and Σ cycles × controllers.
    engine_busy: f64,
    dram_busy: f64,
    mc_cycles: f64,
}

fn totals(bench: &Bench, reports: &[SimReport]) -> [SchemeTotals; SCHEMES] {
    let mut t = [SchemeTotals::default(); SCHEMES];
    for (op, r) in bench.ops.iter().zip(reports) {
        let s = &mut t[op.scheme];
        s.cycles += r.cycles;
        s.instructions += r.instructions;
        s.requests += r.requests;
        s.traffic_bytes += r.traffic_bytes;
        s.encrypted_bytes += r.encrypted_bytes;
        s.mc_cycles += r.cycles * r.per_mc.len() as f64;
        for mc in &r.per_mc {
            s.counter_hits += mc.counter_hits;
            s.counter_misses += mc.counter_misses;
            s.extra_counter_lines += mc.extra_counter_lines;
            s.engine_busy += mc.engine_busy;
            s.dram_busy += mc.dram_busy;
        }
    }
    t
}

/// The paper's claims, checked on one sweep's reports: a scheme changes
/// cycles, never the instruction stream, and per network
/// Baseline < SEAL-C < Counter in cycles.
fn verify_sweep(bench: &Bench, reports: &[SimReport], out: &mut Outcome) {
    let base = position(Scheme::Baseline);
    for (i, op) in bench.ops.iter().enumerate() {
        let twin = bench
            .ops
            .iter()
            .position(|o| (o.network, o.scheme, o.layer) == (op.network, base, op.layer))
            .expect("every layer has a Baseline op");
        if reports[i].instructions != reports[twin].instructions {
            out.miss(|| {
                format!(
                    "{}: instructions differ between schemes",
                    op.workload.name()
                )
            });
        }
    }
    for network in 0..bench.networks {
        let cycles = |scheme: Scheme| -> f64 {
            bench
                .ops
                .iter()
                .zip(reports)
                .filter(|(o, _)| o.network == network && o.scheme == position(scheme))
                .map(|(_, r)| r.cycles)
                .sum()
        };
        let (b, s, c) = (
            cycles(Scheme::Baseline),
            cycles(Scheme::SealCounter),
            cycles(Scheme::Counter),
        );
        if !(b < s && s < c) {
            out.miss(|| {
                format!(
                    "network {network}: cycles not ordered Baseline {b} < SEAL-C {s} < Counter {c}"
                )
            });
        }
    }
}

pub fn run(spec: &RunSpec, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setup_s = time_setups(spec, SETUPS, &mut out, || Bench::build().map(drop))?;

    let bench = Bench::build()?;
    let mut order: Vec<usize> = (0..bench.ops.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(spec.seed));
    out.facts.push((
        "segment",
        format!("1 sweep = {} Simulator::run ops (2 networks x 5 schemes x layers), batch {DEFAULT_BATCH}", order.len()),
    ));

    let mut reports: Vec<Option<SimReport>> = vec![None; bench.ops.len()];
    let mut reference: Option<(u64, Vec<SimReport>)> = None;
    // Host nanoseconds per scheme, one row per segment (traced or not).
    let mut host_ns: Vec<[u64; SCHEMES]> = Vec::new();
    let (untraced, traced) = run_live(spec, tracer, |log, tracer, _| {
        let mut by_scheme = [0u64; SCHEMES];
        for &i in &order {
            let op = &bench.ops[i];
            out.attempted += 1;
            let start = Instant::now();
            let span = tracer.begin("gpusim.run", i as u64);
            let report = bench.sims[op.scheme].run(&op.workload);
            tracer.end(span);
            let ns = start.elapsed().as_nanos() as u64;
            match report {
                Ok(r) => {
                    log.lat_ns.push(ns);
                    by_scheme[op.scheme] += ns;
                    reports[i] = Some(r);
                }
                Err(e) => out.miss(|| format!("{}: {e}", op.workload.name())),
            }
            log.probe();
        }
        host_ns.push(by_scheme);
        let Some(sweep) = reports.iter().cloned().collect::<Option<Vec<SimReport>>>() else {
            return Err("a simulation failed; no sweep to verify".into());
        };
        let sum = checksum(&sweep);
        match &reference {
            None => {
                verify_sweep(&bench, &sweep, &mut out);
                reference = Some((sum, sweep));
            }
            Some((first, _)) if *first != sum => {
                out.miss(|| {
                    format!("sweep checksum {sum:#x} differs from the first sweep's {first:#x}")
                });
            }
            Some(_) => {}
        }
        Ok(())
    })?;
    let (_, sweep) = reference.ok_or("no sweep ran")?;
    let t = totals(&bench, &sweep);
    let of = |s: Scheme| t[position(s)];
    let base_cycles = of(Scheme::Baseline).cycles;
    out.segments = untraced;

    if !spec.trace {
        out.metrics = end_to_end(
            &out.segments,
            setup_s,
            of(Scheme::SealCounter).cycles / base_cycles,
            of(Scheme::Counter).cycles / base_cycles,
        );
        return Ok(out);
    }

    let n = spec.replay_repeats;
    let mut m = trace_common(&out.segments, &traced);
    let topos = topologies();
    let policy = SePolicy::paper_default();
    let plan_build = timed(tracer, "core.plan_build", n, || {
        for topo in &topos {
            std::hint::black_box(
                EncryptionPlan::from_topology(topo, policy).expect("built in set-up"),
            );
        }
    });
    let plans: Vec<EncryptionPlan> = topos
        .iter()
        .map(|t| EncryptionPlan::from_topology(t, policy).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let traffic = timed(tracer, "core.traffic", n, || {
        for (topo, plan) in topos.iter().zip(&plans) {
            for s in Scheme::ALL {
                std::hint::black_box(
                    network_traffic(topo, plan, s).expect("plan matches its topology"),
                );
            }
        }
    });
    let workload_build = timed(tracer, "core.workload_build", n, || {
        for (topo, plan) in topos.iter().zip(&plans) {
            for s in Scheme::ALL {
                std::hint::black_box(
                    network_workloads(topo, plan, s, DEFAULT_BATCH)
                        .expect("plan matches its topology"),
                );
            }
        }
    });

    // Host time per simulated request, per scheme, at the reference
    // clock: fast decile over the untraced segments (every other row after the
    // warm-up), each restated with its own segment's clock.
    let measured: Vec<(&[u64; SCHEMES], f64)> = host_ns
        .iter()
        .skip(WARMUP_SEGMENTS)
        .step_by(2)
        .zip(out.segments.clocks_ghz())
        .collect();
    for s in Scheme::ALL {
        let per_request: Vec<f64> = measured
            .iter()
            .map(|(row, ghz)| at_reference(row[position(s)] as f64, *ghz) / of(s).requests as f64)
            .collect();
        m.push(Metric::new(
            format!("gpusim.host_ns_per_request.{}", key(s)),
            fast_decile_low(&per_request),
        ));
        m.push(Metric::new(
            format!("gpusim.cycles.{}", key(s)),
            of(s).cycles,
        ));
        if s != Scheme::Baseline {
            // Instructions are identical across schemes, so normalised
            // IPC is the inverse cycle ratio.
            m.push(Metric::new(
                format!("gpusim.ipc_norm.{}", key(s)),
                base_cycles / of(s).cycles,
            ));
        }
    }
    let sweep_requests: u64 = t.iter().map(|s| s.requests).sum();
    let sweeps_per_s = out.segments.throughput_rps() / bench.ops.len() as f64;
    let counter = of(Scheme::Counter);
    let hit_rate =
        counter.counter_hits as f64 / (counter.counter_hits + counter.counter_misses).max(1) as f64;
    let gpu = GpuConfig::gtx480();
    let slice = seal_crypto::CounterCacheConfig {
        capacity_bytes: gpu.counter_cache.capacity_bytes / gpu.num_channels,
        ..gpu.counter_cache
    };
    let seal_c = of(Scheme::SealCounter);
    m.extend([
        Metric::new(
            "gpusim.sim_requests_per_s",
            sweep_requests as f64 * sweeps_per_s,
        ),
        Metric::new("gpusim.counter_hit_rate", hit_rate),
        Metric::new(
            "gpusim.engine_utilisation.seal_c",
            seal_c.engine_busy / seal_c.mc_cycles,
        ),
        Metric::new(
            "gpusim.dram_utilisation.baseline",
            of(Scheme::Baseline).dram_busy / of(Scheme::Baseline).mc_cycles,
        ),
        Metric::new(
            "gpusim.extra_counter_lines",
            counter.extra_counter_lines as f64,
        ),
        Metric::new("crypto.counter_hit_rate", hit_rate),
        Metric::new(
            "crypto.counter_access_ns",
            replay::counter_access_ns(slice, gpu.line_bytes, n, tracer)?,
        ),
        Metric::new(
            "crypto.engine_submit_ns",
            replay::engine_submit_ns(gpu.core_clock_ghz, gpu.line_bytes, n, tracer)?,
        ),
        Metric::new("core.plan_build_us", plan_build),
        Metric::new("core.traffic_us", traffic),
        Metric::new("core.workload_build_us", workload_build),
        Metric::new(
            "core.enc_bytes_ratio",
            seal_c.encrypted_bytes as f64 / seal_c.traffic_bytes as f64,
        ),
    ]);
    out.metrics = m;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_lists_every_layer_under_every_scheme() {
        let bench = Bench::build().unwrap();
        let layers: usize = topologies().iter().map(|t| t.layers().len()).sum();
        assert_eq!(bench.ops.len(), layers * SCHEMES);
        assert_eq!(bench.sims.len(), SCHEMES);
        assert_eq!(bench.networks, 2);
    }

    #[test]
    fn checksum_sees_every_field() {
        let bench = Bench::build().unwrap();
        // The smallest op keeps the test quick.
        let op = bench
            .ops
            .iter()
            .min_by_key(|o| o.workload.traffic_bytes())
            .unwrap();
        let report = bench.sims[op.scheme].run(&op.workload).unwrap();
        let base = checksum(std::slice::from_ref(&report));
        assert_eq!(base, checksum(std::slice::from_ref(&report)));
        let mut cycles = report.clone();
        cycles.cycles += 1.0;
        let mut mc = report.clone();
        mc.per_mc[0].counter_hits += 1;
        assert_ne!(base, checksum(&[cycles]));
        assert_ne!(base, checksum(&[mc]));
    }

    #[test]
    fn scheme_keys_are_distinct() {
        let keys: std::collections::BTreeSet<_> = Scheme::ALL.iter().map(|&s| key(s)).collect();
        assert_eq!(keys.len(), SCHEMES);
        assert_eq!(position(Scheme::SealCounter), 4);
    }
}
