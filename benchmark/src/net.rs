//! `net_tenants`: the `NetServer` over loopback TCP, eight skew-weighted
//! `mlp` tenants, one connection, lock-step bursts.
//!
//! A burst is 48 request frames encoded into one buffer and written with
//! one `send_raw`, then 48 `recv`s. The model is tiny, so frame
//! decode/encode, the reactor, the responder, the `FairQueue` and the
//! per-tenant cost-model mutex do most of the work — the serve layer's
//! *other* stack, which `serve_*` never touches. (PR 11's free-running
//! window of 32 gave 74k–98k req/s from run to run.)

use std::time::{Duration, Instant};

use seal_net::reactor::{Handler, Reactor, ReactorConfig};
use seal_net::{ConnId, Frame, FrameClient, FrameDecoder, FrameKind};
use seal_serve::{FairQueue, NetServer, NetServerConfig, TenantRegistry};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::{Rng, SeedableRng};
use seal_tensor::Tensor;

use crate::replay::{timed, Lanes};
use crate::report::Metric;
use crate::trace::Tracer;
use crate::{end_to_end, run_live, time_setups, trace_common, Outcome, RunSpec};

const TENANTS: u32 = 8;
const BURST: usize = 48;
/// The request table holds this many bursts; a segment walks it
/// `TABLE_PASSES` times, so every segment is the same 192,000 requests.
const TABLE_BURSTS: usize = 1000;
const TABLE_PASSES: usize = 4;
/// Cold set-ups behind `setup_s` (about a millisecond each).
const SETUPS: usize = 501;
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// `NetServerConfig::smoke(8)` on one worker and one kernel thread, with the
/// batching timer off. Under lock-step bursts the 200 µs timer can only
/// wait for requests that will not come before the burst is answered: with
/// it on, three quarters of a burst's wall time was the worker asleep on
/// the timer, and latency measured the host's timer wake-up, not the code.
pub fn config() -> NetServerConfig {
    let mut c = NetServerConfig::smoke(TENANTS);
    c.base.workers = 1;
    c.base.kernel_threads = 1;
    c.base.batch_deadline = Duration::ZERO;
    c
}

/// The requests of one pass — the same `(tenant, user)` sequence every
/// pass, so segments are identical work — with the offline answers.
struct Table {
    tenant: Vec<u32>,
    user: Vec<u64>,
    expected: Vec<u32>,
    /// Requests per tenant in one pass, in registry order.
    per_tenant: Vec<u64>,
}

/// Tenants drawn in proportion to their weights; user ids are distinct
/// and carry the seed, so the server synthesises seed-dependent inputs.
fn draw(weights: &[(u32, u32)], seed: u64, len: usize) -> (Vec<u32>, Vec<u64>) {
    let total: u32 = weights.iter().map(|w| w.1).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let tenant = (0..len)
        .map(|_| {
            let mut ticket = rng.gen_range(0..total);
            for &(tenant, weight) in weights {
                if ticket < weight {
                    return tenant;
                }
                ticket -= weight;
            }
            unreachable!("ticket is below the weight total")
        })
        .collect();
    let user = (0..len as u64).map(|k| (seed << 32) ^ k).collect();
    (tenant, user)
}

impl Table {
    fn new(registry: &TenantRegistry, seed: u64, max_batch: usize) -> Result<Table, String> {
        let (tenant, user) = draw(&registry.weights(), seed, BURST * TABLE_BURSTS);
        let mut plans = Vec::with_capacity(registry.len());
        for state in registry.all() {
            plans.push(
                state
                    .model()
                    .compile_plan(max_batch, false)
                    .map_err(|e| e.to_string())?,
            );
        }
        let mut per_tenant = vec![0u64; registry.len()];
        let mut expected = Vec::with_capacity(tenant.len());
        for (&t, &u) in tenant.iter().zip(&user) {
            let index = registry.index_of(t).ok_or("drawn tenant is registered")?;
            per_tenant[index] += 1;
            let input = registry
                .by_index(index)
                .model()
                .sample(&mut StdRng::seed_from_u64(u));
            let class = plans[index].classify(&input).map_err(|e| e.to_string())?;
            expected.push(class[0] as u32);
        }
        Ok(Table {
            tenant,
            user,
            expected,
            per_tenant,
        })
    }
}

/// The lock-step burst generator on one connection.
struct Generator<'a> {
    client: FrameClient,
    table: &'a Table,
    buf: Vec<u8>,
    next_seq: u64,
    rejects: u64,
}

impl Generator<'_> {
    /// Sends requests `range` of the table as one write, then receives and
    /// verifies as many answers. A transport failure ends the run.
    fn burst(
        &mut self,
        range: std::ops::Range<usize>,
        lat_ns: &mut Vec<u64>,
        out: &mut Outcome,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let base_seq = self.next_seq;
        let first = range.start;
        let count = range.len();
        self.buf.clear();
        let span = tracer.begin("net.frame_encode", base_seq);
        for k in range {
            let frame = Frame::request(
                self.table.tenant[k],
                self.next_seq,
                self.table.user[k].to_le_bytes().to_vec(),
            );
            self.buf.extend_from_slice(&frame.encode());
            self.next_seq += 1;
        }
        tracer.end(span);
        out.attempted += count as u64;
        let sent = Instant::now();
        let span = tracer.begin("send_raw", base_seq);
        let wrote = self.client.send_raw(&self.buf);
        tracer.end(span);
        wrote.map_err(|e| format!("send_raw: {e}"))?;
        let mut seen = [false; BURST];
        // One span for the whole burst's answers: a span per frame would
        // cost more than the `recv` it wraps.
        let span = tracer.begin("recv", base_seq);
        for _ in 0..count {
            let frame = self.client.recv();
            let latency = sent.elapsed();
            let frame = frame.map_err(|e| format!("recv: {e}"))?;
            let slot = frame.seq.wrapping_sub(base_seq) as usize;
            if slot >= count || std::mem::replace(&mut seen[slot], true) {
                out.miss(|| {
                    format!(
                        "unexpected or repeated seq {} in burst at {base_seq}",
                        frame.seq
                    )
                });
                continue;
            }
            let k = first + slot;
            let p = &frame.payload;
            let good = frame.kind == FrameKind::Response
                && frame.tenant == self.table.tenant[k]
                && p.len() == 12
                && p[..4] == self.table.expected[k].to_le_bytes()
                && p[4..] == self.table.user[k].to_le_bytes();
            if good {
                lat_ns.push(latency.as_nanos() as u64);
            } else {
                self.rejects += u64::from(frame.kind == FrameKind::Reject);
                out.miss(|| {
                    format!(
                        "seq {} tenant {} user {:#x}: got {:?} tenant {} payload {:?}, offline class {}",
                        frame.seq, self.table.tenant[k], self.table.user[k], frame.kind, frame.tenant, p, self.table.expected[k]
                    )
                });
            }
        }
        tracer.end(span);
        Ok(())
    }
}

/// The first table row of each tenant: the set-up's one answer per tenant.
fn one_per_tenant(table: &Table, registry: &TenantRegistry) -> Vec<usize> {
    registry
        .all()
        .iter()
        .filter_map(|t| table.tenant.iter().position(|&x| x == t.spec().tenant))
        .collect()
}

/// A complete cold set-up: start, connect, one verified answer per
/// tenant, shut down.
fn cold_setup(cfg: &NetServerConfig, table: &Table, probes: &[usize]) -> Result<(), String> {
    let server = NetServer::start(cfg.clone()).map_err(|e| e.to_string())?;
    let mut client =
        FrameClient::connect(server.port(), READ_TIMEOUT).map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    for (seq, &k) in probes.iter().enumerate() {
        buf.extend_from_slice(
            &Frame::request(
                table.tenant[k],
                seq as u64,
                table.user[k].to_le_bytes().to_vec(),
            )
            .encode(),
        );
    }
    client.send_raw(&buf).map_err(|e| e.to_string())?;
    for _ in probes {
        let frame = client.recv().map_err(|e| e.to_string())?;
        let k = *probes
            .get(frame.seq as usize)
            .ok_or("set-up answer echoes an unknown seq")?;
        if frame.kind != FrameKind::Response
            || frame.payload.get(..4) != Some(&table.expected[k].to_le_bytes()[..])
        {
            return Err(format!(
                "set-up answer for tenant {} is wrong: {frame:?}",
                table.tenant[k]
            ));
        }
    }
    drop(client);
    server.shutdown().map_err(|e| e.to_string())?;
    Ok(())
}

/// The trivial handler behind `net.reactor_echo_*`: answers every request
/// with its own payload, on the reactor thread.
struct Echo;

impl Handler for Echo {
    fn on_frame(&mut self, _conn: ConnId, frame: Frame, reply: &mut Vec<Vec<u8>>) {
        reply.push(Frame::response(frame.tenant, frame.seq, frame.payload).encode());
    }
}

/// `(net.reactor_echo_rtt_us, net.reactor_echo_burst_rps)`: what the
/// reactor alone costs — the floor under this workload's latency and the
/// ceiling over its throughput.
fn reactor_echo(repeats: usize, tracer: &mut Tracer) -> Result<(f64, f64), String> {
    let reactor =
        Reactor::bind(ReactorConfig::default(), Echo).map_err(|e| format!("echo bind: {e}"))?;
    let (port, control) = (reactor.port(), reactor.control());
    let thread = seal_pool::spawn_worker("bench-echo-reactor", move || reactor.run())
        .map_err(|e| e.to_string())?;
    let mut client = FrameClient::connect(port, READ_TIMEOUT).map_err(|e| e.to_string())?;
    let mut seq = 0u64;
    let mut failure = None;
    const PINGS: usize = 200;
    let rtt = timed(tracer, "net.reactor_echo_rtt", repeats, || {
        for _ in 0..PINGS {
            seq += 1;
            let ok = client
                .send(&Frame::request(0, seq, vec![0; 8]))
                .and_then(|()| client.recv());
            if let Err(e) = ok {
                failure.get_or_insert(e.to_string());
            }
        }
    }) / PINGS as f64;
    let mut buf = Vec::new();
    const BURSTS: usize = 20;
    let burst_us = timed(tracer, "net.reactor_echo_burst", repeats, || {
        for _ in 0..BURSTS {
            buf.clear();
            for _ in 0..BURST {
                seq += 1;
                buf.extend_from_slice(&Frame::request(0, seq, vec![0; 8]).encode());
            }
            let ok = client
                .send_raw(&buf)
                .and_then(|()| (0..BURST).try_for_each(|_| client.recv().map(drop)));
            if let Err(e) = ok {
                failure.get_or_insert(e.to_string());
            }
        }
    });
    drop(client);
    control.shutdown();
    thread.join().map_err(|_| "echo reactor panicked")?;
    match failure {
        Some(e) => Err(format!("echo reactor: {e}")),
        None => Ok((rtt, (BURSTS * BURST) as f64 / (burst_us / 1e6))),
    }
}

pub fn run(spec: &RunSpec, tracer: &mut Tracer) -> Result<Outcome, String> {
    let cfg = config();
    let registry = TenantRegistry::build(&cfg.base, cfg.master_seed, &cfg.tenants)
        .map_err(|e| e.to_string())?;
    let table = Table::new(&registry, spec.seed, cfg.base.max_batch)?;
    let probes = one_per_tenant(&table, &registry);
    let mut out = Outcome::default();
    out.facts.push((
        "segment",
        format!(
            "{TABLE_PASSES} passes over {TABLE_BURSTS} bursts of {BURST} frames = {} requests, 1 connection",
            TABLE_PASSES * TABLE_BURSTS * BURST
        ),
    ));

    let setup_s = time_setups(spec, SETUPS, &mut out, || cold_setup(&cfg, &table, &probes))?;

    let server = NetServer::start(cfg.clone()).map_err(|e| e.to_string())?;
    let mut gen = Generator {
        client: FrameClient::connect(server.port(), READ_TIMEOUT).map_err(|e| e.to_string())?,
        table: &table,
        buf: Vec::with_capacity(BURST * 32),
        next_seq: 0,
        rejects: 0,
    };
    let (untraced, traced) = run_live(spec, tracer, |log, tracer, _| {
        for b in (0..TABLE_PASSES).flat_map(|_| 0..TABLE_BURSTS) {
            let span = tracer.begin("burst", b as u64);
            let sent = gen.burst(
                b * BURST..(b + 1) * BURST,
                &mut log.lat_ns,
                &mut out,
                tracer,
            );
            tracer.end(span);
            sent?;
            log.probe();
        }
        Ok(())
    })?;
    let Generator {
        client,
        next_seq: sent,
        rejects,
        ..
    } = gen;
    drop(client);
    let stats = server.shutdown().map_err(|e| e.to_string())?;

    // The server's own books must agree with what was sent.
    let passes_run = sent / (BURST * TABLE_BURSTS) as u64;
    for (row, per_pass) in stats.tenants.iter().zip(&table.per_tenant) {
        let (tenant, completed, full, breaker, shed, drain) = *row;
        if completed != per_pass * passes_run || full + breaker + shed + drain > 0 {
            out.miss(|| {
                format!(
                    "tenant {tenant}: completed {completed} of {}, refused {}",
                    per_pass * passes_run,
                    full + breaker + shed + drain
                )
            });
        }
    }
    let r = stats.reactor;
    if r.frames_in != sent
        || r.frames_out != sent
        || r.protocol_errors + r.dropped_responses + stats.drained > 0
    {
        out.miss(|| {
            format!(
                "reactor saw {} in / {} out for {sent} sent; {r:?}",
                r.frames_in, r.frames_out
            )
        });
    }
    if !stats.worker_errors.is_empty() {
        out.miss(|| format!("worker errors: {:?}", stats.worker_errors));
    }
    let lanes = Lanes::of(&stats.schemes)?;
    let (baseline, seal_c, counter) = (lanes.baseline, lanes.seal_c, lanes.counter);
    out.segments = untraced;

    if !spec.trace {
        out.metrics = end_to_end(
            &out.segments,
            setup_s,
            seal_c.slowdown_vs_baseline,
            counter.slowdown_vs_baseline,
        );
        return Ok(out);
    }

    let n = spec.replay_repeats;
    let mut m = trace_common(&out.segments, &traced);
    let registry_build = timed(tracer, "serve.registry_build", n, || {
        std::hint::black_box(
            TenantRegistry::build(&cfg.base, cfg.master_seed, &cfg.tenants)
                .expect("built once already"),
        );
    });

    // The layers under one tenant's batch, on the heaviest tenant's model.
    let heavy = registry.len() - 1;
    let model = registry.by_index(heavy).model();
    let users = &table.user[..BURST];
    let sample = timed(tracer, "serve.sample", n, || {
        for &u in users {
            std::hint::black_box(model.sample(&mut StdRng::seed_from_u64(u)));
        }
    }) / BURST as f64;
    let max_batch = cfg.base.max_batch;
    let inputs: Vec<Tensor> = users[..max_batch]
        .iter()
        .map(|&u| model.sample(&mut StdRng::seed_from_u64(u)))
        .collect();
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let concat = timed(tracer, "serve.concat_batch", n, || {
        for _ in 0..64 {
            std::hint::black_box(
                model
                    .concat_batch(&refs)
                    .expect("samples have the model's shape"),
            );
        }
    }) / 64.0;
    let compile = timed(tracer, "nn.plan_compile", n, || {
        std::hint::black_box(
            model
                .compile_plan(max_batch, false)
                .expect("compiled for the table already"),
        );
    });
    let mut plan = model
        .compile_plan(max_batch, false)
        .map_err(|e| e.to_string())?;
    let batch = model.concat_batch(&refs).map_err(|e| e.to_string())?;
    let exec_b8 = timed(tracer, "nn.plan_execute", n, || {
        for _ in 0..64 {
            std::hint::black_box(plan.execute_into(&batch).expect("batch fits the plan"));
        }
    }) / 64.0;
    let exec_b1 = timed(tracer, "nn.plan_execute_b1", n, || {
        for _ in 0..64 {
            std::hint::black_box(
                plan.execute_into(&inputs[0])
                    .expect("single sample fits the plan"),
            );
        }
    }) / 64.0;
    // Through the tenant's mutex, as the worker prices a batch.
    let cost = &registry.by_index(heavy).cost;
    let cost_batch = timed(tracer, "serve.cost_batch", n, || {
        for _ in 0..64 {
            cost.lock()
                .unwrap_or_else(|e| e.into_inner())
                .cost_batch(max_batch);
        }
    }) / 64.0;

    let lane_capacity = cfg.base.queue_capacity / registry.len();
    let fair: FairQueue<u64> = FairQueue::new(&registry.weights(), lane_capacity, cfg.quantum);
    let burst_lanes: Vec<usize> = table.tenant[..BURST]
        .iter()
        .filter_map(|&t| registry.index_of(t))
        .collect();
    let fair_push_pop = timed(tracer, "serve.fair_push_pop", n, || {
        for (i, &lane) in burst_lanes.iter().enumerate() {
            let _ = fair.try_push(lane, i as u64);
        }
        while !fair.is_empty() {
            std::hint::black_box(fair.pop_batch(max_batch, Duration::ZERO));
        }
    });

    let frames: Vec<Frame> = (0..BURST)
        .map(|k| {
            Frame::request(
                table.tenant[k],
                k as u64,
                table.user[k].to_le_bytes().to_vec(),
            )
        })
        .collect();
    let encode = timed(tracer, "net.frame_encode", n, || {
        for f in &frames {
            std::hint::black_box(f.encode());
        }
    }) * 1e3
        / BURST as f64;
    let wire: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
    let mut decoder = FrameDecoder::new();
    let decode = timed(tracer, "net.frame_decode", n, || {
        decoder.push(&wire);
        while let Ok(Some(f)) = decoder.next_frame() {
            std::hint::black_box(f);
        }
    }) * 1e3
        / BURST as f64;
    let (echo_rtt, echo_rps) = reactor_echo(n, tracer)?;

    let weight_bytes = model.topology().total_weight_bytes();
    m.extend([
        Metric::new("nn.plan_execute_b8_us", exec_b8),
        Metric::new("nn.plan_execute_b1_us", exec_b1),
        Metric::new("nn.plan_compile_us", compile),
        Metric::new("nn.plan_arena_kb", plan.arena_byte_size() as f64 / 1024.0),
        Metric::new("serve.concat_batch_us", concat),
        Metric::new("serve.sample_us", sample),
        Metric::new("serve.cost_batch_us", cost_batch),
        Metric::new("serve.fair_push_pop_us", fair_push_pop),
        Metric::new(
            "serve.batch_size_mean",
            baseline.samples as f64 / baseline.batches.max(1) as f64,
        ),
        Metric::new(
            "serve.shed",
            stats.tenants.iter().map(|t| t.4).sum::<u64>() as f64,
        ),
        Metric::new("serve.worker_errors", stats.worker_errors.len() as f64),
        Metric::new("serve.registry_build_us", registry_build),
        Metric::new("net.frame_encode_ns", encode),
        Metric::new("net.frame_decode_ns", decode),
        Metric::new("net.reactor_echo_rtt_us", echo_rtt),
        Metric::new("net.reactor_echo_burst_rps", echo_rps),
        Metric::new("net.frames_in", r.frames_in as f64),
        Metric::new("net.frames_out", r.frames_out as f64),
        Metric::new("net.protocol_errors", r.protocol_errors as f64),
        Metric::new("net.rejects", rejects as f64),
    ]);
    m.extend(lanes.metrics(&cfg.base, weight_bytes, n, tracer)?);
    out.metrics = m;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_serve::TenantSpec;

    fn weights() -> Vec<(u32, u32)> {
        TenantSpec::skewed(TENANTS)
            .iter()
            .map(|s| (s.tenant, s.weight))
            .collect()
    }

    #[test]
    fn draw_is_seeded_and_proportional_to_weight() {
        let len = BURST * TABLE_BURSTS;
        let (tenants, users) = draw(&weights(), 5, len);
        assert_eq!(draw(&weights(), 5, len), (tenants.clone(), users.clone()));
        assert_ne!(draw(&weights(), 6, len).0, tenants);
        assert_eq!(users[0], 5 << 32);
        assert_eq!(
            users
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            len
        );
        let total: u32 = weights().iter().map(|w| w.1).sum();
        for (tenant, weight) in weights() {
            let share = tenants.iter().filter(|&&t| t == tenant).count() as f64 / len as f64;
            let want = f64::from(weight) / f64::from(total);
            assert!(
                (share - want).abs() < 0.01,
                "tenant {tenant}: {share} vs {want}"
            );
        }
    }

    #[test]
    fn no_burst_can_overflow_a_tenant_lane() {
        let cfg = config();
        let lane = cfg.base.queue_capacity / TENANTS as usize;
        assert!(
            BURST <= cfg.max_pipeline,
            "a burst must fit the pipelining cap"
        );
        for seed in 0..20 {
            let (tenants, _) = draw(&weights(), seed, BURST * TABLE_BURSTS);
            for burst in tenants.chunks(BURST) {
                for t in 0..TENANTS {
                    assert!(burst.iter().filter(|&&x| x == t).count() <= lane);
                }
            }
        }
    }

    #[test]
    fn config_is_the_smoke_preset_on_one_worker() {
        let c = config();
        assert_eq!(
            (c.base.workers, c.base.kernel_threads, c.tenants.len()),
            (1, 1, 8)
        );
        assert_eq!(c.base.model, "mlp");
        assert_eq!(c.base.batch_deadline, Duration::ZERO);
        assert!(c.base.validate().is_ok());
    }
}
