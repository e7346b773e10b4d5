//! `serve_f32` / `serve_int8`: the in-process `Server` on the reduced
//! VGG-16, under lock-step closed-loop load.
//!
//! One generator thread keeps two aligned groups of eight requests in
//! flight: wait for all of group A, resubmit, wait for all of B, resubmit.
//! The single worker therefore always finds exactly eight requests queued,
//! never lingers and never idles, and every batch it forms is a pure
//! function of the seed. (PR 11's racing clients formed batches of 3…8
//! depending on who won a wake-up; its latency was multi-modal.)

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use seal_serve::{BoundedQueue, CostModel, ResponseHandle, ServedModel, Server, ServerConfig};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::Tensor;

use crate::hostclock::at_reference;
use crate::replay::{self, timed, Lanes};
use crate::report::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{end_to_end, run_live, time_setups, trace_common, Outcome, RunSpec};

/// Requests per batch, groups in the input pool, batches per segment.
const BATCH: usize = 8;
const GROUPS: usize = 8;
const BATCHES_PER_SEGMENT: usize = 512;
/// Cold set-ups behind `setup_s` (a few milliseconds each).
const SETUPS: usize = 101;

/// `ServerConfig::smoke()` narrowed to one worker and one kernel thread.
/// The batching deadline is raised so that a generator hiccup while the
/// worker is idle cannot split a group into two partial batches; in steady
/// state the worker finds a full batch queued and the deadline never runs.
pub fn config(quantized: bool) -> ServerConfig {
    ServerConfig {
        workers: 1,
        kernel_threads: 1,
        max_batch: BATCH,
        queue_capacity: 64,
        batch_deadline: Duration::from_millis(100),
        quantized,
        ..ServerConfig::smoke()
    }
}

/// The seed-derived input pool and the answers an offline plan gives it,
/// group by group exactly as the server will batch them.
struct Pool {
    inputs: Vec<Tensor>,
    expected: Vec<usize>,
}

impl Pool {
    fn new(model: &ServedModel, seed: u64, quantized: bool) -> Result<Pool, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<Tensor> = (0..GROUPS * BATCH)
            .map(|_| model.sample(&mut rng))
            .collect();
        let mut plan = model
            .compile_plan(BATCH, quantized)
            .map_err(|e| e.to_string())?;
        let mut expected = Vec::with_capacity(inputs.len());
        for group in inputs.chunks(BATCH) {
            let refs: Vec<&Tensor> = group.iter().collect();
            let batch = model.concat_batch(&refs).map_err(|e| e.to_string())?;
            expected.extend(plan.classify(&batch).map_err(|e| e.to_string())?);
        }
        Ok(Pool { inputs, expected })
    }
}

/// One request in flight: its pool index, handle and submit time.
type InFlight = (usize, Option<ResponseHandle>, Instant);

/// The lock-step generator.
struct Generator<'a> {
    server: &'a Server,
    pool: &'a Pool,
    in_flight: VecDeque<Vec<InFlight>>,
    next_group: usize,
    /// `Response.queue_wait` samples, kept on traced runs only.
    queue_wait_us: Option<Vec<f64>>,
}

impl Generator<'_> {
    fn submit_group(&mut self, out: &mut Outcome, tracer: &mut Tracer) {
        let base = self.next_group * BATCH;
        self.next_group = (self.next_group + 1) % GROUPS;
        let mut group = Vec::with_capacity(BATCH);
        for index in base..base + BATCH {
            out.attempted += 1;
            let start = Instant::now();
            let span = tracer.begin("submit", out.attempted);
            let handle = self.server.submit(self.pool.inputs[index].clone());
            tracer.end(span);
            let handle = match handle {
                Ok(h) => Some(h),
                Err(e) => {
                    out.miss(|| format!("submit refused: {e}"));
                    None
                }
            };
            group.push((index, handle, start));
        }
        self.in_flight.push_back(group);
    }

    fn collect_group(&mut self, lat_ns: &mut Vec<u64>, out: &mut Outcome, tracer: &mut Tracer) {
        let Some(group) = self.in_flight.pop_front() else {
            return;
        };
        for (index, handle, start) in group {
            let Some(handle) = handle else { continue };
            let span = tracer.begin("wait", handle.id() + 1);
            let answer = handle.wait_timeout(Duration::from_secs(30));
            let latency = start.elapsed();
            tracer.end(span);
            match answer {
                Ok(r) if r.prediction == self.pool.expected[index] && r.batch_size == BATCH => {
                    lat_ns.push(latency.as_nanos() as u64);
                    if let Some(waits) = self.queue_wait_us.as_mut() {
                        waits.push(r.queue_wait.as_secs_f64() * 1e6);
                    }
                }
                Ok(r) => out.miss(|| {
                    format!(
                        "request {} (input {index}): class {} in a batch of {}, offline plan says {} in a batch of {BATCH}",
                        r.id, r.prediction, r.batch_size, self.pool.expected[index]
                    )
                }),
                Err(e) => out.miss(|| format!("input {index}: {e}")),
            }
        }
    }
}

/// A complete cold set-up: start, first verified batch, shut down.
fn cold_setup(cfg: &ServerConfig, pool: &Pool) -> Result<(), String> {
    let server = Server::start(cfg.clone()).map_err(|e| e.to_string())?;
    let handles: Vec<ResponseHandle> = pool.inputs[..BATCH]
        .iter()
        .map(|x| server.submit(x.clone()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    for (handle, want) in handles.into_iter().zip(&pool.expected) {
        let r = handle.wait().map_err(|e| e.to_string())?;
        if r.prediction != *want {
            return Err(format!(
                "set-up answer {} differs from the offline plan's {want}",
                r.prediction
            ));
        }
    }
    server.shutdown().map_err(|e| e.to_string())?;
    Ok(())
}

pub fn run(spec: &RunSpec, quantized: bool, tracer: &mut Tracer) -> Result<Outcome, String> {
    let cfg = config(quantized);
    let model = ServedModel::load(&cfg.model, cfg.seed).map_err(|e| e.to_string())?;
    let pool = Pool::new(&model, spec.seed, quantized)?;
    let mut out = Outcome::default();
    out.facts.push((
        "segment",
        format!(
            "{BATCHES_PER_SEGMENT} batches of {BATCH} = {} requests, 2 groups in flight",
            BATCHES_PER_SEGMENT * BATCH
        ),
    ));

    let setup_s = time_setups(spec, SETUPS, &mut out, || cold_setup(&cfg, &pool))?;

    let server = Server::start(cfg.clone()).map_err(|e| e.to_string())?;
    let mut gen = Generator {
        server: &server,
        pool: &pool,
        in_flight: VecDeque::new(),
        next_group: 0,
        queue_wait_us: spec.trace.then(Vec::new),
    };
    gen.submit_group(&mut out, tracer);
    gen.submit_group(&mut out, tracer);
    let (untraced, traced) = run_live(spec, tracer, |log, tracer, _| {
        for cycle in 0..BATCHES_PER_SEGMENT {
            let span = tracer.begin("batch_cycle", cycle as u64);
            gen.collect_group(&mut log.lat_ns, &mut out, tracer);
            gen.submit_group(&mut out, tracer);
            tracer.end(span);
            log.probe();
        }
        Ok(())
    })?;
    // The two groups still in flight are answered and verified too, so the
    // lanes have priced a seed-independent number of full batches.
    let mut tail = Vec::new();
    gen.collect_group(&mut tail, &mut out, tracer);
    gen.collect_group(&mut tail, &mut out, tracer);
    let queue_wait_us = gen.queue_wait_us.take();
    let stats = server.shutdown().map_err(|e| e.to_string())?;

    if stats.batches.mean() != BATCH as f64 {
        out.miss(|| {
            format!(
                "mean batch size {} is not exactly {BATCH}",
                stats.batches.mean()
            )
        });
    }
    if stats.shed + stats.panicked + stats.drained > 0 || !stats.worker_errors.is_empty() {
        out.miss(|| {
            format!(
                "server shed {} panicked {} drained {} errors {:?}",
                stats.shed, stats.panicked, stats.drained, stats.worker_errors
            )
        });
    }
    let lanes = Lanes::of(&stats.schemes)?;
    let (baseline, seal_c, counter) = (lanes.baseline, lanes.seal_c, lanes.counter);
    if !(baseline.makespan_cycles < seal_c.makespan_cycles
        && seal_c.makespan_cycles < counter.makespan_cycles)
    {
        out.miss(|| "lane cycles are not ordered Baseline < SEAL-C < Counter".into());
    }
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

    // Replay: the benchmark itself calls each layer on the workload's inputs.
    let n = spec.replay_repeats;
    let mut m = trace_common(&out.segments, &traced);
    let groups: Vec<Vec<&Tensor>> = pool
        .inputs
        .chunks(BATCH)
        .map(|g| g.iter().collect())
        .collect();
    let per_group = GROUPS as f64;

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let sample = timed(tracer, "serve.sample", n, || {
        for _ in 0..GROUPS * BATCH {
            std::hint::black_box(model.sample(&mut rng));
        }
    }) / (GROUPS * BATCH) as f64;
    let concat = timed(tracer, "serve.concat_batch", n, || {
        for g in &groups {
            std::hint::black_box(
                model
                    .concat_batch(g)
                    .expect("pool inputs have the model's shape"),
            );
        }
    }) / per_group;

    let compile = timed(tracer, "nn.plan_compile", n, || {
        std::hint::black_box(
            model
                .compile_plan(BATCH, quantized)
                .expect("compiled in set-up already"),
        );
    });
    let mut plan = model
        .compile_plan(BATCH, quantized)
        .map_err(|e| e.to_string())?;
    let batches: Vec<Tensor> = groups
        .iter()
        .map(|g| model.concat_batch(g).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let exec_b8 = timed(tracer, "nn.plan_execute", n, || {
        for b in &batches {
            std::hint::black_box(plan.execute_into(b).expect("batch fits the plan"));
        }
    }) / per_group;
    let exec_b1 = timed(tracer, "nn.plan_execute_b1", n, || {
        for x in &pool.inputs[..GROUPS] {
            std::hint::black_box(plan.execute_into(x).expect("single sample fits the plan"));
        }
    }) / per_group;

    let mut cost = CostModel::new(model.topology(), &cfg).map_err(|e| e.to_string())?;
    (0..64).for_each(|_| cost.cost_batch(BATCH));
    let cost_batch = timed(tracer, "serve.cost_batch", n, || {
        (0..64).for_each(|_| cost.cost_batch(BATCH));
    }) / 64.0;

    let queue: BoundedQueue<u64> = BoundedQueue::new(cfg.queue_capacity);
    let push_pop = timed(tracer, "serve.queue_push_pop", n, || {
        for round in 0..64u64 {
            for i in 0..BATCH as u64 {
                let _ = queue.try_push(round * 8 + i);
            }
            std::hint::black_box(queue.pop_batch(BATCH, Duration::ZERO));
        }
    }) / 64.0;

    let (convs, fcs) = replay::gemm_shapes(model.model(), model.input_shape())?;
    let top = replay::three_largest(&convs);
    if quantized {
        let (gemm, quantize, gather) = replay::tensor_i8(&convs, &top, &fcs, BATCH, n, tracer);
        m.push(Metric::new("tensor.gemm_i8_us", gemm));
        m.push(Metric::new("tensor.quantize_rows_us", quantize));
        m.push(Metric::new("tensor.gather_patches_u8_us", gather));
    } else {
        let (gemm, im2col) = replay::tensor_f32(&convs, &top, BATCH, n, tracer);
        m.push(Metric::new("tensor.gemm_f32_us", gemm));
        m.push(Metric::new("tensor.im2col_us", im2col));
    }
    let gemms = replay::all_gemms_us(&convs, &fcs, quantized, BATCH, n, tracer);

    // What one batch costs the server beyond the three calls replayed
    // above: channels, mutexes, wake-ups, histogram records.
    let per_batch_us = BATCH as f64 / out.segments.throughput_rps() * 1e6;
    let unattributed = per_batch_us - (concat + exec_b8 + cost_batch);
    out.facts.push((
        "attribution",
        format!(
            "concat_batch {concat:.3} + plan_execute_b8 {exec_b8:.3} + cost_batch {cost_batch:.3} + unattributed {unattributed:.3} = {per_batch_us:.3} us = 8 / throughput_rps"
        ),
    ));

    let weight_bytes = model.topology().total_weight_bytes();
    m.extend([
        Metric::new("nn.plan_execute_b8_us", exec_b8),
        Metric::new("nn.plan_execute_b1_us", exec_b1),
        Metric::new("nn.plan_gemm_share", gemms / exec_b8),
        Metric::new("nn.plan_compile_us", compile),
        Metric::new("nn.plan_arena_kb", plan.arena_byte_size() as f64 / 1024.0),
        Metric::new("serve.concat_batch_us", concat),
        Metric::new("serve.sample_us", sample),
        Metric::new("serve.cost_batch_us", cost_batch),
        Metric::new("serve.queue_push_pop_us", push_pop),
        Metric::new(
            "serve.queue_wait_p50_us",
            at_reference(
                median(&queue_wait_us.unwrap_or_default()),
                median(&out.segments.clocks_ghz()),
            ),
        ),
        Metric::new("serve.batch_size_mean", stats.batches.mean()),
        Metric::new("serve.queue_depth_mean", stats.queue_depth.mean()),
        Metric::new("serve.shed", stats.shed as f64),
        Metric::new("serve.worker_errors", stats.worker_errors.len() as f64),
        Metric::new("serve.unattributed_us", unattributed),
    ]);
    m.extend(lanes.metrics(&cfg, weight_bytes, n, tracer)?);
    out.metrics = m;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_is_the_smoke_preset_on_one_worker_and_one_kernel_thread() {
        for quantized in [false, true] {
            let c = config(quantized);
            assert!(c.validate().is_ok());
            assert_eq!(
                (c.workers, c.kernel_threads, c.max_batch, c.queue_capacity),
                (1, 1, 8, 64)
            );
            assert_eq!(
                (c.model.as_str(), c.seed, c.quantized),
                ("vgg16", 7, quantized)
            );
        }
    }

    #[test]
    fn pool_is_a_function_of_the_seed() {
        let model = ServedModel::load("vgg16", 7).unwrap();
        let (a, b, c) = (
            Pool::new(&model, 3, false).unwrap(),
            Pool::new(&model, 3, false).unwrap(),
            Pool::new(&model, 4, false).unwrap(),
        );
        assert_eq!(a.inputs.len(), 64);
        assert_eq!(a.expected.len(), 64);
        assert!(a
            .inputs
            .iter()
            .zip(&b.inputs)
            .all(|(x, y)| x.as_slice() == y.as_slice()));
        assert_eq!(a.expected, b.expected);
        assert!(a.inputs[0].as_slice() != c.inputs[0].as_slice());
    }
}
