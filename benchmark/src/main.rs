//! `seal-benchmark` — one workload per process, every answer verified,
//! every metric printed by name with its unit. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_f32 --seed 1 [--seconds 20] [--trace 1] [--quick]
//! ```
//!
//! The last line of standard output is the result object the driver
//! reads: end-to-end metrics for `--trace 0`, per-layer metrics for
//! `--trace 1`.

mod hostclock;
mod net;
mod procfs;
mod replay;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use report::Metric;
use stats::{SegmentLog, Segments};
use trace::Tracer;

/// The four workloads, in suite order.
pub const WORKLOADS: [&str; 4] = ["serve_f32", "serve_int8", "net_tenants", "sim_paper"];

/// Discarded segments before measuring: caches fill, plans compile, the
/// counter lanes pass their cold start.
pub const WARMUP_SEGMENTS: usize = 2;
/// A segment is sized to last about one second on the reference host, so
/// `--seconds N` measures `N` segments of identical, seed-determined work.
const DEFAULT_SECONDS: usize = 20;
const QUICK_SEGMENTS: usize = 3;
const QUICK_SETUPS: usize = 5;
/// Replay repeats behind every per-layer timing.
const REPLAY_REPEATS: usize = 30;
const QUICK_REPLAY_REPEATS: usize = 10;

/// What one process is asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    pub workload: &'static str,
    pub seed: u64,
    /// Measured segments of an untraced run; untraced/traced segment
    /// *pairs* of a traced run.
    pub segments: usize,
    /// Cold set-ups behind `setup_s`; `None` = the workload's own count.
    pub setups: Option<usize>,
    pub trace: bool,
    pub replay_repeats: usize,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The measured (untraced) segments, for the disturbance report.
    pub segments: Segments,
    /// Segment size and other facts written into the run record.
    pub facts: Vec<(&'static str, String)>,
    /// First few verification misses, spelled out.
    pub misses: Vec<String>,
}

impl Outcome {
    /// Counts one op that was refused, failed, timed out or answered
    /// wrongly, keeping the first few explanations.
    pub fn miss(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.misses.len() < 8 {
            self.misses.push(why());
        }
    }
}

/// The live phase both run kinds share: warm-up, then either `segments`
/// measured segments, or `segments` pairs of one untraced and one traced
/// segment (so host drift hits both sides of the overhead ratio alike).
pub fn run_live(
    spec: &RunSpec,
    tracer: &mut Tracer,
    mut segment: impl FnMut(&mut SegmentLog, &mut Tracer, u64) -> Result<(), String>,
) -> Result<(Segments, Segments), String> {
    let mut log = SegmentLog::default();
    let mut number = 0u64;
    let mut one = |tracer: &mut Tracer, log: &mut SegmentLog| {
        number += 1;
        let n = number;
        stats::measure_segment(log, |l| {
            let span = tracer.begin("segment", n);
            let out = segment(l, tracer, n);
            tracer.end(span);
            out
        })
    };
    for _ in 0..WARMUP_SEGMENTS {
        one(tracer, &mut log)?;
    }
    let (mut untraced, mut traced) = (Segments::default(), Segments::default());
    for _ in 0..spec.segments {
        untraced.0.push(one(tracer, &mut log)?);
        if spec.trace {
            tracer.set_enabled(true);
            let stat = one(tracer, &mut log);
            tracer.set_enabled(false);
            traced.0.push(stat?);
        }
    }
    Ok((untraced, traced))
}

/// Fast-decile seconds, at the reference clock, of a workload's complete
/// cold set-ups; each is restated with the clock read right after it.
/// `own_count` is the workload's count for a full untraced run; a traced
/// run reports no set-up time, so one set-up (as a check) is enough there.
pub fn time_setups(
    spec: &RunSpec,
    own_count: usize,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let count = if spec.trace {
        1
    } else {
        spec.setups.unwrap_or(own_count)
    };
    out.facts.push(("setups", count.to_string()));
    let mut secs = Vec::with_capacity(count);
    for _ in 0..count {
        let t = std::time::Instant::now();
        setup()?;
        let s = t.elapsed().as_secs_f64();
        secs.push(hostclock::at_reference(s, hostclock::clock_now_ghz()));
    }
    Ok(stats::fast_decile_low(&secs))
}

/// The end-to-end metrics every workload reports, from its measured
/// segments plus the three figures only the workload knows.
pub fn end_to_end(segments: &Segments, setup_s: f64, seal_c: f64, counter: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s),
        Metric::new("throughput_rps", segments.throughput_rps()),
        Metric::new("latency_p50_us", segments.latency_p50_us()),
        Metric::new("latency_p99_us", segments.latency_p99_us()),
        Metric::new("cpu_us_per_op", segments.cpu_us_per_op()),
        Metric::new("peak_rss_mb", procfs::peak_rss_mib()),
        Metric::new("seal_c_slowdown", seal_c),
        Metric::new("counter_slowdown", counter),
    ]
}

/// The guard and tracing figures every traced run reports.
pub fn trace_common(untraced: &Segments, traced: &Segments) -> Vec<Metric> {
    let base = untraced.throughput_rps();
    vec![
        Metric::new("pool.kernel_threads", seal_pool::current_threads() as f64),
        Metric::new("tensor.kernel_mode", replay::kernel_mode_code()),
        Metric::new("host.clock_ghz", stats::median(&untraced.clocks_ghz())),
        Metric::new(
            "trace_overhead_ratio",
            if base > 0.0 {
                traced.throughput_rps() / base
            } else {
                0.0
            },
        ),
    ]
}

const USAGE: &str =
    "usage: seal-benchmark --workload <serve_f32|serve_int8|net_tenants|sim_paper> \
--seed <n> [--seconds <n>] [--trace <0|1>] [--quick]";

/// Parses the command line (without the program name).
fn parse_args(args: &[String]) -> Result<RunSpec, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == name.as_str())
                        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let n = value("--seconds")?
                    .parse::<usize>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&n) {
                    return Err("--seconds must be 1..=60".into());
                }
                seconds = Some(n);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    let segments = if quick {
        QUICK_SEGMENTS
    } else {
        seconds.unwrap_or(DEFAULT_SECONDS)
    };
    Ok(RunSpec {
        workload,
        seed,
        // A traced run spends about half its time on segment pairs and
        // half on the replay, so it lasts about as long as an untraced one.
        segments: if trace {
            (segments / 4).max(2)
        } else {
            segments
        },
        setups: quick.then_some(QUICK_SETUPS),
        trace,
        replay_repeats: if quick {
            QUICK_REPLAY_REPEATS
        } else {
            REPLAY_REPEATS
        },
    })
}

/// Refuses configurations whose numbers would not be comparable: the
/// kernel pool or ISA path overridden from outside.
fn environment_guard() -> Result<(), String> {
    for var in ["SEAL_THREADS", "SEAL_KERNEL"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set: the benchmark pins kernel_threads=1 and the detected ISA path; unset it"
            ));
        }
    }
    Ok(())
}

fn run(args: &[String]) -> Result<bool, String> {
    let spec = parse_args(args)?;
    environment_guard()?;
    let nproc = procfs::nproc();
    // One CPU for every thread the run will start: see `hostclock`.
    let cpu = hostclock::pin_to_one_cpu()?;
    // One kernel thread, configured before anything can start the pool.
    seal_pool::configure(1).map_err(|e| format!("kernel pool: {e}"))?;
    let load_start = procfs::loadavg();

    let mut tracer = Tracer::new();
    let mut outcome = match spec.workload {
        "serve_f32" => serve::run(&spec, false, &mut tracer),
        "serve_int8" => serve::run(&spec, true, &mut tracer),
        "net_tenants" => net::run(&spec, &mut tracer),
        _ => sim::run(&spec, &mut tracer),
    }?;

    if spec.trace {
        outcome
            .metrics
            .push(Metric::new("trace.spans", tracer.spans().len() as f64));
    }
    let declared = if spec.trace {
        &report::PER_LAYER[..]
    } else {
        &report::END_TO_END[..]
    };
    let rows = report::layout(declared, &outcome.metrics)?;
    if outcome.attempted == 0 {
        outcome.attempted = 1;
        outcome.miss(|| "no op was attempted".into());
    }

    println!(
        "# seal-benchmark {} ({})",
        spec.workload,
        if spec.trace { "traced" } else { "untraced" }
    );
    println!("commit            {}", report::git_commit(Path::new(".")));
    println!("seed              {}", spec.seed);
    println!(
        "tensor.kernel_mode {}",
        seal_tensor::ops::kernel_mode().name()
    );
    println!("pool.kernel_threads {}", seal_pool::current_threads());
    println!(
        "segments          {} warm-up + {} measured{}",
        WARMUP_SEGMENTS,
        outcome.segments.0.len(),
        if spec.trace {
            " (+ as many traced)"
        } else {
            ""
        }
    );
    for (key, value) in &outcome.facts {
        println!("{key:<17} {value}");
    }
    println!("nproc             {nproc}, every thread pinned to cpu {cpu}");
    println!(
        "loadavg           {load_start} at start, {} at end",
        procfs::loadavg()
    );
    println!(
        "segment_iqr_ratio {:.6}",
        outcome.segments.segment_iqr_ratio()
    );
    let row = |values: Vec<f64>, digits: usize| -> String {
        let cells: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
        cells.join(" ")
    };
    let segments = &outcome.segments;
    println!(
        "reference clock   {} GHz: every timing below is time x measured clock / {0} GHz",
        hostclock::REFERENCE_GHZ
    );
    println!("segment clock GHz {}", row(segments.clocks_ghz(), 2));
    println!("segment rps, raw  {}", row(segments.raw_throughputs(), 0));
    println!("segment rps @ref  {}", row(segments.throughputs(), 0));
    println!(
        "ops               attempted {} succeeded {} failed {}",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed
    );
    println!(
        "fail_ratio        {}",
        outcome.failed as f64 / outcome.attempted as f64
    );
    for why in &outcome.misses {
        println!("MISS              {why}");
    }
    for (name, value, unit) in &rows {
        println!("{name:<40} {value:>18.6} {unit}");
    }
    if spec.trace {
        let path = Path::new("benchmark/out").join(format!("trace_{}.json", spec.workload));
        tracer
            .write_file(spec.workload, &path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace             {} ({} spans)",
            path.display(),
            tracer.spans().len()
        );
        println!("self time by span name (count, total ms, self ms):");
        for (name, t) in tracer.totals() {
            println!(
                "  {name:<28} {:>9} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    println!(
        "{}",
        report::result_line(outcome.attempted, outcome.failed, &rows)
    );
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("seal-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let spec = parse_args(&args(
            "--workload net_tenants --seed 9 --seconds 20 --trace 0",
        ))
        .unwrap();
        assert_eq!(spec.workload, "net_tenants");
        assert_eq!((spec.seed, spec.segments), (9, 20));
        assert!(!spec.trace);
        assert_eq!(spec.setups, None);
        let traced = parse_args(&args(
            "--workload sim_paper --seed 1 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert!(traced.trace);
        assert_eq!(traced.segments, 5);
    }

    #[test]
    fn quick_mode_shrinks_everything() {
        let spec = parse_args(&args("--workload serve_f32 --seed 1 --quick")).unwrap();
        assert_eq!((spec.segments, spec.setups), (3, Some(5)));
        assert_eq!(spec.replay_repeats, QUICK_REPLAY_REPEATS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload serve_f32",
            "--seed 1",
            "--workload train_step --seed 1",
            "--workload serve_f32 --seed x",
            "--workload serve_f32 --seed 1 --trace 2",
            "--workload serve_f32 --seed 1 --seconds 0",
            "--workload serve_f32 --seed 1 --seconds 61",
            "--workload serve_f32 --seed 1 --frobnicate",
            "--workload serve_f32 --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn run_live_pairs_untraced_and_traced_segments() {
        let mut tracer = Tracer::new();
        let mut spec =
            parse_args(&args("--workload sim_paper --seed 1 --quick --trace 1")).unwrap();
        spec.segments = 3;
        let mut calls = Vec::new();
        let (untraced, traced) = run_live(&spec, &mut tracer, |log, tr, n| {
            calls.push(n);
            tr.span("op", n, || log.lat_ns.push(1_000));
            Ok(())
        })
        .unwrap();
        assert_eq!(calls, (1..=8).collect::<Vec<u64>>());
        assert_eq!((untraced.0.len(), traced.0.len()), (3, 3));
        // Only the traced half recorded: one segment span + one op span each.
        assert_eq!(tracer.spans().len(), 6);
        assert!(tracer.spans().iter().all(|s| [4, 6, 8].contains(&s.op)));
        spec.trace = false;
        let (untraced, traced) = run_live(&spec, &mut tracer, |log, _, _| {
            log.lat_ns.push(5);
            Ok(())
        })
        .unwrap();
        assert_eq!((untraced.0.len(), traced.0.len()), (3, 0));
    }
}
