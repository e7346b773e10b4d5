//! The `seal-serve` CLI: drive the serving runtime under a load generator
//! and emit a JSON report.
//!
//! ```text
//! seal-serve [--smoke] [--model NAME] [--mode closed|open] [--requests N]
//!            [--concurrency N] [--rate RPS] [--workers N] [--max-batch N]
//!            [--deadline-us N] [--queue-cap N] [--ratio R] [--seed N]
//!            [--out PATH]
//! ```
//!
//! `--smoke` runs the CI preset (vgg16, ~100 closed-loop requests), writes
//! `results/serve_smoke.json` and *fails* (exit 1) if any smoke acceptance
//! property is violated — including the paper's scheme ordering, Baseline
//! throughput > SEAL-C > Counter. Exit codes: `0` ok, `1` violations,
//! `2` usage or runtime error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use seal_serve::netload::{run_drain, run_tcp, DrainLoadConfig, NetLoadConfig};
use seal_serve::netreport::{DrainPhase, NetPhase};
use seal_serve::{
    loadgen, ChaosRun, ChaosSmoke, NetServer, NetServerConfig, NetSmoke, QuantComparison,
    QuantLaneDelta, ServeReport, ServedModel, Server, ServerConfig, COSTED_SCHEMES,
};

const USAGE: &str = "usage: seal-serve [options]

  --smoke             CI preset: vgg16, 100 closed-loop requests, write
                      results/serve_smoke.json, fail on acceptance
                      violations (overrides model/mode/requests defaults)
  --chaos             chaos smoke: run the seeded fault schedule twice,
                      assert liveness (no hangs), integrity (no silent
                      corruptions) and determinism (identical fault and
                      recovery counts), write results/chaos_smoke.json
  --net-smoke         network smoke: serve skew-weighted tenants over real
                      loopback TCP (seal-net reactor + weighted-fair
                      admission), measure per-tenant latency and Jain's
                      fairness index, run the seeded byzantine-client
                      fault schedule twice (slow readers, pipeline abuse,
                      connect storms, disconnects) asserting exact typed
                      ledgers and determinism, then exercise graceful
                      drain twice asserting the zero-silent-drops
                      contract; write results/serve_net.json
  --tenants N         tenants for --net-smoke                   (default 8)
  --users N           distinct simulated users for --net-smoke
                      fairness phase                       (default 100000)
  --net-requests N    arrivals per --net-smoke chaos run     (default 2000)
  --fault-seed N      fault-plan seed for --chaos/--net-smoke   (default 42)
  --model NAME        zoo model: mlp | vgg16 | resnet18   (default vgg16)
  --mode MODE         closed | open                       (default closed)
  --requests N        requests to issue                   (default 100)
  --concurrency N     closed-loop client threads          (default 4)
  --rate RPS          open-loop arrival rate              (default 200)
  --workers N         serving worker threads              (default 2)
  --max-batch N       dynamic batching cap                (default 8)
  --deadline-us N     batching deadline in microseconds   (default 500)
  --queue-cap N       bounded queue capacity              (default 64)
  --ratio R           SEAL smart-encryption ratio in [0,1] (default 0.5)
  --seed N            weight/request RNG seed             (default 7)
  --out PATH          JSON report path (default results/serve_<mode>.json)

exit codes: 0 ok, 1 acceptance violations, 2 usage or runtime error";

struct Args {
    smoke: bool,
    chaos: bool,
    net_smoke: bool,
    tenants: u32,
    users: u64,
    net_requests: u64,
    fault_seed: u64,
    mode: String,
    requests: usize,
    concurrency: usize,
    rate: f64,
    out: Option<PathBuf>,
    config: ServerConfig,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        smoke: false,
        chaos: false,
        net_smoke: false,
        tenants: 8,
        users: 100_000,
        net_requests: 2_000,
        fault_seed: 42,
        mode: "closed".into(),
        requests: 100,
        concurrency: 4,
        rate: 200.0,
        out: None,
        config: ServerConfig::smoke(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match a.as_str() {
            "--help" | "-h" => return Ok(None),
            "--smoke" => args.smoke = true,
            "--chaos" => args.chaos = true,
            "--net-smoke" => args.net_smoke = true,
            "--tenants" => args.tenants = parse_num(&value("--tenants")?, "--tenants")?,
            "--users" => args.users = parse_num(&value("--users")?, "--users")?,
            "--net-requests" => {
                args.net_requests = parse_num(&value("--net-requests")?, "--net-requests")?
            }
            "--fault-seed" => {
                args.fault_seed = parse_num(&value("--fault-seed")?, "--fault-seed")?
            }
            "--model" => args.config.model = value("--model")?,
            "--mode" => args.mode = value("--mode")?,
            "--requests" => args.requests = parse_num(&value("--requests")?, "--requests")?,
            "--concurrency" => {
                args.concurrency = parse_num(&value("--concurrency")?, "--concurrency")?
            }
            "--rate" => args.rate = parse_float(&value("--rate")?, "--rate")?,
            "--workers" => args.config.workers = parse_num(&value("--workers")?, "--workers")?,
            "--max-batch" => {
                args.config.max_batch = parse_num(&value("--max-batch")?, "--max-batch")?
            }
            "--deadline-us" => {
                let us: u64 = parse_num(&value("--deadline-us")?, "--deadline-us")?;
                args.config.batch_deadline = std::time::Duration::from_micros(us);
            }
            "--queue-cap" => {
                args.config.queue_capacity = parse_num(&value("--queue-cap")?, "--queue-cap")?
            }
            "--ratio" => args.config.se_ratio = parse_float(&value("--ratio")?, "--ratio")?,
            "--seed" => args.config.seed = parse_num(&value("--seed")?, "--seed")?,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            s => return Err(format!("unknown argument {s}")),
        }
    }
    if usize::from(args.smoke) + usize::from(args.chaos) + usize::from(args.net_smoke) > 1 {
        return Err("--smoke, --chaos and --net-smoke are mutually exclusive".into());
    }
    if args.smoke {
        args.config.model = "vgg16".into();
        args.mode = "closed".into();
        args.requests = 100;
        args.out.get_or_insert(PathBuf::from("results/serve_smoke.json"));
    }
    if args.chaos {
        args.out.get_or_insert(PathBuf::from("results/chaos_smoke.json"));
    }
    if args.net_smoke {
        args.out.get_or_insert(PathBuf::from("results/serve_net.json"));
    }
    if args.mode != "closed" && args.mode != "open" {
        return Err(format!("--mode must be closed or open, got {}", args.mode));
    }
    Ok(Some(args))
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: `{s}` is not a valid number"))
}

fn parse_float(s: &str, flag: &str) -> Result<f64, String> {
    s.parse()
        .map_err(|_| format!("{flag}: `{s}` is not a valid number"))
}

/// The chaos smoke: run the seeded fault schedule twice in-process and
/// check liveness, integrity and determinism.
fn run_chaos(args: Args) -> Result<ExitCode, String> {
    let seed = args.fault_seed;
    println!(
        "seal-serve: chaos smoke, fault seed {seed}, {} requests x 2 runs",
        args.requests
    );
    // Planned worker panics are part of the schedule; keep their default
    // backtrace spew out of the smoke log. Anything else still prints.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("injected panic"));
        if !injected {
            default_hook(info);
        }
    }));
    let mut runs = Vec::with_capacity(2);
    for attempt in 1..=2 {
        let server =
            Server::start(ServerConfig::chaos_smoke(seed)).map_err(|e| e.to_string())?;
        let load = loadgen::run_chaos(&server, args.requests, args.concurrency)
            .map_err(|e| e.to_string())?;
        let stats = server.shutdown().map_err(|e| e.to_string())?;
        println!(
            "seal-serve: run {attempt}: {} completed, {} shed, {} panicked, {} oversized, {} timeouts",
            load.completed, load.shed, load.panicked, load.oversized_rejected, load.timeouts
        );
        if let Some(f) = &stats.faults {
            println!(
                "seal-serve: run {attempt}: {} tampers injected, {} detected, {} silent, {} stalls, {} storms, {} recoveries",
                f.tampers_injected,
                f.tampers_detected,
                f.silent_corruptions,
                f.stalls_injected,
                f.storms_injected,
                f.recoveries
            );
        }
        runs.push(ChaosRun { load, stats });
    }
    let runs: [ChaosRun; 2] = match runs.try_into() {
        Ok(r) => r,
        Err(_) => return Err("chaos smoke did not produce two runs".into()),
    };
    let smoke = ChaosSmoke { seed, runs };

    let out = args
        .out
        .unwrap_or_else(|| PathBuf::from("results/chaos_smoke.json"));
    smoke
        .write(&out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("seal-serve: chaos report written to {}", out.display());

    let violations = smoke.violations();
    if violations.is_empty() {
        println!("seal-serve: chaos checks clean (deterministic, live, no silent corruption)");
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &violations {
            eprintln!("seal-serve: VIOLATION: {v}");
        }
        Ok(ExitCode::from(1))
    }
}

/// One net-smoke phase: start a TCP server, drive it with the given load
/// configuration, and fold the client report and server shutdown stats
/// into a [`NetPhase`].
fn run_net_phase(
    server_cfg: &NetServerConfig,
    load_cfg: &NetLoadConfig,
) -> Result<NetPhase, String> {
    let server = NetServer::start(server_cfg.clone()).map_err(|e| e.to_string())?;
    let weights = server.registry().weights();
    let load = run_tcp(server.port(), &weights, load_cfg).map_err(|e| e.to_string())?;
    let stats = server.shutdown().map_err(|e| e.to_string())?;
    Ok(NetPhase { load, stats })
}

/// The network smoke: a clean weighted-fairness measurement over real
/// loopback TCP, then two same-fault-seed chaos runs whose fault ledgers
/// and counters must agree exactly.
fn run_net_smoke(args: Args) -> Result<ExitCode, String> {
    let seed = args.config.seed;
    let fault_seed = args.fault_seed;
    let mut server_cfg = NetServerConfig::smoke(args.tenants);
    server_cfg.base.seed = seed;
    println!(
        "seal-serve: net smoke, {} tenants, {} users, seed {seed}, fault seed {fault_seed}",
        args.tenants, args.users
    );

    let fairness = run_net_phase(&server_cfg, &NetLoadConfig::fairness(args.users, seed))?;
    println!(
        "seal-serve: fairness: {}/{} completed over TCP in {:.2}s, Jain index {:.4}",
        fairness.load.total_completed(),
        args.users,
        fairness.load.wall_seconds,
        fairness.load.jain_index()
    );
    let reactor = &fairness.stats.reactor;
    println!(
        "seal-serve: fairness: {} frames out in {} socket writes ({:.2} per write), {} wakeups",
        reactor.frames_out,
        reactor.socket_writes,
        reactor.frames_per_write(),
        reactor.wakeups
    );

    // Chaos runs get the governance-tightened preset: serial workers (so
    // the settle wave is a real barrier), a short mid-frame idle budget
    // for the slow-loris reap, and the small outbox/sndbuf that makes
    // slow readers hit write backpressure deterministically.
    let mut chaos_cfg = NetServerConfig::chaos_smoke(args.tenants);
    chaos_cfg.base.seed = seed;
    let chaos_load = NetLoadConfig::chaos(args.net_requests, seed, fault_seed);
    let mut chaos_runs = Vec::with_capacity(2);
    for attempt in 1..=2 {
        let phase = run_net_phase(&chaos_cfg, &chaos_load)?;
        println!(
            "seal-serve: chaos run {attempt}: {} completed, faults realized: {} malformed, \
             {} truncated, {} slow-loris, {} disconnects, {} slow-reader, {} pipeline-abuse, \
             {} connect-storm",
            phase.load.total_completed(),
            phase.load.realized.malformed,
            phase.load.realized.truncated,
            phase.load.realized.slow_loris,
            phase.load.realized.disconnects,
            phase.load.realized.slow_reader,
            phase.load.realized.pipeline_abuse,
            phase.load.realized.connect_storm
        );
        chaos_runs.push(phase);
    }
    let chaos: [NetPhase; 2] = match chaos_runs.try_into() {
        Ok(r) => r,
        Err(_) => return Err("net smoke did not produce two chaos runs".into()),
    };

    // Two same-fault-seed graceful-drain exercises: every client must see
    // a GOAWAY, every post-drain request a typed reject, and both runs
    // must produce bit-identical reports.
    let mut drain_runs = Vec::with_capacity(2);
    for attempt in 1..=2 {
        let server = NetServer::start(server_cfg.clone()).map_err(|e| e.to_string())?;
        let weights = server.registry().weights();
        let drain_cfg = DrainLoadConfig::smoke(fault_seed);
        let load = run_drain(server.port(), &weights, &drain_cfg, || server.begin_drain())
            .map_err(|e| e.to_string())?;
        let stats = server
            .finish_drain(Duration::from_secs(5))
            .map_err(|e| e.to_string())?;
        println!(
            "seal-serve: drain run {attempt}: {} pre-drain completed, {} GOAWAYs, \
             {} typed drain rejects, {} clients vanished mid-drain",
            load.pre_completed, load.goaways, load.post_rejected, load.realized_disconnects
        );
        drain_runs.push(DrainPhase { load, stats });
    }
    let drain: [DrainPhase; 2] = match drain_runs.try_into() {
        Ok(r) => r,
        Err(_) => return Err("net smoke did not produce two drain runs".into()),
    };

    let smoke = NetSmoke {
        seed,
        fault_seed,
        fairness,
        chaos,
        drain,
        jain_floor: 0.9,
    };
    for t in &smoke.fairness.load.per_tenant {
        println!(
            "seal-serve:   tenant {:>2} (weight {}): {:>6} completed  p50={}us p95={}us p99={}us",
            t.tenant,
            t.weight,
            t.completed,
            t.latency.p50(),
            t.latency.p95(),
            t.latency.p99()
        );
    }

    let out = args
        .out
        .unwrap_or_else(|| PathBuf::from("results/serve_net.json"));
    smoke
        .write(&out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("seal-serve: net report written to {}", out.display());

    let violations = smoke.violations();
    if violations.is_empty() {
        println!(
            "seal-serve: net checks clean (fair, deterministic, fault ledger exact, \
             drain dropped nothing)"
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &violations {
            eprintln!("seal-serve: VIOLATION: {v}");
        }
        Ok(ExitCode::from(1))
    }
}

fn run(args: Args) -> Result<ExitCode, String> {
    if args.chaos {
        return run_chaos(args);
    }
    if args.net_smoke {
        return run_net_smoke(args);
    }
    let config = args.config.clone();
    let server = Server::start(config.clone()).map_err(|e| e.to_string())?;
    println!(
        "seal-serve: model={} workers={} max_batch={} deadline={}us queue={} ratio={}",
        config.model,
        config.workers,
        config.max_batch,
        config.batch_deadline.as_micros(),
        config.queue_capacity,
        config.se_ratio
    );
    let load = if args.mode == "closed" {
        loadgen::run_closed(&server, args.requests, args.concurrency, config.seed)
    } else {
        loadgen::run_open(&server, args.requests, args.rate, config.seed)
    }
    .map_err(|e| e.to_string())?;
    let stats = server.shutdown().map_err(|e| e.to_string())?;
    let mut report = ServeReport {
        config,
        load,
        stats,
        quant_comparison: None,
    };
    // Smoke runs add a second pass: the same workload through the int8
    // quantized plan, with every lane re-priced at int8 traffic. The
    // report then carries the per-scheme f32-vs-int8 lane deltas — the
    // quantization story told in the SEAL cost domain.
    if args.smoke && !report.config.quantized {
        let q_config = ServerConfig {
            quantized: true,
            ..report.config.clone()
        };
        let server = Server::start(q_config).map_err(|e| e.to_string())?;
        let q_load = loadgen::run_closed(&server, args.requests, args.concurrency, report.config.seed)
            .map_err(|e| e.to_string())?;
        let q_stats = server.shutdown().map_err(|e| e.to_string())?;
        let lanes: Vec<QuantLaneDelta> = COSTED_SCHEMES
            .iter()
            .filter_map(|&scheme| {
                let f32_lane = report
                    .stats
                    .schemes
                    .iter()
                    .find(|r| r.scheme == scheme)?
                    .clone();
                let int8_lane = q_stats.schemes.iter().find(|r| r.scheme == scheme)?.clone();
                Some(QuantLaneDelta {
                    scheme,
                    f32_lane,
                    int8_lane,
                })
            })
            .collect();
        let served = ServedModel::load(&report.config.model, report.config.seed)
            .map_err(|e| e.to_string())?;
        let comparison = QuantComparison {
            f32_rps: report.load.observed_throughput_rps,
            int8_rps: q_load.observed_throughput_rps,
            lanes,
            reference: QuantComparison::reference_lanes(served.topology(), &report.config)
                .map_err(|e| e.to_string())?,
        };
        println!(
            "seal-serve: int8 plan {:.1} req/s vs f32 plan {:.1} req/s ({:.2}x)",
            comparison.int8_rps,
            comparison.f32_rps,
            comparison.speedup()
        );
        for lane in &comparison.reference {
            println!(
                "seal-serve:   {:>8} lane, one batch of {}: int8 enc bytes x{:.3}, makespan x{:.3}",
                lane.scheme.label(),
                report.config.max_batch,
                lane.enc_bytes_ratio(),
                lane.makespan_ratio()
            );
        }
        report.quant_comparison = Some(comparison);
    }

    let out = args
        .out
        .unwrap_or_else(|| PathBuf::from(format!("results/serve_{}.json", report.load.mode.name())));
    report
        .write(&out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;

    println!(
        "seal-serve: {} mode, {}/{} completed ({} rejected), {:.1} req/s, p50={}us p99={}us",
        report.load.mode.name(),
        report.load.completed,
        report.load.requested,
        report.load.rejected,
        report.load.observed_throughput_rps,
        report.load.latency.p50(),
        report.load.latency.p99()
    );
    for row in &report.stats.schemes {
        println!(
            "seal-serve:   {:<10} {:>14} enc bytes  {:>14} cycles  {:>10.1} rps  slowdown {:.3}x",
            row.scheme.label(),
            row.enc_bytes,
            row.makespan_cycles,
            row.throughput_rps,
            row.slowdown_vs_baseline
        );
    }
    println!("seal-serve: report written to {}", out.display());

    let violations = report.smoke_violations();
    if violations.is_empty() {
        println!("seal-serve: acceptance checks clean");
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &violations {
            eprintln!("seal-serve: VIOLATION: {v}");
        }
        Ok(ExitCode::from(1))
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Some(args)) => match run(args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("seal-serve: {e}");
                ExitCode::from(2)
            }
        },
        Ok(None) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("seal-serve: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
