//! Roofline validation of the simulator: no simulated layer may ever beat
//! the analytic lower bounds implied by the hardware model, and
//! bandwidth-bound layers must come close to them.

use seal::core::{network_workloads, EncryptionPlan, Scheme, SePolicy};
use seal::gpusim::{GpuConfig, Simulator, Workload};
use seal::nn::models::vgg16_topology;

/// Analytic lower bound on cycles for one workload under a given mode.
fn lower_bound(cfg: &GpuConfig, wl: &Workload, encrypted: bool) -> f64 {
    let clock = cfg.core_clock_ghz * 1e9;
    // Front-end bound.
    let frontend = wl.instructions() as f64 / (cfg.peak_issue_per_cycle * wl.frontend_efficiency());
    // DRAM bandwidth bound (per-channel service at the workload's
    // efficiency; requests() knows the real line count incl. partial lines).
    let lines = wl.requests(cfg.line_bytes).len() as f64;
    let bytes = lines * cfg.line_bytes as f64;
    let dram = bytes / (cfg.total_dram_gbps * 1e9 * wl.dram_efficiency()) * clock;
    // Engine bandwidth bound over encrypted lines only.
    let engine = if encrypted {
        let enc_lines = wl.requests(cfg.line_bytes).filter(|r| r.encrypted).count() as f64;
        (enc_lines * cfg.line_bytes as f64)
            / (cfg.engine.throughput_gbps
                * 1e9
                * cfg.num_channels as f64
                * cfg.engines_per_mc as f64)
            * clock
    } else {
        0.0
    };
    frontend.max(dram).max(engine)
}

#[test]
fn simulated_cycles_never_beat_the_roofline() {
    let cfg = GpuConfig::gtx480();
    let topo = vgg16_topology();
    let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
    for scheme in [Scheme::Baseline, Scheme::Direct, Scheme::SealDirect] {
        let sim = Simulator::new(cfg.clone(), scheme.mode()).unwrap();
        for wl in network_workloads(&topo, &plan, scheme, 4).unwrap() {
            let r = sim.run(&wl).unwrap();
            let bound = lower_bound(&cfg, &wl, scheme.encrypts());
            assert!(
                r.cycles >= bound * 0.999,
                "{} under {scheme}: {} cycles beats roofline {bound}",
                wl.name(),
                r.cycles
            );
        }
    }
}

#[test]
fn bandwidth_bound_layers_track_the_roofline_closely() {
    // Under full Direct encryption the big CONV layers are engine-bound:
    // the simulator should land within ~30% of the engine roofline (the
    // slack is queueing + latency tails), not multiples of it.
    let cfg = GpuConfig::gtx480();
    let topo = vgg16_topology();
    let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
    let sim = Simulator::new(cfg.clone(), Scheme::Direct.mode()).unwrap();
    for wl in network_workloads(&topo, &plan, Scheme::Direct, 4).unwrap() {
        if wl.traffic_bytes() < 4 << 20 {
            continue; // skip latency-dominated small layers
        }
        let r = sim.run(&wl).unwrap();
        let bound = lower_bound(&cfg, &wl, true);
        let slack = r.cycles / bound;
        assert!(
            slack < 1.35,
            "{}: simulated {} vs roofline {bound} (×{slack:.2})",
            wl.name(),
            r.cycles
        );
    }
}

#[test]
fn baseline_large_layers_touch_their_binding_resource() {
    let cfg = GpuConfig::gtx480();
    let topo = vgg16_topology();
    let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
    let sim = Simulator::new(cfg.clone(), Scheme::Baseline.mode()).unwrap();
    let mut checked = 0;
    for wl in network_workloads(&topo, &plan, Scheme::Baseline, 4).unwrap() {
        if wl.traffic_bytes() < 4 << 20 {
            continue;
        }
        let r = sim.run(&wl).unwrap();
        let bound = lower_bound(&cfg, &wl, false);
        assert!(
            r.cycles < bound * 1.5,
            "{}: baseline {} should sit near max(frontend, dram) = {bound}",
            wl.name(),
            r.cycles
        );
        checked += 1;
    }
    assert!(checked >= 5, "enough large layers exercised: {checked}");
}
