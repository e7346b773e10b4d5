//! Golden checksum of the simulated results behind every paper figure.
//!
//! Host-side optimisations of `seal-gpusim` / `seal-crypto` may move host
//! time only. This pins the FNV-1a over every field of every `SimReport`
//! of the full-size paper sweep (VGG-16 + ResNet-18 × all five schemes on
//! the GTX480 at the default SE policy and batch), so a change that shifts
//! a single simulated cycle, request count or counter-cache outcome fails
//! here, before any figure is regenerated.
//!
//! The configurations the paper sweep does not reach are pinned beside it,
//! each recorded before the simulator's per-request loop was specialised
//! per mode: banked DRAM timing, two and three engines per controller, the
//! 16- and 2-channel extension platforms, and the Fig. 1 tiled matmul
//! across the counter-cache sweep.

use seal_core::workload::{matmul_workload, network_workloads, DEFAULT_BATCH};
use seal_core::{EncryptionPlan, Scheme, SePolicy};
use seal_gpusim::{DramTiming, EncryptionMode, GpuConfig, SimReport, Simulator};
use seal_nn::models::{resnet18_topology, vgg16_topology};
use seal_nn::NetworkTopology;

/// The value the generator and simulator produced before the trace was
/// streamed (computed at the parent of the streaming change).
const GOLDEN: u64 = 0x5a7d_28ae_a2e5_772c;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn report(&mut self, r: &SimReport) {
        for v in [
            r.cycles.to_bits(),
            r.instructions,
            r.requests,
            r.traffic_bytes,
            r.encrypted_bytes,
        ] {
            self.eat(v);
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
                self.eat(v);
            }
        }
    }
}

/// FNV-1a over every report of `topos` × all five schemes on `config`,
/// and the number of runs it hashed.
fn sweep(config: &GpuConfig, topos: &[NetworkTopology]) -> (u64, usize) {
    let mut h = Fnv::new();
    let mut runs = 0usize;
    for topo in topos {
        let plan = EncryptionPlan::from_topology(topo, SePolicy::paper_default()).unwrap();
        for scheme in Scheme::ALL {
            let sim = Simulator::new(config.clone(), scheme.mode()).unwrap();
            for wl in network_workloads(topo, &plan, scheme, DEFAULT_BATCH).unwrap() {
                h.report(&sim.run(&wl).unwrap());
                runs += 1;
            }
        }
    }
    (h.0, runs)
}

#[test]
fn paper_sweep_sim_reports_match_the_pinned_checksum() {
    let (hash, runs) = sweep(
        &GpuConfig::gtx480(),
        &[vgg16_topology(), resnet18_topology()],
    );
    assert_eq!(runs, 200, "two networks x five schemes x every layer");
    assert_eq!(
        hash, GOLDEN,
        "simulated results moved: checksum {hash:#018x} over {runs} runs"
    );
}

/// Pins `config`'s ResNet-18 sweep (19 layers × five schemes).
fn assert_resnet_sweep(name: &str, config: &GpuConfig, want: u64) {
    let (hash, runs) = sweep(config, &[resnet18_topology()]);
    assert_eq!(runs, 95, "{name}: five schemes x every ResNet-18 layer");
    assert_eq!(
        hash, want,
        "{name}: simulated results moved: checksum {hash:#018x}"
    );
}

#[test]
fn banked_dram_timing_matches_the_pinned_checksum() {
    let config = GpuConfig::gtx480().with_dram_timing(DramTiming::gddr5_banked());
    assert_resnet_sweep("gtx480, banked", &config, 0x4571_aa09_1121_5c8b);
}

#[test]
fn two_and_three_engines_per_controller_match_the_pinned_checksums() {
    for (engines, want) in [(2, 0x8251_9ba9_8ab7_f446), (3, 0x46d0_3c49_35f3_6ede)] {
        let config = GpuConfig::gtx480().with_engines_per_mc(engines);
        assert_resnet_sweep(&format!("gtx480, {engines} engines"), &config, want);
    }
}

#[test]
fn extension_platforms_match_the_pinned_checksums() {
    for (config, want) in [
        (GpuConfig::hbm_accelerator(), 0xae22_d9c6_604a_c18a),
        (GpuConfig::edge_npu(), 0x65f5_88d3_884c_df71),
    ] {
        assert_resnet_sweep(&config.name, &config, want);
    }
}

#[test]
fn fig1_tiled_matmul_matches_the_pinned_checksums() {
    let wl = matmul_workload(512, true).unwrap();
    for (kb, want) in [
        (24, 0xa5d1_95e1_4aa2_0e3e),
        (96, 0x8046_340d_34bc_b3e2),
        (1536, 0x5859_7292_ad0c_0fba),
    ] {
        let mut h = Fnv::new();
        for mode in [
            EncryptionMode::None,
            EncryptionMode::Direct,
            EncryptionMode::Counter,
        ] {
            let config = GpuConfig::gtx480().with_counter_cache_kb(kb);
            h.report(&Simulator::new(config, mode).unwrap().run(&wl).unwrap());
        }
        assert_eq!(
            h.0, want,
            "matmul512 at {kb} KB: simulated results moved: checksum {:#018x}",
            h.0
        );
    }
}

/// The Fig. 1 `--full` matmul, the one in-tree workload whose lane counts
/// fail the pacing period's exactness bound (lcm ≈ 6.9·10⁹): its trace
/// comes from the run-by-run merge. Baseline, then counter mode at 24 KB.
#[test]
fn fig1_full_matmul_fallback_matches_the_pinned_checksums() {
    let wl = matmul_workload(1024, true).unwrap();
    let config = GpuConfig::gtx480().with_counter_cache_kb(24);
    for (mode, want) in [
        (EncryptionMode::None, 0xc9a8_03ac_42b9_d645),
        (EncryptionMode::Counter, 0x8124_d99f_3478_e3cc),
    ] {
        let mut h = Fnv::new();
        h.report(
            &Simulator::new(config.clone(), mode)
                .unwrap()
                .run(&wl)
                .unwrap(),
        );
        assert_eq!(
            h.0, want,
            "matmul1024 {mode:?}: simulated results moved: checksum {:#018x}",
            h.0
        );
    }
}
