//! Golden checksum of the simulated results behind every paper figure.
//!
//! Host-side optimisations of `seal-gpusim` / `seal-crypto` may move host
//! time only. This pins the FNV-1a over every field of every `SimReport`
//! of the full-size paper sweep (VGG-16 + ResNet-18 × all five schemes on
//! the GTX480 at the default SE policy and batch), so a change that shifts
//! a single simulated cycle, request count or counter-cache outcome fails
//! here, before any figure is regenerated.

use seal_core::workload::{network_workloads, DEFAULT_BATCH};
use seal_core::{EncryptionPlan, Scheme, SePolicy};
use seal_gpusim::{GpuConfig, SimReport, Simulator};
use seal_nn::models::{resnet18_topology, vgg16_topology};

/// The value the generator and simulator produced before the trace was
/// streamed (computed at the parent of the streaming change).
const GOLDEN: u64 = 0x5a7d_28ae_a2e5_772c;

struct Fnv(u64);

impl Fnv {
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

#[test]
fn paper_sweep_sim_reports_match_the_pinned_checksum() {
    let config = GpuConfig::gtx480();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut runs = 0usize;
    for topo in [vgg16_topology(), resnet18_topology()] {
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default()).unwrap();
        for scheme in Scheme::ALL {
            let sim = Simulator::new(config.clone(), scheme.mode()).unwrap();
            for wl in network_workloads(&topo, &plan, scheme, DEFAULT_BATCH).unwrap() {
                h.report(&sim.run(&wl).unwrap());
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 200, "two networks x five schemes x every layer");
    assert_eq!(
        h.0, GOLDEN,
        "simulated results moved: checksum {:#018x} over {runs} runs",
        h.0
    );
}
