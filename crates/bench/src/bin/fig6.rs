//! Figure 6 — normalized IPC of the five VGG POOL layers under the five
//! schemes.
//!
//! POOL layers have almost no arithmetic per byte, so they are the most
//! bandwidth-bound workload in the network. Paper expectation:
//! Direct/Counter cost up to ~50% (worse than CONV); SEAL-D/SEAL-C recover
//! +66%/+44%.

use seal_bench::{banner, cell, header, row, RunMode};
use seal_core::workload::{layer_workload, NetworkSimResult};
use seal_core::{traffic::network_traffic, EncryptionPlan, Scheme, SePolicy};
use seal_gpusim::{GpuConfig, Simulator};
use seal_nn::NetworkTopology;
use seal_tensor::Shape;

/// The five POOL layers of VGG at the original resolutions; quick mode
/// scales spatially by 4×.
fn pool_layers(mode: RunMode) -> Vec<NetworkTopology> {
    let scale = if mode.is_full() { 1 } else { 4 };
    [
        (64usize, 224usize),
        (128, 112),
        (256, 56),
        (512, 28),
        (512, 14),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(ch, hw))| {
        let hw = (hw / scale).max(4);
        NetworkTopology::build(format!("POOL-{}", i + 1), Shape::nchw(1, ch, hw, hw))
            .expect("static geometry")
            .pool("pool", 2, 2)
            .expect("static geometry")
            .finish()
    })
    .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mode = RunMode::from_args();
    banner("Figure 6 — normalized IPC for POOL layers", mode);

    // A POOL layer's feature maps inherit the 50% channel encryption of
    // the CONV layers around it. A standalone pool topology has no kernel
    // matrix, so splice the pool between a producer and consumer plan by
    // assigning the fractions directly: we emulate this by building a
    // conv-pool-conv sandwich and reporting only the pool layer.
    let policy = SePolicy {
        ratio: 0.5,
        boundary_full_encryption: false,
        metric: seal_core::ImportanceMetric::L1,
    };
    let cfg = GpuConfig::gtx480();

    header(
        &["layer", "Baseline", "Direct", "Counter", "SEAL-D", "SEAL-C"],
        &[10, 9, 9, 9, 9, 9],
    );
    let mut speedup_d = Vec::new();
    let mut speedup_c = Vec::new();
    for pool_only in pool_layers(mode) {
        // Sandwich: conv (same channels) → pool → conv, then report the
        // pool layer's IPC.
        let ch = pool_only.layers()[0].in_channels();
        let hw = pool_only.layers()[0].ifmap.dim(2);
        let topo = NetworkTopology::build(pool_only.name(), Shape::nchw(1, ch, hw, hw))?
            .conv("pre", ch, 3, 1, 1)?
            .pool("pool", 2, 2)?
            .conv("post", ch, 3, 1, 1)?
            .finish();
        let plan = EncryptionPlan::from_topology(&topo, policy)?;
        let mut ipcs = Vec::new();
        for scheme in Scheme::ALL {
            let splits = network_traffic(&topo, &plan, scheme)?;
            let sim = Simulator::new(cfg.clone(), scheme.mode())?;
            let pool_idx = 1usize;
            let rep = sim.run(&layer_workload(
                &topo.layers()[pool_idx],
                &splits[pool_idx],
                1,
            )?)?;
            ipcs.push(
                NetworkSimResult {
                    per_layer: vec![rep],
                }
                .overall_ipc(),
            );
        }
        let base = ipcs[0];
        let mut cells = vec![cell(pool_only.name(), 10)];
        for ipc in &ipcs {
            cells.push(cell(format!("{:.2}", ipc / base), 9));
        }
        row(&cells);
        speedup_d.push(ipcs[3] / ipcs[1]);
        speedup_c.push(ipcs[4] / ipcs[2]);
    }
    println!();
    println!(
        "mean SEAL-D speedup over Direct: x{:.2}   mean SEAL-C over Counter: x{:.2}",
        speedup_d.iter().sum::<f64>() / speedup_d.len() as f64,
        speedup_c.iter().sum::<f64>() / speedup_c.len() as f64,
    );
    println!("paper: POOL drops up to 50% (worse than CONV); SEAL improves +66% / +44%.");
    Ok(())
}
