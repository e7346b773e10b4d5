//! Figure 5 — normalized IPC of four typical VGG CONV layers
//! (64/128/256/512 channels) under the five schemes.
//!
//! Paper expectation: Direct/Counter cost up to ~40% of IPC; SEAL-D and
//! SEAL-C recover most of it (+39%/+33% over Direct/Counter on average).

use seal_bench::{banner, cell, header, row, RunMode};
use seal_core::workload::{layer_workload, NetworkSimResult};
use seal_core::{traffic::network_traffic, EncryptionPlan, Scheme, SePolicy};
use seal_gpusim::{GpuConfig, Simulator};
use seal_nn::NetworkTopology;
use seal_tensor::Shape;

/// The four "typical CONV layers in VGG" with 64/128/256/512 channels, at
/// the original VGG spatial resolutions (224/112/56/28). Quick mode scales
/// the spatial dimensions down 4× to keep traces small.
fn conv_layers(mode: RunMode) -> Vec<NetworkTopology> {
    let scale = if mode.is_full() { 1 } else { 4 };
    [(64usize, 224usize), (128, 112), (256, 56), (512, 28)]
        .iter()
        .map(|&(ch, hw)| {
            let hw = (hw / scale).max(8);
            NetworkTopology::build(format!("CONV-{ch}"), Shape::nchw(1, ch, hw, hw))
                .expect("static geometry")
                .conv("conv", ch, 3, 1, 1)
                .expect("static geometry")
                .finish()
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mode = RunMode::from_args();
    banner("Figure 5 — normalized IPC for CONV layers", mode);

    // Standalone SE layers: the boundary rule does not apply here (these
    // are the paper's mid-network layers), ratio 50%.
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
    for topo in conv_layers(mode) {
        let plan = EncryptionPlan::from_topology(&topo, policy)?;
        let mut ipcs = Vec::new();
        for scheme in Scheme::ALL {
            let splits = network_traffic(&topo, &plan, scheme)?;
            let sim = Simulator::new(cfg.clone(), scheme.mode())?;
            let mut per_layer = Vec::with_capacity(splits.len());
            for (l, s) in topo.layers().iter().zip(&splits) {
                per_layer.push(sim.run(&layer_workload(l, s, 1)?)?);
            }
            ipcs.push(NetworkSimResult { per_layer }.overall_ipc());
        }
        let base = ipcs[0];
        let mut cells = vec![cell(topo.name(), 10)];
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
    println!("paper: Direct/Counter lose up to 40%; SEAL improves +39% / +33%.");
    Ok(())
}
