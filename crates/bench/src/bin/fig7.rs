//! Figure 7 — overall IPC (normalized to Baseline) for full VGG-16,
//! ResNet-18 and ResNet-34 inference under the five schemes.
//!
//! Paper expectation: Direct/Counter cost 30–38% overall; SEAL-D/SEAL-C
//! improve ×1.4/×1.34 over them; ResNets suffer less than VGG (VGG is the
//! most bandwidth-hungry).

use seal_bench::{banner, cell, header, row, RunMode};
use seal_core::workload::simulate_network;
use seal_core::{EncryptionPlan, Scheme, SePolicy};
use seal_gpusim::GpuConfig;
use seal_nn::models::{resnet18_topology, resnet34_topology, vgg16_topology};
use seal_nn::NetworkTopology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mode = RunMode::from_args();
    banner("Figure 7 — overall IPC, full-network inference", mode);

    let nets: Vec<NetworkTopology> =
        vec![vgg16_topology(), resnet18_topology(), resnet34_topology()];
    let cfg = GpuConfig::gtx480();
    let policy = SePolicy::paper_default();

    header(
        &[
            "network", "Baseline", "Direct", "Counter", "SEAL-D", "SEAL-C",
        ],
        &[10, 9, 9, 9, 9, 9],
    );
    let mut speedup_d = Vec::new();
    let mut speedup_c = Vec::new();
    for topo in &nets {
        let plan = EncryptionPlan::from_topology(topo, policy)?;
        let plan_ref = &plan;
        let ipcs: Vec<f64> = seal_bench::parallel_map(Scheme::ALL.to_vec(), |s| {
            simulate_network(&cfg, topo, plan_ref, s).map(|r| r.overall_ipc())
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
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
    println!("paper: Direct/Counter cost 30-38%; SEAL-D x1.4 and SEAL-C x1.34 over them.");
    Ok(())
}
