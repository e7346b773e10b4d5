//! Figure 8 — inference latency (normalized to Baseline) for VGG-16,
//! ResNet-18 and ResNet-34 under the five schemes.
//!
//! Paper expectation: Direct/Counter add 39–60% latency; SEAL-D/SEAL-C
//! cut it back by 28%/26% relative to them.

use seal_bench::{banner, cell, header, row, RunMode};
use seal_core::workload::simulate_network;
use seal_core::{EncryptionPlan, Scheme, SePolicy};
use seal_gpusim::GpuConfig;
use seal_nn::models::{resnet18_topology, resnet34_topology, vgg16_topology};
use seal_nn::NetworkTopology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mode = RunMode::from_args();
    banner("Figure 8 — normalized inference latency", mode);

    let nets: Vec<NetworkTopology> =
        vec![vgg16_topology(), resnet18_topology(), resnet34_topology()];
    let cfg = GpuConfig::gtx480();
    let policy = SePolicy::paper_default();

    header(
        &[
            "network", "Baseline", "Direct", "Counter", "SEAL-D", "SEAL-C", "base ms",
        ],
        &[10, 9, 9, 9, 9, 9, 9],
    );
    let mut cut_d = Vec::new();
    let mut cut_c = Vec::new();
    for topo in &nets {
        let plan = EncryptionPlan::from_topology(topo, policy)?;
        let plan_ref = &plan;
        let lat: Vec<f64> = seal_bench::parallel_map(Scheme::ALL.to_vec(), |s| {
            simulate_network(&cfg, topo, plan_ref, s).map(|r| r.latency_ms(cfg.core_clock_ghz))
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        let base = lat[0];
        let mut cells = vec![cell(topo.name(), 10)];
        for l in &lat {
            cells.push(cell(format!("{:.2}", l / base), 9));
        }
        cells.push(cell(format!("{base:.3}"), 9));
        row(&cells);
        cut_d.push(1.0 - lat[3] / lat[1]);
        cut_c.push(1.0 - lat[4] / lat[2]);
    }
    println!();
    println!(
        "mean latency cut: SEAL-D -{:.0}% vs Direct   SEAL-C -{:.0}% vs Counter",
        cut_d.iter().sum::<f64>() / cut_d.len() as f64 * 100.0,
        cut_c.iter().sum::<f64>() / cut_c.len() as f64 * 100.0,
    );
    println!("paper: Direct/Counter +39-60% latency; SEAL cuts 28%/26% vs them.");
    Ok(())
}
