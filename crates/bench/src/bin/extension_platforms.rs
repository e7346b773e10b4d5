//! Extension — SEAL's benefit across accelerator generations.
//!
//! The paper's motivation is the GDDR5-era bandwidth gap (177 GB/s bus vs
//! 48 GB/s of AES). This extension sweeps three platform models —
//! edge NPU (narrow LPDDR), the paper's GTX480, and an HBM-class
//! accelerator — to show how SEAL's value scales with the bus/engine gap:
//! negligible where the engines keep up, and growing past the paper's
//! 1.4× as the gap widens.

use seal_bench::{banner, cell, header, row, RunMode};
use seal_core::workload::simulate_network;
use seal_core::{EncryptionPlan, Scheme, SePolicy};
use seal_gpusim::GpuConfig;
use seal_nn::models::vgg16_topology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mode = RunMode::from_args();
    banner(
        "Extension — SEAL across platform generations (VGG-16)",
        mode,
    );

    let topo = vgg16_topology();
    let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default())?;

    header(
        &[
            "platform",
            "bus GB/s",
            "AES GB/s",
            "gap",
            "Direct",
            "SEAL-D",
            "SEAL gain",
        ],
        &[16, 9, 9, 6, 8, 8, 10],
    );
    for cfg in [
        GpuConfig::edge_npu(),
        GpuConfig::gtx480(),
        GpuConfig::hbm_accelerator(),
    ] {
        let engine_total =
            cfg.engine.throughput_gbps * (cfg.num_channels * cfg.engines_per_mc) as f64;
        let base = simulate_network(&cfg, &topo, &plan, Scheme::Baseline)?.overall_ipc();
        let direct = simulate_network(&cfg, &topo, &plan, Scheme::Direct)?.overall_ipc();
        let seal = simulate_network(&cfg, &topo, &plan, Scheme::SealDirect)?.overall_ipc();
        row(&[
            cell(&cfg.name, 16),
            cell(format!("{:.0}", cfg.total_dram_gbps), 9),
            cell(format!("{engine_total:.0}"), 9),
            cell(format!("{:.1}x", cfg.total_dram_gbps / engine_total), 6),
            cell(format!("{:.2}", direct / base), 8),
            cell(format!("{:.2}", seal / base), 8),
            cell(format!("x{:.2}", seal / direct), 10),
        ]);
    }
    println!();
    println!("the wider the bus/engine gap, the more IPC criticality-aware bypass buys —");
    println!("the paper's argument extrapolates to HBM-class parts.");
    Ok(())
}
