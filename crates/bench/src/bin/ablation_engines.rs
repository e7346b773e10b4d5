//! Ablation — AES engines per memory controller.
//!
//! The paper argues (Sec. II-B) that adding engines is "ruinously costly"
//! in die area, which is why SEAL attacks the problem from the traffic
//! side. This ablation quantifies what extra engines would buy: sweeping
//! 1/2/4 engines per MC under full Direct encryption, with the die-area
//! price per Table I's Mathew-class engine (≈1.1 mm² each).

use seal_bench::{banner, cell, header, row, RunMode};
use seal_core::workload::simulate_network;
use seal_core::{EncryptionPlan, Scheme, SePolicy};
use seal_gpusim::GpuConfig;
use seal_nn::models::vgg16_topology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mode = RunMode::from_args();
    banner(
        "Ablation — engines per memory controller (VGG-16, Direct)",
        mode,
    );

    let topo = vgg16_topology();
    let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default())?;
    let base_cfg = GpuConfig::gtx480();
    let baseline = simulate_network(&base_cfg, &topo, &plan, Scheme::Baseline)?.overall_ipc();
    let seal_one = simulate_network(&base_cfg, &topo, &plan, Scheme::SealDirect)?.overall_ipc();

    header(
        &["engines/MC", "Direct IPC vs base", "extra die area"],
        &[12, 20, 16],
    );
    for engines in [1usize, 2, 4] {
        let cfg = base_cfg.clone().with_engines_per_mc(engines);
        let ipc = simulate_network(&cfg, &topo, &plan, Scheme::Direct)?.overall_ipc();
        let area = cfg.engine.area_mm2.unwrap_or(0.0) * (engines * cfg.num_channels) as f64;
        row(&[
            cell(engines, 12),
            cell(format!("{:.2}", ipc / baseline), 20),
            cell(format!("{area:.1} mm2"), 16),
        ]);
    }
    println!();
    println!(
        "SEAL-D with ONE engine/MC reaches {:.2} of baseline at no extra area —",
        seal_one / baseline
    );
    println!("the traffic-side fix beats adding silicon.");
    Ok(())
}
