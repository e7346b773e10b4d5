//! Quickstart: plan SEAL smart encryption for VGG-16 and measure what it
//! buys on the simulated GTX480.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use seal::core::{network_traffic, simulate_network, EncryptionPlan, Scheme, SePolicy};
use seal::gpusim::GpuConfig;
use seal::nn::models::vgg16_topology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The network under protection: full-size CIFAR-10 VGG-16.
    let topo = vgg16_topology();
    println!(
        "VGG-16: {} layers, {:.1} M parameters, {:.1} MB of traffic per inference",
        topo.layers().len(),
        topo.total_weight_bytes() as f64 / 4e6,
        topo.total_traffic_bytes() as f64 / 1e6,
    );

    // 2. The SEAL plan: rank kernel rows by ℓ1-norm, encrypt the most
    //    important 50% plus the coupled feature-map channels, fully
    //    encrypt the boundary layers.
    let plan = EncryptionPlan::from_topology(&topo, SePolicy::paper_default())?;
    let splits = network_traffic(&topo, &plan, Scheme::SealDirect)?;
    let enc: u64 = splits.iter().map(|l| l.encrypted_bytes()).sum();
    let total: u64 = splits.iter().map(|l| l.total_bytes()).sum();
    println!(
        "SEAL plan at 50% ratio: {:.0}% of traffic must pass the AES engine",
        enc as f64 / total as f64 * 100.0
    );

    // 3. Simulate the five schemes on the paper's GPU model.
    let cfg = GpuConfig::gtx480();
    println!("\n{:<10} {:>10} {:>14}", "scheme", "IPC", "latency (ms)");
    let mut baseline_ipc = 0.0;
    for scheme in Scheme::ALL {
        let r = simulate_network(&cfg, &topo, &plan, scheme)?;
        if scheme == Scheme::Baseline {
            baseline_ipc = r.overall_ipc();
        }
        println!(
            "{:<10} {:>10.1} {:>14.3}   ({:.2}x baseline)",
            scheme.label(),
            r.overall_ipc(),
            r.latency_ms(cfg.core_clock_ghz),
            r.overall_ipc() / baseline_ipc,
        );
    }

    println!("\nSEAL keeps the model as safe as full encryption (see the fig3/fig4 harnesses)");
    println!("while recovering most of the encryption-induced slowdown.");
    Ok(())
}
