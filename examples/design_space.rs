//! Design-space exploration: encryption ratio vs. performance, and what
//! hardware it would take to make full encryption free.
//!
//! Sweeps the SE ratio from 0% to 100% on ResNet-18 and prints the
//! performance/security frontier, then asks the inverse question: how
//! many AES engines per memory controller would Direct encryption need to
//! match SEAL at 50%?
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use seal::core::{
    security_level, simulate_network, EncryptionPlan, Scheme, SePolicy, SecurityLevel,
};
use seal::gpusim::GpuConfig;
use seal::nn::models::resnet18_topology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = resnet18_topology();
    let cfg = GpuConfig::gtx480();

    // Baseline reference.
    let plan0 = EncryptionPlan::from_topology(&topo, SePolicy::paper_default())?;
    let base = simulate_network(&cfg, &topo, &plan0, Scheme::Baseline)?.overall_ipc();
    let direct = simulate_network(&cfg, &topo, &plan0, Scheme::Direct)?.overall_ipc();

    println!("ResNet-18 on the GTX480 model — SE ratio sweep (SEAL-D)\n");
    println!(
        "{:>7} {:>14} {:>26}",
        "ratio", "IPC vs base", "security level"
    );
    for pct in (0..=10).map(|i| i as f64 / 10.0) {
        let plan = EncryptionPlan::from_topology(&topo, SePolicy::default().with_ratio(pct))?;
        let ipc = simulate_network(&cfg, &topo, &plan, Scheme::SealDirect)?.overall_ipc();
        let level = match security_level(pct) {
            SecurityLevel::BlackBoxEquivalent => "black-box equivalent",
            SecurityLevel::IpSafeOnly => "IP-safe, adv. leak",
            SecurityLevel::Degraded => "degraded",
        };
        let marker = if (pct - 0.5).abs() < 1e-9 {
            "  ← paper's choice"
        } else {
            ""
        };
        println!(
            "{:>6.0}% {:>14.2} {:>26}{marker}",
            pct * 100.0,
            ipc / base,
            level
        );
    }
    println!(
        "{:>7} {:>14} {:>26}",
        "Direct",
        format!("{:.2}", direct / base),
        "black-box equivalent"
    );

    // Inverse question: engines needed for Direct to match SEAL@50%.
    let seal50 = simulate_network(&cfg, &topo, &plan0, Scheme::SealDirect)?.overall_ipc();
    println!(
        "\nhow much silicon buys the same IPC as SEAL@50% ({:.2} of baseline)?",
        seal50 / base
    );
    for engines in 1..=4usize {
        let cfg_n = cfg.clone().with_engines_per_mc(engines);
        let ipc = simulate_network(&cfg_n, &topo, &plan0, Scheme::Direct)?.overall_ipc();
        let area = cfg.engine.area_mm2.unwrap_or(0.0) * (engines * cfg.num_channels) as f64;
        println!(
            "  {engines} engine(s)/MC: {:.2} of baseline  ({area:.1} mm² of AES)",
            ipc / base
        );
        if ipc >= seal50 {
            println!(
                "  → Direct needs {engines} engines/MC ({area:.1} mm²) to match SEAL's free lunch."
            );
            break;
        }
    }
    Ok(())
}
