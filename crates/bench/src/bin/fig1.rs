//! Figure 1 — IPC and counter-cache hit rate for matrix multiplication
//! under the two straightforward memory-encryption solutions.
//!
//! Fig. 1a: IPC of a 1024³ SGEMM on the GTX480 model for Baseline, Direct
//! and Counter-mode encryption with 24/96/384/1536 KB counter caches.
//! Fig. 1b: the corresponding counter-cache hit rates.
//!
//! Paper expectation: encryption costs 45–54% of IPC; counter mode is no
//! faster than direct; the hit rate climbs with cache size.

use seal_bench::{banner, cell, header, row, RunMode};
use seal_core::workload::matmul_workload;
use seal_gpusim::{EncryptionMode, GpuConfig, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mode = RunMode::from_args();
    banner(
        "Figure 1 — matmul IPC under straightforward memory encryption",
        mode,
    );
    let n: u64 = if mode.is_full() { 1024 } else { 512 };
    let cache_kbs = [24usize, 96, 384, 1536];

    let plain = matmul_workload(n, false)?;
    let enc = matmul_workload(n, true)?;
    println!(
        "workload: {n}x{n} SGEMM, {:.0} MB of DRAM traffic, {} M instructions\n",
        enc.traffic_bytes() as f64 / 1e6,
        enc.instructions() / 1_000_000
    );

    println!("(a) Instructions per cycle");
    header(&["config", "IPC", "vs baseline"], &[14, 10, 12]);

    let base = Simulator::new(GpuConfig::gtx480(), EncryptionMode::None)?.run(&plain)?;
    row(&[
        cell("Baseline", 14),
        cell(format!("{:.0}", base.ipc()), 10),
        cell("1.00", 12),
    ]);

    let direct = Simulator::new(GpuConfig::gtx480(), EncryptionMode::Direct)?.run(&enc)?;
    row(&[
        cell("Direct", 14),
        cell(format!("{:.0}", direct.ipc()), 10),
        cell(format!("{:.2}", direct.ipc() / base.ipc()), 12),
    ]);

    let mut hit_rates = Vec::new();
    for kb in cache_kbs {
        let cfg = GpuConfig::gtx480().with_counter_cache_kb(kb);
        let counter = Simulator::new(cfg, EncryptionMode::Counter)?.run(&enc)?;
        row(&[
            cell(format!("CTR-{kb}"), 14),
            cell(format!("{:.0}", counter.ipc()), 10),
            cell(format!("{:.2}", counter.ipc() / base.ipc()), 12),
        ]);
        hit_rates.push((kb, counter.counter_hit_rate()));
    }

    println!();
    println!("(b) Counter-cache hit rate");
    header(&["cache (KB)", "hit rate"], &[12, 10]);
    for (kb, hr) in &hit_rates {
        row(&[cell(kb, 12), cell(format!("{:.1}%", hr * 100.0), 10)]);
    }

    println!();
    println!("paper: Direct/Counter lose 45-54% of IPC on matmul; hit rate rises with cache size.");
    Ok(())
}
