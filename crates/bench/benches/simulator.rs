//! Benchmark of the GPU memory-system simulator itself: how fast the
//! harness replays traces (requests simulated per second), per
//! encryption mode.

use seal_bench::timing::bench_elems;
use seal_gpusim::{EncryptionMode, GpuConfig, Region, Simulator, Workload};

fn main() {
    let wl = Workload::builder("bench")
        .region(Region::read("r", 0, 4 << 20).encrypted(true))
        .region(Region::write("w", 1 << 33, 1 << 20).encrypted(true))
        .instructions(50_000_000)
        .build()
        .unwrap();
    let requests = wl.requests(128).len() as u64;
    for mode in [
        EncryptionMode::None,
        EncryptionMode::Direct,
        EncryptionMode::Counter,
    ] {
        let sim = Simulator::new(GpuConfig::gtx480(), mode).unwrap();
        bench_elems(&format!("simulator/{mode}"), requests, || {
            sim.run(&wl).unwrap()
        });
    }
}
