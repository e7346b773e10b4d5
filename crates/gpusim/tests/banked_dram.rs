//! Workload-level tests of the opt-in banked DRAM timing model against
//! the calibrated flat model.

use seal_gpusim::{DramTiming, EncryptionMode, GpuConfig, Region, Simulator, Workload};

fn stream(bytes: u64) -> Workload {
    Workload::builder("stream")
        .region(Region::read("r", 0, bytes))
        .instructions(0)
        .build()
        .unwrap()
}

fn run(cfg: GpuConfig, wl: &Workload) -> f64 {
    Simulator::new(cfg, EncryptionMode::None)
        .unwrap()
        .run(wl)
        .unwrap()
        .cycles
}

#[test]
fn banked_sequential_stream_approaches_peak_bandwidth() {
    let wl = stream(16 << 20);
    let banked = run(
        GpuConfig::gtx480().with_dram_timing(DramTiming::gddr5_banked()),
        &wl,
    );
    // Peak time at 100%: bytes / total bandwidth.
    let peak = (16u64 << 20) as f64 / 177.4e9 * 1.401e9;
    let efficiency = peak / banked;
    assert!(
        efficiency > 0.85,
        "sequential stream should be near peak: {efficiency:.2}"
    );
}

#[test]
fn banked_and_flat_agree_for_streaming_within_calibration() {
    // The flat model asserts 0.8 efficiency for streams; the banked model
    // derives ~0.9 from row hits. They must agree to ~20%.
    let wl = stream(16 << 20);
    let flat = run(GpuConfig::gtx480(), &wl);
    let banked = run(
        GpuConfig::gtx480().with_dram_timing(DramTiming::gddr5_banked()),
        &wl,
    );
    let ratio = banked / flat;
    assert!(
        (0.7..=1.2).contains(&ratio),
        "banked {banked} vs flat {flat} (ratio {ratio:.2})"
    );
}

#[test]
fn banked_model_punishes_bank_camping() {
    // A pathological stride that revisits the same bank with a new row
    // every access (through the per-channel view): the banked model slows
    // down drastically; the flat model cannot see it.
    let camping = {
        let mut b = Workload::builder("camp").instructions(0);
        // 16 banks × 2 KB rows per channel → stride 32 KB per channel;
        // with 6 hashed channels, use a large region walked at a stride
        // that lands on one bank per channel most of the time.
        // Column-major walk of a 2048 × 32 KB matrix: consecutive
        // accesses stride 32 KB = 16 DRAM rows, so every access opens a
        // fresh row on the same bank of its channel.
        let region = Region::read("r", 0, 64 << 20).tiled(
            2048,      // rows of the logical matrix
            32 * 1024, // 32 KB per row
            2048,      // all rows in one tile → column-major order
            128,       // one line per column step
            0.05,      // small sample
        );
        b = b.region(region);
        b.build().unwrap()
    };
    let flat = run(GpuConfig::gtx480(), &camping);
    let banked = run(
        GpuConfig::gtx480().with_dram_timing(DramTiming::gddr5_banked()),
        &camping,
    );
    assert!(
        banked > flat * 1.5,
        "camping must be visibly slower under banked timing: {banked} vs {flat}"
    );
}

#[test]
fn encryption_ordering_holds_under_banked_timing() {
    let wl = Workload::builder("enc")
        .region(Region::read("r", 0, 8 << 20).encrypted(true))
        .instructions(1000)
        .build()
        .unwrap();
    let cfg = GpuConfig::gtx480().with_dram_timing(DramTiming::gddr5_banked());
    let base = Simulator::new(cfg.clone(), EncryptionMode::None)
        .unwrap()
        .run(&wl)
        .unwrap();
    let direct = Simulator::new(cfg, EncryptionMode::Direct)
        .unwrap()
        .run(&wl)
        .unwrap();
    assert!(
        direct.cycles > base.cycles * 2.0,
        "engine still the bottleneck"
    );
}

#[test]
fn invalid_banked_configs_rejected() {
    let cfg = GpuConfig::gtx480().with_dram_timing(DramTiming::Banked {
        banks: 0,
        row_bytes: 2048,
        row_miss_penalty: 56.0,
    });
    assert!(Simulator::new(cfg, EncryptionMode::None).is_err());
}
