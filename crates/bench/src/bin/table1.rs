//! Table I — performance comparison of hardware AES engine
//! implementations (counter mode), plus a measurement of this repo's
//! software AES for reference.

use std::time::Instant;

use seal_bench::{banner, cell, header, row, RunMode};
use seal_crypto::{Aes128, CtrCipher, EngineSpec, Key128, TABLE_I_ENGINES};

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "N/A".to_string(), |x| format!("{x}"))
}

fn main() {
    let mode = RunMode::from_args();
    banner("Table I — AES encryption engine implementations", mode);

    header(
        &[
            "implementation",
            "area mm2",
            "power mW",
            "latency cyc",
            "GB/s",
        ],
        &[24, 10, 10, 12, 8],
    );
    for e in &TABLE_I_ENGINES {
        row(&[
            cell(e.name, 24),
            cell(fmt_opt(e.area_mm2), 10),
            cell(fmt_opt(e.power_mw), 10),
            cell(e.latency_cycles, 12),
            cell(e.throughput_gbps, 8),
        ]);
    }
    let modelled = EngineSpec::seal_default();
    row(&[
        cell("(modelled in SEAL sims)", 24),
        cell(fmt_opt(modelled.area_mm2), 10),
        cell(fmt_opt(modelled.power_mw), 10),
        cell(modelled.latency_cycles, 12),
        cell(modelled.throughput_gbps, 8),
    ]);

    // Sanity row: this repository's software AES throughput (not a
    // hardware number — just evidence the functional cipher works at a
    // plausible software rate). A wall-clock reading, so it goes to
    // stderr: the table on stdout stays byte-identical run to run.
    let mb = if mode.is_full() { 64usize } else { 8 };
    let cipher = CtrCipher::new(Aes128::new(&Key128::from_seed(1)), 7);
    let buf = vec![0xA5u8; mb << 20];
    let t0 = Instant::now();
    let ct = cipher.encrypt(0, &buf);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(ct.len(), buf.len());
    eprintln!(
        "software AES-128-CTR in this repo: {:.3} GB/s over {mb} MiB (single thread)",
        (buf.len() as f64 / 1e9) / dt
    );
    println!();
    println!(
        "paper: hardware engines average ~8 GB/s — the 160+ GB/s GDDR bus outruns them ~3.7x."
    );
}
