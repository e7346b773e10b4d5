//! Figure 4 — transferability of I-FGSM adversarial examples crafted on
//! each substitute model vs. selective encryption ratio.
//!
//! Paper expectation: white-box examples transfer at ~0.9+; black-box at
//! ~0.2; SEAL transferability approaches the black-box floor once the
//! ratio reaches ~50% and rises sharply below 40%.

use seal_attack::experiment::{run_transferability, ExperimentConfig, ModelArch};
use seal_attack::fgsm::FgsmConfig;
use seal_bench::{banner, cell, header, row, RunMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mode = RunMode::from_args();
    banner(
        "Figure 4 — adversarial-example transferability vs ratio",
        mode,
    );

    let archs = [ModelArch::Vgg16, ModelArch::ResNet18, ModelArch::ResNet34];
    let (ratios, examples): (Vec<f64>, usize) = if mode.is_full() {
        ((1..=9).map(|i| i as f64 / 10.0).collect(), 200)
    } else {
        (vec![0.1, 0.3, 0.5, 0.7, 0.9], 40)
    };
    let fgsm = FgsmConfig {
        step: 0.1,
        epsilon: 0.6,
        iterations: 12,
    };

    eprintln!("attacking 3 architectures in parallel …");
    let jobs: Vec<(ModelArch, u64)> = archs
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, 90 + i as u64))
        .collect();
    let ratios_ref = &ratios;
    let fgsm_ref = &fgsm;
    let per_arch = seal_bench::parallel_map(jobs, |(arch, seed)| {
        let cfg = if mode.is_full() {
            ExperimentConfig::full(arch, seed)
        } else {
            ExperimentConfig::quick(arch, seed)
        };
        run_transferability(&cfg, ratios_ref, examples, fgsm_ref)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    header(
        &["config", "VGG-16", "ResNet-18", "ResNet-34", "average"],
        &[12, 9, 10, 10, 9],
    );
    let avg = |f: &dyn Fn(usize) -> f64| -> f64 { (0..3).map(f).sum::<f64>() / 3.0 };
    let print_row = |label: &str, f: &dyn Fn(usize) -> f64| {
        row(&[
            cell(label, 12),
            cell(format!("{:.2}", f(0)), 9),
            cell(format!("{:.2}", f(1)), 10),
            cell(format!("{:.2}", f(2)), 10),
            cell(format!("{:.2}", avg(f)), 9),
        ]);
    };
    print_row("white-box", &|i| per_arch[i].white_box);
    for (ri, r) in ratios.iter().enumerate() {
        print_row(&format!("SEAL {:.0}%", r * 100.0), &|i| {
            per_arch[i].seal[ri].1
        });
    }
    print_row("black-box", &|i| per_arch[i].black_box);

    println!();
    println!("paper: black-box ≈0.2; SEAL ≥50% at or below black-box; <40% rises sharply.");
    println!("({examples} I-FGSM examples per substitute; paper uses 1000)");
    Ok(())
}
