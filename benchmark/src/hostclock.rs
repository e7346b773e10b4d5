//! The host's core clock, and the one CPU the benchmark runs on.
//!
//! This host's cores switch between two clock speeds (≈ 2.9 and ≈ 3.7 GHz
//! here) every few seconds, each phase lasting 1–20 s, and CPU-bound code
//! takes 27% longer in the slow one. No run the time budget allows is long
//! enough to average that out: medians of 20 one-second segments differed
//! by ±13% from run to run. So the benchmark
//!
//! 1. pins the whole process to one CPU, so that the generator thread and
//!    the program's threads take turns on the same core, and
//! 2. times a short dependent ALU chain from the generator thread between
//!    ops — a probe whose duration depends on nothing but that core's clock —
//!    and reports every timing at a fixed reference clock:
//!    `time × measured clock ÷ REFERENCE_GHZ`.
//!
//! On the serving workloads the product `cpu time × measured clock` then
//! repeats to 0.3% across the two speeds. Work that waits on memory or on a
//! timer does not scale with the clock, so `sim_paper` (memory-bound in
//! part) and `net_tenants` (a 200 µs batching timer per burst) keep a few
//! per cent of the effect.

use std::time::Instant;

use crate::stats::median;

/// The clock every timing metric is reported at.
pub const REFERENCE_GHZ: f64 = 3.0;

/// Iterations of one probe (≈ 10 µs) and the length of its dependency
/// chain: three shift–xor pairs and an add, one cycle each on every
/// current x86-64 and AArch64 core.
const PROBE_ITERS: u64 = 5_000;
const CYCLES_PER_ITER: u64 = 7;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the CPU mask passed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

/// Pins the calling thread — and every thread it starts afterwards — to the
/// lowest-numbered CPU it is allowed to run on. Returns that CPU.
///
/// # Errors
///
/// When the kernel refuses either call; the benchmark does not run
/// unpinned, because its probe would then time a different core from the
/// one doing the work.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .find_map(|(word, bits)| (*bits != 0).then(|| word * 64 + bits.trailing_zeros() as usize))
        .ok_or("the affinity mask is empty")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed; the call
    // only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpu}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Times one probe, in nanoseconds.
#[inline(never)]
pub fn probe_ns() -> u64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..PROBE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as u64
}

/// The clock a set of probe timings saw, 0 without probes.
///
/// Probes are taken once per op and an op takes `cycles ÷ clock`, so over a
/// stretch in which the clock changed, `wall time × chain length ÷ mean
/// probe time` is the cycles that passed; hence the mean, not the median.
/// A probe that was preempted or took an interrupt reads many times too
/// long and is left out: the two clock speeds differ by 1.27×, so anything
/// beyond 1.5× the median is not a clock speed.
pub fn clock_ghz(probes_ns: &[u64]) -> f64 {
    let ns: Vec<f64> = probes_ns.iter().map(|&n| n as f64).collect();
    let limit = 1.5 * median(&ns);
    let kept: Vec<f64> = ns.into_iter().filter(|&n| n <= limit).collect();
    if kept.is_empty() {
        return 0.0;
    }
    let mean = kept.iter().sum::<f64>() / kept.len() as f64;
    (PROBE_ITERS * CYCLES_PER_ITER) as f64 / mean
}

/// The clock right now, from a few back-to-back probes (≈ 50 µs).
pub fn clock_now_ghz() -> f64 {
    clock_ghz(&[probe_ns(), probe_ns(), probe_ns(), probe_ns(), probe_ns()])
}

/// A duration measured at `clock_ghz`, restated at the reference clock.
pub fn at_reference(duration: f64, clock_ghz: f64) -> f64 {
    duration * clock_ghz / REFERENCE_GHZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reads_a_plausible_clock() {
        let ghz = clock_now_ghz();
        assert!((0.2..8.0).contains(&ghz), "measured {ghz} GHz");
    }

    #[test]
    fn clock_is_chain_length_over_mean_time_without_outliers() {
        // 35,000 cycles in 10,000 ns is 3.5 GHz; the preempted probe is
        // left out.
        assert_eq!(clock_ghz(&[10_000, 10_000, 900_000]), 3.5);
        // Half the ops at 3.5 GHz and half at 2.8 GHz: both speeds count.
        let mixed = clock_ghz(&[10_000, 10_000, 12_500, 12_500]);
        assert!((mixed - 35_000.0 / 11_250.0).abs() < 1e-12);
        assert_eq!(clock_ghz(&[]), 0.0);
    }

    #[test]
    fn reference_scaling_is_linear_in_the_clock() {
        assert_eq!(at_reference(100.0, REFERENCE_GHZ), 100.0);
        assert_eq!(at_reference(100.0, 1.5), 50.0);
    }

    #[test]
    fn pinning_leaves_one_cpu() {
        // Run on a scratch thread: the pin is inherited by later threads,
        // and the other tests should keep the whole machine.
        let cpus = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pinning works on Linux");
            (cpu, crate::procfs::nproc())
        })
        .join()
        .expect("pin thread");
        assert_eq!(cpus.1, 1, "pinned to cpu {}", cpus.0);
    }
}
