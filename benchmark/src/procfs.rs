//! Readers for the `/proc` files the benchmark takes CPU time, memory and
//! host-disturbance figures from. Each parser is a pure function of the
//! file's text so it can be tested without the file.

use std::fs;

/// On-CPU nanoseconds from one `schedstat` line (`run wait slices`).
pub fn parse_schedstat_run_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// A `kB` field of `/proc/self/status`, e.g. `VmHWM:    12345 kB`.
pub fn parse_status_kib(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The 1-minute figure of `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

/// CPU time this process has consumed, user + system, summed over every
/// live thread (`/proc/self/task/*/schedstat`, nanosecond resolution; the
/// tick-resolution `stat` file would quantise a 1 s segment to 1%).
/// Threads do not exit inside a segment, so differences are exact.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| parse_schedstat_run_ns(&s))
        .sum()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kib(&s, "VmHWM"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// 1-minute load average, or 0 when unreadable.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| parse_loadavg(&s))
        .unwrap_or(0.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(
            parse_schedstat_run_ns("123456789 65527 42\n"),
            Some(123_456_789)
        );
        assert_eq!(parse_schedstat_run_ns(""), None);
        assert_eq!(parse_schedstat_run_ns("x 1 2"), None);
    }

    #[test]
    fn status_field_is_found_by_exact_name() {
        let text = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kib(text, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kib(text, "VmRSS"), Some(100));
        assert_eq!(parse_status_kib(text, "VmH"), None);
        assert_eq!(parse_status_kib(text, "VmSwap"), None);
    }

    #[test]
    fn loadavg_takes_the_one_minute_figure() {
        assert_eq!(parse_loadavg("0.24 0.47 0.88 2/86 20826\n"), Some(0.24));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns() > before, "spinning must consume CPU ({x})");
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}
