//! Order statistics and the aggregation over segments every timing metric
//! goes through.
//!
//! Once timings are stated at the reference clock (`hostclock`), what is
//! left of the host's noise is one-sided: a neighbour on the same physical
//! core, an interrupt, a descheduled vCPU only ever make a segment slower.
//! So a metric is the **fast decile** of its per-segment statistic — the
//! value the better tenth of the segments reach — not their median. Over
//! 14 runs of `serve_int8`, two of which were disturbed for most of their
//! 20 s, the run-to-run range of throughput was 10.9% for the median of
//! segments, 7.1% for the upper quartile, 2.2% for the fast decile and
//! 2.3% for the best segment.

use std::time::Instant;

use crate::hostclock::{self, at_reference};
use crate::procfs;

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
/// Nearest-rank keeps every reported value an actually observed sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value the better tenth of `values` reach when smaller is better
/// (nearest rank: the 2nd smallest of 20, the smallest of fewer than 11).
pub fn fast_decile_low(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 10.0)
}

/// The same when larger is better (the 2nd largest of 20).
pub fn fast_decile_high(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().map(|x| -x).collect();
    v.sort_by(f64::total_cmp);
    -percentile_sorted(&v, 10.0)
}

/// Interquartile range ÷ median — the spread figure of the disturbance
/// report. Quartiles are the medians of the lower and upper halves.
pub fn iqr_ratio(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let half = v.len() / 2;
    let q1 = median(&v[..half]);
    let q3 = median(&v[v.len() - half..]);
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// What the generator records while a segment runs.
#[derive(Debug, Default)]
pub struct SegmentLog {
    /// Latency of every op answered correctly, nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Clock-probe timings taken between ops, nanoseconds.
    pub probe_ns: Vec<u64>,
}

impl SegmentLog {
    /// Takes one clock probe; workloads call it once per batch, burst or
    /// simulated layer.
    pub fn probe(&mut self) {
        self.probe_ns.push(hostclock::probe_ns());
    }
}

/// What one segment of identical work cost, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentStat {
    pub ops: u64,
    pub wall_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub cpu_us: f64,
    /// The core clock the segment's probes saw.
    pub clock_ghz: f64,
}

/// Runs one segment: `work` answers ops, logging each op's latency and the
/// clock probes; wall and process CPU time are read around it.
pub fn measure_segment<E>(
    log: &mut SegmentLog,
    work: impl FnOnce(&mut SegmentLog) -> Result<(), E>,
) -> Result<SegmentStat, E> {
    log.lat_ns.clear();
    log.probe_ns.clear();
    let cpu0 = procfs::process_cpu_ns();
    let t0 = Instant::now();
    work(log)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_us = procfs::process_cpu_ns().saturating_sub(cpu0) as f64 / 1e3;
    let mut us: Vec<f64> = log.lat_ns.iter().map(|&n| n as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    Ok(SegmentStat {
        ops: us.len() as u64,
        wall_s,
        p50_us: percentile_sorted(&us, 50.0),
        p99_us: percentile_sorted(&us, 99.0),
        cpu_us,
        clock_ghz: hostclock::clock_ghz(&log.probe_ns),
    })
}

/// The measured segments of one run. Every metric accessor restates each
/// segment's statistic at the reference clock and takes the fast decile
/// over segments; the `raw_` accessors skip the restating.
#[derive(Debug, Default, Clone)]
pub struct Segments(pub Vec<SegmentStat>);

impl Segments {
    fn over(&self, f: impl Fn(&SegmentStat) -> f64) -> Vec<f64> {
        self.0.iter().map(f).collect()
    }

    /// Per-segment ops per second at the reference clock.
    pub fn throughputs(&self) -> Vec<f64> {
        self.over(|s| s.ops as f64 / at_reference(s.wall_s, s.clock_ghz))
    }

    pub fn throughput_rps(&self) -> f64 {
        fast_decile_high(&self.throughputs())
    }

    pub fn latency_p50_us(&self) -> f64 {
        fast_decile_low(&self.over(|s| at_reference(s.p50_us, s.clock_ghz)))
    }

    pub fn latency_p99_us(&self) -> f64 {
        fast_decile_low(&self.over(|s| at_reference(s.p99_us, s.clock_ghz)))
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        fast_decile_low(&self.over(|s| at_reference(s.cpu_us, s.clock_ghz) / s.ops as f64))
    }

    /// Per-segment ops per wall second, as measured.
    pub fn raw_throughputs(&self) -> Vec<f64> {
        self.over(|s| s.ops as f64 / s.wall_s)
    }

    /// The clock each segment saw.
    pub fn clocks_ghz(&self) -> Vec<f64> {
        self.over(|s| s.clock_ghz)
    }

    /// IQR ÷ median of the per-segment throughputs at the reference clock.
    pub fn segment_iqr_ratio(&self) -> f64 {
        iqr_ratio(&self.throughputs())
    }
}

/// Fast-decile time in microseconds, at the reference clock, of `repeats`
/// calls of `f` after one discarded warm-up call — the replay path's timing
/// primitive. Each call is restated with the clock read right after it.
pub fn time_us(repeats: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            f();
            let us = t.elapsed().as_secs_f64() * 1e6;
            at_reference(us, hostclock::clock_now_ghz())
        })
        .collect();
    fast_decile_low(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        // 220 samples: p99 is the third slowest (two samples beyond it).
        let w: Vec<f64> = (1..=220).map(f64::from).collect();
        assert_eq!(percentile_sorted(&w, 99.0), 218.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn iqr_ratio_of_a_uniform_ramp() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        // lower half 1..4 → 2.5, upper half 5..8 → 6.5, median 4.5
        assert!((iqr_ratio(&v) - 4.0 / 4.5).abs() < 1e-12);
        assert_eq!(iqr_ratio(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn fast_decile_is_the_second_best_of_twenty() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(fast_decile_low(&v), 2.0);
        assert_eq!(fast_decile_high(&v), 19.0);
        assert_eq!(fast_decile_low(&[5.0, 3.0, 4.0]), 3.0);
        assert_eq!(fast_decile_high(&[5.0, 3.0, 4.0]), 5.0);
        assert_eq!(fast_decile_low(&[]), 0.0);
        assert_eq!(fast_decile_high(&[]), 0.0);
    }

    #[test]
    fn segment_metrics_ignore_disturbed_segments() {
        let calm = SegmentStat {
            ops: 1000,
            wall_s: 1.0,
            p50_us: 100.0,
            p99_us: 200.0,
            cpu_us: 500_000.0,
            clock_ghz: hostclock::REFERENCE_GHZ,
        };
        let noisy = SegmentStat {
            wall_s: 3.0,
            p50_us: 900.0,
            p99_us: 5000.0,
            cpu_us: 900_000.0,
            ..calm
        };
        // Even with most of the run disturbed, the calm segments decide.
        let mut s = Segments(vec![noisy; 20]);
        s.0[3] = calm;
        s.0[11] = calm;
        s.0[12] = calm;
        assert_eq!(s.throughput_rps(), 1000.0);
        assert_eq!(s.latency_p50_us(), 100.0);
        assert_eq!(s.latency_p99_us(), 200.0);
        assert_eq!(s.cpu_us_per_op(), 500.0);
        assert!(s.segment_iqr_ratio() >= 0.0);
    }

    #[test]
    fn a_slow_clock_segment_reads_the_same_at_the_reference_clock() {
        let fast = SegmentStat {
            ops: 1000,
            wall_s: 1.0,
            p50_us: 100.0,
            p99_us: 200.0,
            cpu_us: 500_000.0,
            clock_ghz: 3.6,
        };
        // The same cycles at three quarters of the clock.
        let slow = SegmentStat {
            wall_s: fast.wall_s * 4.0 / 3.0,
            p50_us: fast.p50_us * 4.0 / 3.0,
            p99_us: fast.p99_us * 4.0 / 3.0,
            cpu_us: fast.cpu_us * 4.0 / 3.0,
            clock_ghz: 2.7,
            ..fast
        };
        let (f, s) = (Segments(vec![fast]), Segments(vec![slow]));
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs();
        assert!(close(f.throughput_rps(), s.throughput_rps()));
        assert!(close(f.latency_p50_us(), s.latency_p50_us()));
        assert!(close(f.latency_p99_us(), s.latency_p99_us()));
        assert!(close(f.cpu_us_per_op(), s.cpu_us_per_op()));
        assert!(close(f.throughput_rps(), 1000.0 / 1.2));
        assert_eq!(s.raw_throughputs(), vec![750.0]);
    }

    #[test]
    fn measure_segment_counts_ops_and_converts_units() {
        let mut log = SegmentLog {
            lat_ns: vec![99],
            probe_ns: vec![1],
        };
        let stat = measure_segment::<()>(&mut log, |l| {
            l.lat_ns.extend([1_000, 2_000, 3_000]);
            l.probe();
            Ok(())
        })
        .unwrap();
        assert_eq!(stat.ops, 3);
        assert_eq!(stat.p50_us, 2.0);
        assert_eq!(stat.p99_us, 3.0);
        assert!(stat.wall_s >= 0.0);
        assert_eq!(log.probe_ns.len(), 1);
        assert!(stat.clock_ghz > 0.0);
    }
}
