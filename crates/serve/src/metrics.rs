//! Per-request latency histograms and queue/batch statistics.
//!
//! Everything here is plain data — the runtime records into these from
//! behind its own locks, and the load generators aggregate them into the
//! final [`ServeReport`](crate::ServeReport).

/// Values below this are counted exactly, one bucket each.
const LINEAR: usize = 64;
/// Buckets per octave above [`LINEAR`]: a bucket is at most 1/32 of its
/// lower bound wide.
const SUB_BUCKETS: usize = 32;
/// `LINEAR` exact buckets plus `SUB_BUCKETS` for each octave `2^6..2^64`.
const BUCKETS: usize = LINEAR + (64 - 6) * SUB_BUCKETS;

/// A latency recorder of fixed size: a log-linear bucket array (exact
/// below 64 µs, 32 buckets per octave above, so a percentile is low by
/// less than 1/32 of itself) with exact count, sum and maximum. The
/// array is one 15 KiB allocation made with the histogram and never
/// resized — the same size after a billion records as after none — and
/// merging is element-wise addition.
#[derive(Clone)]
pub struct LatencyHistogram {
    /// `BUCKETS` counters; boxed so that moving a histogram (into a
    /// mutex, out of `Server::shutdown`) moves five words.
    counts: Box<[u64]>,
    len: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            len: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("len", &self.len)
            .field("sum_us", &self.sum_us)
            .field("max_us", &self.max_us)
            .finish_non_exhaustive()
    }
}

/// The bucket `micros` is counted in.
fn bucket_of(micros: u64) -> usize {
    if micros < LINEAR as u64 {
        return micros as usize;
    }
    let octave = micros.ilog2() as usize; // 6..=63
    let sub = (micros >> (octave - 5)) as usize - SUB_BUCKETS;
    LINEAR + (octave - 6) * SUB_BUCKETS + sub
}

/// The smallest value counted in `bucket` — what a percentile reports.
fn lower_bound(bucket: usize) -> u64 {
    if bucket < LINEAR {
        return bucket as u64;
    }
    let above = bucket - LINEAR;
    let (octave, sub) = (above / SUB_BUCKETS + 6, above % SUB_BUCKETS);
    ((SUB_BUCKETS + sub) as u64) << (octave - 5)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency observation, in microseconds.
    pub fn record(&mut self, micros: u64) {
        self.counts[bucket_of(micros)] += 1;
        self.len += 1;
        self.sum_us = self.sum_us.saturating_add(micros);
        self.max_us = self.max_us.max(micros);
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.len += other.len;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Nearest-rank percentile in microseconds, reported as the lower
    /// bound of the bucket that rank falls in (exact below 64 µs); 0 when
    /// empty. `p` is in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        let rank = (((p / 100.0) * self.len as f64).ceil() as u64).clamp(1, self.len.max(1));
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return lower_bound(bucket);
            }
        }
        0
    }

    /// Median latency (µs).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile latency (µs).
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile latency (µs).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Mean latency (µs); 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum_us.checked_div(self.len).unwrap_or(0)
    }

    /// Maximum latency (µs); 0 when empty.
    pub fn max(&self) -> u64 {
        self.max_us
    }
}

/// Running queue-depth statistics, sampled at every submission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueDepthStats {
    /// Number of depth samples taken.
    pub samples: u64,
    /// Sum of sampled depths (for the mean).
    pub depth_sum: u64,
    /// Deepest observed queue.
    pub depth_max: usize,
}

impl QueueDepthStats {
    /// Records the queue depth observed at one submission.
    pub fn observe(&mut self, depth: usize) {
        self.samples += 1;
        self.depth_sum += depth as u64;
        self.depth_max = self.depth_max.max(depth);
    }

    /// Mean observed depth; 0 when nothing was sampled.
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.samples as f64
        }
    }
}

/// Batch-size statistics accumulated by the workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of batches executed.
    pub batches: u64,
    /// Number of samples across all batches.
    pub samples: u64,
    /// Largest batch executed.
    pub max_batch: usize,
}

impl BatchStats {
    /// Records one executed batch of `size` samples.
    pub fn observe(&mut self, size: usize) {
        self.batches += 1;
        self.samples += size as u64;
        self.max_batch = self.max_batch.max(size);
    }

    /// Merges a worker's local stats into a global accumulator.
    pub fn merge(&mut self, other: &BatchStats) {
        self.batches += other.batches;
        self.samples += other.samples;
        self.max_batch = self.max_batch.max(other.max_batch);
    }

    /// Mean batch size; 0 when no batch ran.
    pub fn mean(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.samples as f64 / self.batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(v);
        }
        assert_eq!(h.p50(), 50);
        assert_eq!(h.p95(), 100);
        assert_eq!(h.p99(), 100);
        assert_eq!(h.percentile(10.0), 10);
        assert_eq!(h.mean(), 55);
        assert_eq!(h.max(), 100);
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
    }

    #[test]
    fn buckets_are_exact_below_64_and_a_32nd_of_an_octave_above() {
        for v in 0..LINEAR as u64 {
            assert_eq!(lower_bound(bucket_of(v)), v);
        }
        let mut state = 0x5EA1_u64;
        for _ in 0..100_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = state >> (state % 58); // every octave from 2^6 up
            let bucket = bucket_of(v);
            let low = lower_bound(bucket);
            assert!(
                low <= v && v - low <= low / SUB_BUCKETS as u64,
                "{v} in [{low}, …)"
            );
            assert_eq!(bucket_of(low), bucket, "a lower bound is in its own bucket");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_stay_within_one_bucket_of_exact_nearest_rank() {
        use seal_tensor::rng::rngs::StdRng;
        use seal_tensor::rng::{Rng, SeedableRng};
        // Log-normal latencies around 200 µs with a long tail (Box–Muller
        // on the in-tree generator), the shape a served request has.
        let mut rng = StdRng::seed_from_u64(24);
        let mut exact: Vec<u64> = (0..100_000)
            .map(|_| {
                let (u1, u2): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen_range(0.0..1.0));
                let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (200.0 * (0.8 * normal).exp()) as u64
            })
            .collect();
        let mut h = LatencyHistogram::new();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        assert_eq!(h.len(), exact.len());
        assert_eq!(h.max(), exact[exact.len() - 1]);
        assert_eq!(h.mean(), exact.iter().sum::<u64>() / exact.len() as u64);
        for p in [0.0, 1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            let rank = ((p / 100.0) * exact.len() as f64).ceil() as usize;
            let want = exact[rank.clamp(1, exact.len()) - 1];
            let got = h.percentile(p);
            assert_eq!(
                bucket_of(got),
                bucket_of(want),
                "p{p}: {got} vs exact {want}"
            );
            assert!(got <= want && want - got <= want / SUB_BUCKETS as u64);
        }
    }

    #[test]
    fn a_million_records_leave_size_and_heap_where_they_were() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
        assert_eq!(
            std::mem::size_of::<LatencyHistogram>(),
            5 * 8,
            "a boxed slice and three words"
        );
        let mut h = LatencyHistogram::new();
        let other = LatencyHistogram::new();
        crate::alloc_count::count_this_thread(&ALLOCATIONS);
        for i in 0..1_000_000u64 {
            h.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 60));
        }
        h.merge(&other);
        assert_eq!(ALLOCATIONS.load(Ordering::Relaxed), 0);
        assert_eq!((h.len(), h.counts.len()), (1_000_000, BUCKETS));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyHistogram::new();
        a.record(1);
        let mut b = LatencyHistogram::new();
        b.record(3);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.max(), 3);
    }

    #[test]
    fn queue_and_batch_stats_accumulate() {
        let mut q = QueueDepthStats::default();
        q.observe(0);
        q.observe(4);
        assert_eq!(q.depth_max, 4);
        assert!((q.mean() - 2.0).abs() < f64::EPSILON);

        let mut b = BatchStats::default();
        b.observe(1);
        b.observe(3);
        let mut total = BatchStats::default();
        total.merge(&b);
        assert_eq!(total.samples, 4);
        assert_eq!(total.max_batch, 3);
        assert!((total.mean() - 2.0).abs() < f64::EPSILON);
    }
}
