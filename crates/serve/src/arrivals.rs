//! Deterministic heavy-tailed arrival schedules shared by every load
//! generator.
//!
//! Open-loop tail-latency studies need arrivals that are (a) heavy-tailed
//! — bursts expose queueing behaviour a fixed interval hides — and (b)
//! bitwise reproducible per seed, so every run of the TCP generator
//! replays the *same* offered load and runs are comparable. The schedule
//! is therefore a pure function of
//! `(seed, n, mean, alpha)`: Pareto inter-arrival gaps via the inverse
//! CDF over a splitmix64 stream, accumulated into absolute microsecond
//! offsets. No wall clock, no thread state.
//!
//! Tenant assignment is equally deterministic: user `u` hashes to a point
//! on the cumulative weight line, so a tenant's share of *arrivals*
//! approximates its weighted-fair share of *service* and the Jain index
//! has a meaningful target.

/// One round of splitmix64 — the workspace's standard cheap seed mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a u64 to a uniform f64 in `[0, 1)` using the top 53 bits.
fn unit_f64(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Domain constant separating gap draws from tenant-assignment draws.
const GAP_DOMAIN: u64 = 0x6172_7269_7665; // "arrive"

/// Domain constant for user→tenant assignment.
const TENANT_DOMAIN: u64 = 0x7573_6572; // "user"

/// A precomputed open-loop arrival schedule: absolute microsecond offsets
/// from the run's start, one per simulated user, strictly non-decreasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalSchedule {
    offsets_us: Vec<u64>,
}

impl ArrivalSchedule {
    /// Builds `n` Pareto-distributed arrivals with the given mean
    /// inter-arrival gap (microseconds) and shape `alpha` (> 1 so the
    /// mean exists; ~1.5 gives the heavy-tailed bursts typical of
    /// serving traces). Deterministic per `(seed, n, mean_us, alpha)`.
    pub fn pareto(seed: u64, n: usize, mean_us: f64, alpha: f64) -> ArrivalSchedule {
        let alpha = if alpha > 1.01 { alpha } else { 1.5 };
        let mean_us = if mean_us > 0.0 { mean_us } else { 1.0 };
        // Pareto(x_min, alpha) has mean x_min * alpha / (alpha - 1);
        // invert so the requested mean holds.
        let x_min = mean_us * (alpha - 1.0) / alpha;
        let mut offsets_us = Vec::with_capacity(n);
        // Accumulate in f64 so sub-microsecond gaps still advance the
        // clock; truncation happens once per offset, not per gap.
        let mut clock = 0.0f64;
        for i in 0..n {
            let u = unit_f64(splitmix64(
                seed ^ GAP_DOMAIN ^ (i as u64).wrapping_mul(0xD6E8),
            ));
            // Inverse CDF: x = x_min * (1 - u)^(-1/alpha); u < 1 always.
            let gap = x_min * (1.0 - u).powf(-1.0 / alpha);
            // Cap any single gap at 1s so one extreme tail draw cannot
            // stall the whole run; the cap is itself deterministic.
            clock += gap.min(1_000_000.0);
            offsets_us.push(clock as u64);
        }
        ArrivalSchedule { offsets_us }
    }

    /// The absolute start offsets in microseconds, one per arrival.
    pub fn offsets_us(&self) -> &[u64] {
        &self.offsets_us
    }

    /// Number of scheduled arrivals.
    pub fn len(&self) -> usize {
        self.offsets_us.len()
    }

    /// `true` for an empty schedule.
    pub fn is_empty(&self) -> bool {
        self.offsets_us.is_empty()
    }

    /// Total span of the schedule in microseconds.
    pub fn span_us(&self) -> u64 {
        self.offsets_us.last().copied().unwrap_or(0)
    }
}

/// Deterministically assigns each user `0..users` to a tenant *registry
/// index*, proportionally to `weights` (the `(tenant, weight)` table in
/// registry order): user `u` hashes to a point on the cumulative weight
/// line. Same seed, same table → same assignment, in process or over TCP.
pub fn assign_tenants(seed: u64, users: u64, weights: &[(u32, u32)]) -> Vec<usize> {
    let total: u64 = weights.iter().map(|&(_, w)| u64::from(w.max(1))).sum();
    if total == 0 || weights.is_empty() {
        return Vec::new();
    }
    (0..users)
        .map(|user| {
            let point = splitmix64(seed ^ TENANT_DOMAIN ^ user.wrapping_mul(0xA5A5)) % total;
            let mut acc = 0u64;
            for (idx, &(_, w)) in weights.iter().enumerate() {
                acc += u64::from(w.max(1));
                if point < acc {
                    return idx;
                }
            }
            weights.len() - 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_bitwise_identical_per_seed() {
        let a = ArrivalSchedule::pareto(99, 5_000, 40.0, 1.5);
        let b = ArrivalSchedule::pareto(99, 5_000, 40.0, 1.5);
        assert_eq!(a, b);
        let c = ArrivalSchedule::pareto(100, 5_000, 40.0, 1.5);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn offsets_are_monotone_with_roughly_the_requested_mean() {
        let s = ArrivalSchedule::pareto(7, 20_000, 50.0, 1.5);
        assert_eq!(s.len(), 20_000);
        let mut prev = 0;
        for &o in s.offsets_us() {
            assert!(o >= prev);
            prev = o;
        }
        let mean = s.span_us() as f64 / s.len() as f64;
        assert!(
            (20.0..200.0).contains(&mean),
            "empirical mean gap {mean}us wildly off the requested 50us"
        );
    }

    #[test]
    fn gaps_are_heavy_tailed() {
        // A Pareto(alpha=1.5) stream must show gaps far above the mean —
        // a fixed-interval schedule would fail this.
        let s = ArrivalSchedule::pareto(3, 50_000, 50.0, 1.5);
        let offsets = s.offsets_us();
        let max_gap = offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
            .max(offsets[0]);
        assert!(
            max_gap > 500,
            "max gap {max_gap}us shows no tail over a 50us mean"
        );
    }

    #[test]
    fn tenant_assignment_tracks_weights() {
        let weights = [(0u32, 1u32), (1, 2), (2, 5)];
        let assigned = assign_tenants(11, 100_000, &weights);
        assert_eq!(assigned, assign_tenants(11, 100_000, &weights));
        let mut counts = [0u64; 3];
        for &t in &assigned {
            counts[t] += 1;
        }
        // Expected shares 1/8, 2/8, 5/8 within a few percent.
        let total = assigned.len() as f64;
        for (i, want) in [1.0 / 8.0, 2.0 / 8.0, 5.0 / 8.0].iter().enumerate() {
            let got = counts[i] as f64 / total;
            assert!(
                (got - want).abs() < 0.02,
                "tenant {i}: share {got:.3} vs want {want:.3}"
            );
        }
    }

    #[test]
    fn degenerate_inputs_are_tolerated() {
        assert!(assign_tenants(5, 10, &[]).is_empty());
        let s = ArrivalSchedule::pareto(1, 0, 10.0, 1.5);
        assert!(s.is_empty());
        assert_eq!(s.span_us(), 0);
        // Bad alpha/mean fall back to sane defaults instead of NaN.
        let s = ArrivalSchedule::pareto(1, 10, -3.0, 0.5);
        assert_eq!(s.len(), 10);
        assert!(s.span_us() > 0);
    }
}
