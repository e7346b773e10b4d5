//! Exponential backoff for bounded recovery retries — both the wall-clock
//! flavour used by live clients and the virtual-cycle flavour used when
//! pricing recovery through the engine pipeline.

use std::time::Duration;

/// Capped exponential backoff state for a retry loop.
///
/// The schedule is `base, 2*base, 4*base, ...` clamped to `max`. The
/// struct is deliberately tiny and deterministic (no jitter): chaos runs
/// must reproduce identical retry counts for identical seeds, so sleep
/// duration may vary but attempt accounting may not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base: Duration,
    max: Duration,
    attempt: u32,
}

impl Backoff {
    /// Creates a backoff schedule starting at `base` and saturating at
    /// `max` (values are swapped if given in the wrong order, so the
    /// schedule is always well-formed).
    pub fn new(base: Duration, max: Duration) -> Self {
        let (lo, hi) = if base <= max {
            (base, max)
        } else {
            (max, base)
        };
        Backoff {
            base: lo,
            max: hi,
            attempt: 0,
        }
    }

    /// The delay to sleep before the next retry, advancing the schedule.
    pub fn next_delay(&mut self) -> Duration {
        let delay = self
            .base
            .checked_mul(1u32 << self.attempt.min(31))
            .map_or(self.max, |d| d.min(self.max));
        self.attempt = self.attempt.saturating_add(1);
        delay
    }

    /// How many delays have been handed out since creation or the last
    /// [`Backoff::reset`].
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Rewinds the schedule to the base delay (call after a success).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// The virtual-cycle cost of recovery attempt `attempt` (0-based) with a
/// doubling schedule starting at `base_cycles`, clamped to `max_cycles`.
///
/// Used by the cost lanes to price MAC-failure re-fetches through the
/// `seal_crypto` engine pipeline so recovery shows up in lane throughput
/// instead of being free.
pub fn backoff_cycles(base_cycles: u64, attempt: u32, max_cycles: u64) -> u64 {
    if base_cycles == 0 {
        return 0;
    }
    let shifted = if attempt >= 63 {
        u64::MAX
    } else {
        base_cycles.saturating_mul(1u64 << attempt)
    };
    shifted.min(max_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_double_then_cap() {
        let mut b = Backoff::new(Duration::from_micros(10), Duration::from_micros(45));
        assert_eq!(b.next_delay(), Duration::from_micros(10));
        assert_eq!(b.next_delay(), Duration::from_micros(20));
        assert_eq!(b.next_delay(), Duration::from_micros(40));
        assert_eq!(b.next_delay(), Duration::from_micros(45));
        assert_eq!(b.next_delay(), Duration::from_micros(45));
        assert_eq!(b.attempts(), 5);
        b.reset();
        assert_eq!(b.attempts(), 0);
        assert_eq!(b.next_delay(), Duration::from_micros(10));
    }

    #[test]
    fn swapped_bounds_are_normalised() {
        let mut b = Backoff::new(Duration::from_millis(8), Duration::from_millis(1));
        assert_eq!(b.next_delay(), Duration::from_millis(1));
        assert_eq!(b.next_delay(), Duration::from_millis(2));
    }

    #[test]
    fn huge_attempt_counts_saturate() {
        let mut b = Backoff::new(Duration::from_secs(1), Duration::from_secs(30));
        for _ in 0..80 {
            assert!(b.next_delay() <= Duration::from_secs(30));
        }
        assert_eq!(b.attempts(), 80);
    }

    #[test]
    fn cycle_backoff_doubles_and_caps() {
        assert_eq!(backoff_cycles(100, 0, 10_000), 100);
        assert_eq!(backoff_cycles(100, 1, 10_000), 200);
        assert_eq!(backoff_cycles(100, 5, 10_000), 3_200);
        assert_eq!(backoff_cycles(100, 12, 10_000), 10_000);
        assert_eq!(backoff_cycles(100, 200, 10_000), 10_000);
        assert_eq!(backoff_cycles(0, 7, 10_000), 0);
    }
}
