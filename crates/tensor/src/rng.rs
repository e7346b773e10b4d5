//! Minimal in-tree pseudo-random number generation.
//!
//! The workspace must build and test **hermetically** — with no network
//! access and no external registry crates — so this module replaces the
//! small slice of the `rand` crate API the SEAL reproduction actually
//! uses: a seedable deterministic generator ([`StdRng`]), uniform
//! sampling over ranges ([`Rng::gen_range`]), standard-distribution
//! sampling ([`Rng::gen`]), byte filling ([`Rng::fill`]) and Fisher–Yates
//! shuffling ([`seq::SliceRandom`]).
//!
//! The generator is **xorshift64\*** seeded through one round of
//! SplitMix64 — 8 bytes of state, passes the classic BigCrush smoke
//! subset, and is more than adequate for weight initialisation, data
//! augmentation and test-vector generation. It is explicitly **not** a
//! CSPRNG; key material in `seal-crypto` is derived separately.
//!
//! The API mirrors `rand 0.8` paths so call sites only change their
//! imports (`use rand::Rng` → `use seal_tensor::rng::Rng`):
//!
//! ```
//! use seal_tensor::rng::rngs::StdRng;
//! use seal_tensor::rng::{Rng, SeedableRng};
//! use seal_tensor::rng::seq::SliceRandom;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let x: f32 = rng.gen_range(0.0..1.0);
//! assert!((0.0..1.0).contains(&x));
//! let mut order: Vec<usize> = (0..8).collect();
//! order.shuffle(&mut rng);
//! ```

/// Raw 64-bit generator interface (the analogue of `rand::RngCore`).
pub trait RngCore {
    /// Returns the next 64 pseudo-random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seeding interface (the analogue of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator whose whole stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// One round of SplitMix64: decorrelates adjacent seeds so that
/// `seed_from_u64(1)` and `seed_from_u64(2)` produce unrelated streams.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace's deterministic generator: xorshift64\* with SplitMix64
/// seeding. Deliberately named like `rand::rngs::StdRng` so existing type
/// annotations keep compiling.
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mixed = splitmix64(seed);
        StdRng {
            // xorshift state must never be zero (zero is a fixed point).
            state: if mixed == 0 {
                0x6A09_E667_F3BC_C909
            } else {
                mixed
            },
        }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Types samplable from the "standard" distribution: the unit interval
/// `[0, 1)` for floats, the full value range for integers and `bool`.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // Top 24 bits → [0, 1) with full f32 mantissa resolution.
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for u8 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types uniformly samplable over a `lo..hi` span.
pub trait SampleUniform: Copy + PartialOrd {
    /// Draws uniformly from `[lo, hi)` (`inclusive` widens to `[lo, hi]`).
    fn sample_in<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
}

/// Unbiased integer draw from `[0, span)` via 128-bit widening multiply.
fn mul_shift(bits: u64, span: u64) -> u64 {
    ((bits as u128 * span as u128) >> 64) as u64
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_in<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let span = (hi as i128 - lo as i128 + if inclusive { 1 } else { 0 }) as u64;
                assert!(span > 0, "cannot sample from an empty range");
                lo.wrapping_add(mul_shift(rng.next_u64(), span) as $t)
            }
        }
    )*};
}

uniform_int!(usize, isize, u64, u32, i64, i32);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_in<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                _inclusive: bool,
                rng: &mut R,
            ) -> Self {
                assert!(lo <= hi, "cannot sample from an inverted range");
                let unit = <$t as Standard>::sample_standard(rng);
                lo + (hi - lo) * unit
            }
        }
    )*};
}

uniform_float!(f32, f64);

/// Range arguments accepted by [`Rng::gen_range`] (`a..b` and `a..=b`).
pub trait SampleRange<T> {
    /// Draws one value from the range using `rng`.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_in(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_in(lo, hi, true, rng)
    }
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`]
/// (the analogue of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Draws uniformly from `range` (`a..b` half-open, `a..=b` inclusive).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample_standard(self) < p
    }

    /// Fills `dest` with pseudo-random bytes.
    fn fill(&mut self, dest: &mut [u8])
    where
        Self: Sized,
    {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named-generator aliases mirroring `rand::rngs`.
pub mod rngs {
    pub use super::StdRng;
}

/// Sequence-related sampling mirroring `rand::seq`.
pub mod seq {
    use super::{RngCore, SampleUniform};

    /// Slice shuffling and element choice (the analogue of
    /// `rand::seq::SliceRandom`).
    pub trait SliceRandom {
        /// Element type of the sequence.
        type Item;

        /// Shuffles the sequence in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Picks one element uniformly, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = usize::sample_in(0, i + 1, false, rng);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[usize::sample_in(0, self.len(), false, rng)])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn adjacent_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = StdRng::seed_from_u64(0);
        let x = r.next_u64();
        assert_ne!(x, r.next_u64());
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f32 = r.gen();
            assert!((0.0..1.0).contains(&x), "{x}");
            let y: f64 = r.gen();
            assert!((0.0..1.0).contains(&y), "{y}");
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let i = r.gen_range(3..17usize);
            assert!((3..17).contains(&i), "{i}");
            let f = r.gen_range(-2.5f32..=2.5);
            assert!((-2.5..=2.5).contains(&f), "{f}");
            let n = r.gen_range(-8i32..8);
            assert!((-8..8).contains(&n), "{n}");
        }
    }

    #[test]
    fn gen_range_covers_all_buckets() {
        let mut r = StdRng::seed_from_u64(5);
        let mut hits = [0usize; 10];
        for _ in 0..10_000 {
            hits[r.gen_range(0..10usize)] += 1;
        }
        // Uniform ±50%: each bucket expects ~1000 draws.
        assert!(hits.iter().all(|&h| h > 500 && h < 1500), "{hits:?}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = StdRng::seed_from_u64(6);
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle virtually never fixes");
    }

    #[test]
    fn fill_covers_whole_buffer() {
        let mut r = StdRng::seed_from_u64(7);
        let mut buf = [0u8; 37];
        r.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        let tail = buf;
        r.fill(&mut buf);
        assert_ne!(buf, tail);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(8);
        let heads = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((1_800..3_200).contains(&heads), "{heads}");
    }

    #[test]
    fn choose_picks_existing_elements() {
        let mut r = StdRng::seed_from_u64(9);
        let v = [10, 20, 30];
        for _ in 0..100 {
            assert!(v.contains(v.choose(&mut r).unwrap()));
        }
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut r).is_none());
    }

    #[test]
    fn works_through_mut_references() {
        fn draw(rng: &mut impl Rng) -> f32 {
            rng.gen_range(0.0..1.0)
        }
        let mut r = StdRng::seed_from_u64(10);
        let x = draw(&mut r);
        assert!((0.0..1.0).contains(&x));
    }
}
