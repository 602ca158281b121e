//! Seeded, dependency-free randomness for simulated events: the chaos
//! engine draws its scenarios from [`DetRng`], and the fault model keys
//! its per-step jitter by seed, replica and time with [`mix64`].
//!
//! ```
//! use cta_serve::{mix64, DetRng};
//!
//! let mut a = DetRng::seeded(7);
//! let mut b = DetRng::seeded(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!((0.0..1.0).contains(&a.next_f64()));
//! assert_eq!(mix64(42), mix64(42));
//! ```

/// A SplitMix64 generator: tiny state, full 64-bit output, deterministic
/// for a given seed. Good enough for event-time jitter and sampling; not
/// cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// A generator with the given seed. Equal seeds yield equal streams.
    pub fn seeded(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// The next value uniform in `[0, 1)`, using the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The stateless SplitMix64 finalizer: a bijective avalanche mix of `x`.
/// Useful as a pure hash when an effect must be a deterministic function
/// of its inputs alone (no generator state to thread through), e.g.
/// per-step fault jitter keyed by `(seed, replica, time)`.
pub fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = DetRng::seeded(0xC7A);
        let mut b = DetRng::seeded(0xC7A);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seeded(1);
        let mut b = DetRng::seeded(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be uncorrelated, {same} collisions");
    }

    #[test]
    fn mix64_is_deterministic_and_avalanches() {
        assert_eq!(mix64(42), mix64(42));
        // Flipping one input bit flips roughly half the output bits.
        let flips = (mix64(42) ^ mix64(43)).count_ones();
        assert!((16..=48).contains(&flips), "weak avalanche: {flips} bit flips");
        // The finalizer is exactly the DetRng output mix.
        let mut rng = DetRng::seeded(7);
        assert_eq!(rng.next_u64(), mix64(7u64.wrapping_add(0x9E37_79B9_7F4A_7C15)));
    }

    #[test]
    fn unit_interval_bounds() {
        let mut rng = DetRng::seeded(7);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 0.05 && hi > 0.95, "range should be exercised: [{lo}, {hi}]");
    }
}
