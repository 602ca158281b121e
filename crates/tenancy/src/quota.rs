//! Per-tenant token-bucket quotas.
//!
//! A bucket holds up to `burst` tokens and refills continuously at
//! `rate_rps`. Each admitted request spends one token at its arrival
//! instant; an arrival that finds the bucket short is shed with
//! `ShedReason::QuotaExceeded` before it occupies any queue space, so a
//! tenant pushing past its contracted rate cannot inflate anyone else's
//! backlog. Refill is a pure function of the elapsed simulated time —
//! no wall clock — so runs reproduce exactly.

use crate::ensure;

/// A uniform per-tenant quota contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaPolicy {
    /// Sustained admitted rate, requests per second.
    pub rate_rps: f64,
    /// Bucket capacity: the largest burst admitted from an idle tenant.
    pub burst: f64,
}

impl QuotaPolicy {
    /// Builds and validates a quota.
    ///
    /// # Panics
    ///
    /// Panics on non-positive or non-finite `rate_rps`, or `burst < 1`
    /// (a bucket that can never hold one token admits nothing).
    pub fn new(rate_rps: f64, burst: f64) -> Self {
        let q = Self { rate_rps, burst };
        q.validate();
        q
    }

    /// Validates the quota fields.
    ///
    /// # Panics
    ///
    /// See [`QuotaPolicy::new`].
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Fallible form of [`validate`](Self::validate): the first violated
    /// rule.
    pub fn try_validate(&self) -> Result<(), &'static str> {
        ensure(
            self.rate_rps.is_finite() && self.rate_rps > 0.0,
            "quota rate must be positive and finite",
        )?;
        ensure(self.burst.is_finite() && self.burst >= 1.0, "quota burst must be at least 1")?;
        Ok(())
    }
}

/// One tenant's token bucket. Starts full, so a tenant's first burst up
/// to `burst` requests is always admitted.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    rate_rps: f64,
    burst: f64,
    tokens: f64,
    last_s: f64,
}

impl TokenBucket {
    /// A full bucket under `policy`, last refilled at t=0.
    pub fn new(policy: QuotaPolicy) -> Self {
        policy.validate();
        Self { rate_rps: policy.rate_rps, burst: policy.burst, tokens: policy.burst, last_s: 0.0 }
    }

    /// Refills for the time elapsed since the last call and, when the
    /// bucket covers `cost`, spends it. `now` must not go backwards
    /// (the fleet's arrival stream is sorted, so it never does).
    pub fn try_take(&mut self, now: f64, cost: f64) -> bool {
        if now > self.last_s {
            self.tokens = (self.tokens + (now - self.last_s) * self.rate_rps).min(self.burst);
            self.last_s = now;
        }
        if self.tokens >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }

    /// Current token balance (after the most recent refill).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_is_admitted_then_rate_limits() {
        let mut b = TokenBucket::new(QuotaPolicy::new(2.0, 3.0));
        // Full bucket: the first three coincident requests pass.
        assert!(b.try_take(0.0, 1.0));
        assert!(b.try_take(0.0, 1.0));
        assert!(b.try_take(0.0, 1.0));
        assert!(!b.try_take(0.0, 1.0));
        // 0.5 s later two tokens refilled (rate 2/s): two more pass.
        assert!(b.try_take(0.5, 1.0));
        assert!(!b.try_take(0.5, 1.0));
        assert!(b.try_take(1.0, 1.0));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(QuotaPolicy::new(10.0, 2.0));
        assert!(b.try_take(0.0, 1.0));
        // A long idle gap refills to the cap, not beyond it.
        assert!(b.try_take(100.0, 1.0));
        assert!(b.try_take(100.0, 1.0));
        assert!(!b.try_take(100.0, 1.0));
    }

    #[test]
    fn sustained_rate_matches_contract() {
        let mut b = TokenBucket::new(QuotaPolicy::new(4.0, 1.0));
        // Offered at 8/s for 2 s: exactly the contracted 4/s passes
        // after the initial token.
        let admitted = (0..16).filter(|i| b.try_take(*i as f64 * 0.125, 1.0)).count();
        assert_eq!(admitted, 8);
    }

    #[test]
    #[should_panic(expected = "quota rate must be positive")]
    fn zero_rate_rejected() {
        let _ = QuotaPolicy::new(0.0, 4.0);
    }

    #[test]
    #[should_panic(expected = "quota burst must be at least 1")]
    fn sub_token_burst_rejected() {
        let _ = QuotaPolicy::new(1.0, 0.5);
    }
}
