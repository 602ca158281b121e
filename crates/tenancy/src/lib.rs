#![deny(missing_docs)]

//! `cta-tenancy`: multi-tenant fair scheduling, quotas, and autoscaling
//! state machines for the CTA serving fleet.
//!
//! Production traffic is *per-tenant*: popularity is heavy-tailed, SLOs
//! differ by tier, and one tenant's burst must not starve the rest. This
//! crate supplies the scheduling layer the fleet runtime places in front
//! of routing + admission:
//!
//! * [`FairQueue`] — a per-tenant front-end queue drained by one of
//!   three [`SchedulerPolicy`]s: global-arrival-order FIFO (the naive
//!   baseline), deficit round robin (DRR, O(1) per dequeue, bounded
//!   per-round deficit), or self-clocked weighted fair queueing (WFQ,
//!   virtual finish tags). All three are deterministic: pop order is a
//!   pure function of the push/pop history.
//! * [`TokenBucket`] — per-tenant rate quotas with burst capacity;
//!   arrivals that find the bucket empty are shed with
//!   `ShedReason::QuotaExceeded` before they ever occupy queue space.
//! * [`Autoscaler`] — a deterministic replica-count controller driven
//!   by a queue-depth signal: scale-ups pay a warmup delay before the
//!   new replica is routable, scale-downs drain gracefully (queued work
//!   still executes), and a cooldown bounds oscillation.
//! * [`TenancyStats`] / [`jain_index`] — per-tenant goodput, latency
//!   percentiles, slowdown-vs-fleet-mean, and the Jain fairness index
//!   over per-tenant goodput.
//!
//! Everything here is pure `f64`/integer state-machine code with no RNG
//! and no dependency on the simulator: the fleet engine owns *when* to
//! call these, this crate owns *what* they decide. That split is what
//! keeps the fleet driver bitwise identical to its step-granular
//! reference scan with tenancy enabled, and keeps the disabled path
//! byte-for-byte the pre-tenancy fleet.
//!
//! # Example
//!
//! ```
//! use cta_tenancy::{FairQueue, SchedulerPolicy};
//!
//! // Two tenants, 3:1 weights, deficit round robin.
//! let mut q = FairQueue::new(SchedulerPolicy::Drr, &[3.0, 1.0]);
//! for i in 0..4 {
//!     q.push(0, format!("a{i}"));
//!     q.push(1, format!("b{i}"));
//! }
//! let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
//! // Tenant 0 gets three dequeues per round to tenant 1's one.
//! assert_eq!(order, vec![0, 0, 0, 1, 0, 1, 1, 1]);
//! ```

mod autoscale;
mod fair;
mod quota;
mod stats;

pub use autoscale::{AutoscalePolicy, Autoscaler, ScaleEvent};
pub use fair::{FairQueue, SchedulerPolicy};
pub use quota::{QuotaPolicy, TokenBucket};
pub use stats::{jain_index, TenancyStats, TenantBreakdown, TenantOutcome};

/// What the fleet does when the routed replica's queue is full for a
/// fair-queue dequeue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Shed the request (`ShedReason::QueueFull`) exactly as the
    /// tenancy-off arrival path does. With one tenant and equal weights
    /// this reproduces the plain fleet byte-for-byte.
    #[default]
    Shed,
    /// Hold the request in the front-end fair queue and stop draining
    /// until capacity frees. This is what makes fair scheduling visible:
    /// backlog accrues per tenant in the front-end and the scheduler —
    /// not arrival order — decides who is served next.
    Hold,
}

impl Backpressure {
    /// Short identifier used in reports and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            Backpressure::Shed => "shed",
            Backpressure::Hold => "hold",
        }
    }

    /// Parses a CLI label (`shed` / `hold`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "shed" => Some(Backpressure::Shed),
            "hold" => Some(Backpressure::Hold),
            _ => None,
        }
    }
}

/// Full tenancy configuration the fleet runtime consumes. `None` in
/// `FleetConfig.tenancy` means the subsystem is off and the runtime
/// executes the exact pre-tenancy event loop (pinned bitwise by test).
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyConfig {
    /// Number of tenants; every request's `tenant` id must be below
    /// this.
    pub tenants: u32,
    /// Which scheduler drains the front-end fair queue.
    pub scheduler: SchedulerPolicy,
    /// Per-tenant scheduling weights (`len == tenants`, all positive).
    /// FIFO ignores them.
    pub weights: Vec<f64>,
    /// Full-queue behaviour for dequeues.
    pub backpressure: Backpressure,
    /// Per-tenant token-bucket quota applied at arrival; `None` = no
    /// quota.
    pub quota: Option<QuotaPolicy>,
    /// Deterministic replica autoscaling; `None` = fixed fleet.
    pub autoscale: Option<AutoscalePolicy>,
}

impl TenancyConfig {
    /// Equal-weight tenancy with no quota and no autoscaler — the
    /// configuration whose single-tenant instantiation is pinned
    /// byte-for-byte against the tenancy-off fleet.
    ///
    /// # Panics
    ///
    /// Panics if `tenants == 0`.
    pub fn equal_weight(tenants: u32, scheduler: SchedulerPolicy) -> Self {
        assert!(tenants > 0, "at least one tenant");
        Self {
            tenants,
            scheduler,
            weights: vec![1.0; tenants as usize],
            backpressure: Backpressure::Shed,
            quota: None,
            autoscale: None,
        }
    }

    /// Validates the configuration against a fleet of `replicas`.
    ///
    /// # Panics
    ///
    /// Panics if `tenants == 0`, the weight vector disagrees in length
    /// or holds a non-positive/non-finite weight, or the autoscaler
    /// bounds are inconsistent with the fleet size.
    pub fn validate(&self, replicas: usize) {
        assert!(self.tenants > 0, "at least one tenant");
        assert_eq!(self.weights.len(), self.tenants as usize, "one weight per tenant");
        assert!(
            self.weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "tenant weights must be positive and finite"
        );
        if let Some(q) = &self.quota {
            q.validate();
        }
        if let Some(a) = &self.autoscale {
            a.validate(replicas);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backpressure_labels_round_trip() {
        for b in [Backpressure::Shed, Backpressure::Hold] {
            assert_eq!(Backpressure::parse(b.label()), Some(b));
        }
        assert_eq!(Backpressure::parse("nope"), None);
    }

    #[test]
    fn equal_weight_config_validates() {
        let cfg = TenancyConfig::equal_weight(4, SchedulerPolicy::Drr);
        cfg.validate(8);
        assert_eq!(cfg.weights, vec![1.0; 4]);
        assert_eq!(cfg.backpressure, Backpressure::Shed);
    }

    #[test]
    #[should_panic(expected = "one weight per tenant")]
    fn mismatched_weights_rejected() {
        let mut cfg = TenancyConfig::equal_weight(4, SchedulerPolicy::Drr);
        cfg.weights.pop();
        cfg.validate(8);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_weight_rejected() {
        let mut cfg = TenancyConfig::equal_weight(2, SchedulerPolicy::Wfq);
        cfg.weights[1] = 0.0;
        cfg.validate(8);
    }
}
