//! SLO-aware admission control.
//!
//! Admission is evaluated once per request, at arrival, against the
//! replica the router selected. Two independent shedding mechanisms:
//!
//! * **queue-depth shedding** — reject when the replica's queue already
//!   holds `max_queue_depth` requests, unless the request's class
//!   priority reaches `depth_exempt_priority` (lets interactive traffic
//!   push past a backlog of batch work);
//! * **deadline shedding** — reject when the estimated completion time
//!   (queueing + service, from the [`CostModel`](crate::CostModel))
//!   already exceeds the class deadline, so doomed work never occupies
//!   the accelerators.

use crate::QosClass;

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The target replica's queue was at `max_queue_depth`.
    QueueFull,
    /// The class deadline could not be met even if admitted.
    DeadlineUnmeetable,
    /// A replica crash orphaned the request and it could not be placed
    /// again: no healthy replica was available, the retry budget ran out,
    /// or the deadline could no longer be met after requeueing.
    ReplicaLost,
    /// The owning tenant's token-bucket quota was exhausted; the request
    /// was rejected at arrival, before occupying any queue space.
    QuotaExceeded,
    /// The request's decode session was lost: a crash evicted the
    /// session's compression state and the turn could not re-prefill
    /// elsewhere under the retry budget, or an earlier turn of the same
    /// session was shed. Later turns of a lost session shed with this
    /// reason at arrival.
    SessionLost,
}

/// Admission-control configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Maximum queued (not yet running) requests per replica; `None`
    /// disables depth shedding.
    pub max_queue_depth: Option<usize>,
    /// Classes at or above this priority bypass depth shedding; `None`
    /// means no class bypasses it.
    pub depth_exempt_priority: Option<u8>,
    /// Whether to shed requests whose class deadline is already
    /// unmeetable at arrival.
    pub enforce_deadlines: bool,
}

impl AdmissionPolicy {
    /// Admit everything (the compatibility behaviour of
    /// [`FleetConfig::single_fifo`](crate::FleetConfig::single_fifo)).
    pub fn admit_all() -> Self {
        Self { max_queue_depth: None, depth_exempt_priority: None, enforce_deadlines: true }
    }

    /// Depth-bounded queues with deadline enforcement: the configuration
    /// a production front-end would run.
    ///
    /// # Panics
    ///
    /// Panics if `max_queue_depth == 0` (a zero-depth queue could never
    /// admit anything while a replica is busy).
    pub fn bounded(max_queue_depth: usize) -> Self {
        assert!(max_queue_depth > 0, "queue depth must be positive");
        Self {
            max_queue_depth: Some(max_queue_depth),
            depth_exempt_priority: Some(200),
            enforce_deadlines: true,
        }
    }

    /// Decides admission for a request of `class` whose target replica
    /// currently queues `queue_depth` requests and would complete it an
    /// estimated `est_latency_s` after its arrival.
    pub fn admit(
        &self,
        class: &QosClass,
        queue_depth: usize,
        est_latency_s: f64,
    ) -> Result<(), ShedReason> {
        if let Some(max) = self.max_queue_depth {
            let exempt = self.depth_exempt_priority.is_some_and(|p| class.priority >= p);
            if !exempt && queue_depth >= max {
                return Err(ShedReason::QueueFull);
            }
        }
        if self.enforce_deadlines {
            if let Some(deadline) = class.deadline_s {
                if est_latency_s > deadline {
                    return Err(ShedReason::DeadlineUnmeetable);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_all_admits_everything_without_deadline() {
        let p = AdmissionPolicy::admit_all();
        assert_eq!(p.admit(&QosClass::batch(), 10_000, 1e9), Ok(()));
    }

    #[test]
    fn depth_shedding_triggers_at_limit() {
        let p = AdmissionPolicy::bounded(4);
        let c = QosClass::standard();
        assert_eq!(p.admit(&c, 3, 0.0), Ok(()));
        assert_eq!(p.admit(&c, 4, 0.0), Err(ShedReason::QueueFull));
    }

    #[test]
    fn priority_exactly_at_the_exemption_threshold_is_exempt() {
        // The contract is `priority >= depth_exempt_priority`: equality
        // bypasses depth shedding, one below does not — even against a
        // queue far past its limit.
        let mut p = AdmissionPolicy::bounded(2);
        p.depth_exempt_priority = Some(150);
        let at = QosClass { name: "edge", priority: 150, deadline_s: None };
        let below = QosClass { name: "edge", priority: 149, deadline_s: None };
        assert_eq!(p.admit(&at, 1_000, 0.0), Ok(()));
        assert_eq!(p.admit(&below, 1_000, 0.0), Err(ShedReason::QueueFull));
        // The boundary moves with the policy, not the class.
        p.depth_exempt_priority = Some(151);
        assert_eq!(p.admit(&at, 1_000, 0.0), Err(ShedReason::QueueFull));
    }

    #[test]
    fn exemption_disabled_sheds_even_the_highest_priority() {
        let mut p = AdmissionPolicy::bounded(1);
        p.depth_exempt_priority = None;
        let top = QosClass { name: "edge", priority: u8::MAX, deadline_s: None };
        assert_eq!(p.admit(&top, 1, 0.0), Err(ShedReason::QueueFull));
        assert_eq!(p.admit(&top, 0, 0.0), Ok(()));
    }

    #[test]
    fn interactive_bypasses_depth_but_not_deadline() {
        let p = AdmissionPolicy::bounded(2);
        let c = QosClass::interactive(1.0);
        assert_eq!(p.admit(&c, 100, 0.5), Ok(()));
        assert_eq!(p.admit(&c, 100, 1.5), Err(ShedReason::DeadlineUnmeetable));
    }

    #[test]
    fn deadline_shedding_respects_estimate() {
        let p = AdmissionPolicy::admit_all();
        let c = QosClass::interactive(0.010);
        assert_eq!(p.admit(&c, 0, 0.009), Ok(()));
        assert_eq!(p.admit(&c, 0, 0.011), Err(ShedReason::DeadlineUnmeetable));
    }

    #[test]
    #[should_panic(expected = "queue depth must be positive")]
    fn zero_depth_rejected() {
        let _ = AdmissionPolicy::bounded(0);
    }
}
