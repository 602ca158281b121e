//! Replica-selection policies.

use crate::replica::Replica;

/// How arriving requests are assigned to replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Cycle through replicas in index order, ignoring state.
    RoundRobin,
    /// Send to the replica with the fewest requests in flight (queued +
    /// active); ties break to the lowest index.
    JoinShortestQueue,
    /// Send to the replica with the least estimated outstanding work in
    /// seconds (committed schedule + remaining layers + queued service);
    /// ties break to the lowest index. Each request's per-layer step
    /// times are priced once at admission by the shared
    /// [`CostModel`](crate::CostModel), and each replica caches its
    /// active, queued and resident-session sums, invalidated only when
    /// `enqueue`, `execute_step`, `crash`, `cancel_request` or a
    /// session-residency change touches that replica. A decision then
    /// costs O(1) per untouched replica, with the same bits as re-summing
    /// from scratch.
    LeastOutstandingWork,
}

impl RoutingPolicy {
    /// Short identifier used in reports and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "rr",
            RoutingPolicy::JoinShortestQueue => "jsq",
            RoutingPolicy::LeastOutstandingWork => "low",
        }
    }

    /// Parses a CLI label (`rr` / `jsq` / `low`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rr" | "round-robin" => Some(RoutingPolicy::RoundRobin),
            "jsq" | "join-shortest-queue" => Some(RoutingPolicy::JoinShortestQueue),
            "low" | "least-outstanding-work" => Some(RoutingPolicy::LeastOutstandingWork),
            _ => None,
        }
    }

    /// Selects the replica for a request arriving at `now`, considering
    /// only healthy (`up`) replicas — arrivals never land on a down
    /// replica. When `routable` is given (the circuit-breaker mask, and
    /// the hedge dispatcher's primary-exclusion mask), replicas whose
    /// entry is `false` are skipped too: up but breaker-blocked replicas
    /// take no routed traffic. Returns `None` when no replica is
    /// eligible. `rr_cursor` is the round-robin state, advanced only by
    /// that policy.
    ///
    /// With every replica up and no mask (the fault-free,
    /// overload-control-off path) the picks are identical to the
    /// health-unaware policies, so healthy runs stay
    /// bitwise-reproducible.
    pub(crate) fn choose(
        &self,
        replicas: &mut [Replica<'_>],
        now: f64,
        rr_cursor: &mut usize,
        routable: Option<&[bool]>,
    ) -> Option<usize> {
        let eligible = |i: usize, r: &Replica<'_>| r.up && routable.is_none_or(|mask| mask[i]);
        match self {
            RoutingPolicy::RoundRobin => {
                let n = replicas.len();
                for k in 0..n {
                    let i = (*rr_cursor + k) % n;
                    if eligible(i, &replicas[i]) {
                        *rr_cursor = (i + 1) % n;
                        return Some(i);
                    }
                }
                None
            }
            RoutingPolicy::JoinShortestQueue => replicas
                .iter()
                .enumerate()
                .filter(|(i, r)| eligible(*i, r))
                .min_by_key(|(i, r)| (r.load(), *i))
                .map(|(i, _)| i),
            RoutingPolicy::LeastOutstandingWork => {
                let mut best: Option<usize> = None;
                let mut best_work = f64::INFINITY;
                for (i, r) in replicas.iter_mut().enumerate() {
                    if !(r.up && routable.is_none_or(|mask| mask[i])) {
                        continue;
                    }
                    let work = r.outstanding_s(now);
                    if work < best_work {
                        best_work = work;
                        best = Some(i);
                    }
                }
                best
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LayerTimes;
    use crate::replica::Pending;
    use crate::{QosClass, ServeRequest};
    use cta_sim::{AttentionTask, CtaSystem, SystemConfig};

    fn task() -> AttentionTask {
        AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6)
    }

    fn replicas<'a>(n: usize) -> Vec<Replica<'a>> {
        (0..n).map(|i| Replica::new(i, CtaSystem::new(SystemConfig::paper()))).collect()
    }

    fn paper_upload_s() -> f64 {
        CtaSystem::new(SystemConfig::paper()).weight_upload_s()
    }

    /// A queued request; queued work borrows its request, so the request
    /// is leaked to outlive the test's replicas.
    fn queued(id: u64, layers: usize) -> Pending<'static> {
        Pending::fresh(
            Box::leak(Box::new(ServeRequest::uniform(
                id,
                0.0,
                QosClass::standard(),
                task(),
                layers,
                4,
            ))),
            layers as f64,
            LayerTimes::from_steps(paper_upload_s(), &vec![1.0; layers]),
        )
    }

    #[test]
    fn parse_round_trips_labels() {
        for p in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::LeastOutstandingWork,
        ] {
            assert_eq!(RoutingPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(RoutingPolicy::parse("nope"), None);
    }

    #[test]
    fn round_robin_cycles() {
        let mut rs = replicas(3);
        let mut cursor = 0;
        let picks: Vec<Option<usize>> = (0..6)
            .map(|_| RoutingPolicy::RoundRobin.choose(&mut rs, 0.0, &mut cursor, None))
            .collect();
        assert_eq!(picks, vec![Some(0), Some(1), Some(2), Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn round_robin_skips_down_replicas() {
        let mut rs = replicas(3);
        rs[1].crash(0.0);
        let mut cursor = 0;
        let picks: Vec<Option<usize>> = (0..4)
            .map(|_| RoutingPolicy::RoundRobin.choose(&mut rs, 0.0, &mut cursor, None))
            .collect();
        assert_eq!(picks, vec![Some(0), Some(2), Some(0), Some(2)]);
    }

    #[test]
    fn all_policies_return_none_when_fleet_is_down() {
        let mut rs = replicas(2);
        rs[0].crash(0.0);
        rs[1].crash(0.0);
        let mut cursor = 0;
        for p in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::LeastOutstandingWork,
        ] {
            assert_eq!(p.choose(&mut rs, 0.0, &mut cursor, None), None);
        }
    }

    #[test]
    fn jsq_and_low_never_pick_a_down_replica() {
        let mut rs = replicas(2);
        // Replica 0 is idle but down; replica 1 is loaded but up.
        rs[0].crash(0.0);
        rs[1].enqueue(queued(0, 10));
        let mut cursor = 0;
        assert_eq!(
            RoutingPolicy::JoinShortestQueue.choose(&mut rs, 0.0, &mut cursor, None),
            Some(1)
        );
        assert_eq!(
            RoutingPolicy::LeastOutstandingWork.choose(&mut rs, 0.0, &mut cursor, None),
            Some(1)
        );
    }

    #[test]
    fn jsq_prefers_emptier_replica() {
        let mut rs = replicas(2);
        rs[0].enqueue(queued(0, 1));
        rs[0].enqueue(queued(1, 1));
        let mut cursor = 0;
        let pick = RoutingPolicy::JoinShortestQueue.choose(&mut rs, 0.0, &mut cursor, None);
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn low_sees_work_not_just_counts() {
        // Replica 0 queues one LONG request, replica 1 queues two short
        // ones: JSQ picks 0, LOW picks 1... unless the short pair still
        // outweighs the long one. Make the long request 10 layers vs two
        // 1-layer shorts so the work comparison is unambiguous.
        let mut rs = replicas(2);
        rs[0].enqueue(queued(0, 10));
        rs[1].enqueue(queued(1, 1));
        rs[1].enqueue(queued(2, 1));
        let mut cursor = 0;
        assert_eq!(
            RoutingPolicy::JoinShortestQueue.choose(&mut rs, 0.0, &mut cursor, None),
            Some(0)
        );
        assert_eq!(
            RoutingPolicy::LeastOutstandingWork.choose(&mut rs, 0.0, &mut cursor, None),
            Some(1)
        );
    }

    #[test]
    fn routable_mask_excludes_up_replicas() {
        // Replica 0 is up but masked out (breaker open): every policy
        // must skip it; an all-false mask routes nowhere even though the
        // fleet is up.
        let mut rs = replicas(2);
        for p in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::LeastOutstandingWork,
        ] {
            let mut cursor = 0;
            assert_eq!(
                p.choose(&mut rs, 0.0, &mut cursor, Some(&[false, true])),
                Some(1),
                "{p:?} must skip the masked replica"
            );
            assert_eq!(
                p.choose(&mut rs, 0.0, &mut cursor, Some(&[false, false])),
                None,
                "{p:?} must route nowhere under an all-false mask"
            );
        }
    }

    #[test]
    fn ties_break_to_lowest_index() {
        let mut rs = replicas(4);
        let mut cursor = 0;
        assert_eq!(
            RoutingPolicy::JoinShortestQueue.choose(&mut rs, 0.0, &mut cursor, None),
            Some(0)
        );
        assert_eq!(
            RoutingPolicy::LeastOutstandingWork.choose(&mut rs, 0.0, &mut cursor, None),
            Some(0)
        );
    }
}
