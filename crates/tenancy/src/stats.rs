//! Per-tenant isolation metrics and the Jain fairness index.

/// Raw per-tenant outcomes the runtime collects during a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantOutcome {
    /// Tenant id.
    pub tenant: u32,
    /// Requests this tenant offered.
    pub offered: usize,
    /// Requests shed for any reason (quota included).
    pub shed: usize,
    /// Sheds attributed to the tenant's token-bucket quota.
    pub quota_shed: usize,
    /// Completions that met their class deadline (deadline-free classes
    /// always count).
    pub good: usize,
    /// End-to-end latencies of this tenant's completions, seconds.
    pub latencies_s: Vec<f64>,
}

impl TenantOutcome {
    /// An empty outcome for `tenant`.
    pub fn new(tenant: u32) -> Self {
        Self { tenant, ..Self::default() }
    }
}

/// One tenant's aggregate row in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantBreakdown {
    /// Tenant id.
    pub tenant: u32,
    /// Requests offered.
    pub offered: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed (quota included).
    pub shed: usize,
    /// Sheds attributed to the quota.
    pub quota_shed: usize,
    /// Deadline-met completions.
    pub good: usize,
    /// Deadline-met completions per second of fleet makespan.
    pub goodput_rps: f64,
    /// Mean completion latency, seconds (0 with no completions).
    pub mean_latency_s: f64,
    /// Median completion latency, seconds (0 with no completions).
    pub p50_s: f64,
    /// p99 completion latency, seconds (0 with no completions).
    pub p99_s: f64,
    /// Isolation: this tenant's mean latency over the fleet-wide mean
    /// (1.0 = average treatment, >1 = worse than average; 0 with no
    /// completions).
    pub slowdown: f64,
}

/// Fleet-level tenancy report: per-tenant rows plus the fairness
/// headline numbers. The autoscaler counters are filled in by the
/// runtime (zero when autoscaling is off).
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyStats {
    /// Per-tenant breakdowns, in tenant-id order.
    pub tenants: Vec<TenantBreakdown>,
    /// Jain fairness index over per-tenant goodput, restricted to
    /// tenants that offered traffic. 1.0 = perfectly equal goodput.
    pub fairness_index: f64,
    /// Worst per-tenant [`TenantBreakdown::slowdown`].
    pub max_slowdown: f64,
    /// Total quota sheds across tenants.
    pub quota_shed: usize,
    /// Autoscaler scale-up decisions (runtime-filled).
    pub scale_ups: usize,
    /// Autoscaler scale-down decisions (runtime-filled).
    pub scale_downs: usize,
    /// Enabled replicas at the end of the run (runtime-filled; the
    /// fleet size when autoscaling is off).
    pub final_active: usize,
}

impl TenancyStats {
    /// Aggregates raw outcomes into the report. `makespan_s` is the
    /// fleet makespan goodput is normalized by.
    pub fn from_outcomes(outcomes: &[TenantOutcome], makespan_s: f64) -> Self {
        let span = makespan_s.max(f64::EPSILON);
        let all_latencies: Vec<f64> =
            outcomes.iter().flat_map(|o| o.latencies_s.iter().copied()).collect();
        let fleet_mean = if all_latencies.is_empty() {
            0.0
        } else {
            all_latencies.iter().sum::<f64>() / all_latencies.len() as f64
        };
        let tenants: Vec<TenantBreakdown> = outcomes
            .iter()
            .map(|o| {
                let completed = o.latencies_s.len();
                let mean = if completed == 0 {
                    0.0
                } else {
                    o.latencies_s.iter().sum::<f64>() / completed as f64
                };
                let mut sorted = o.latencies_s.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
                TenantBreakdown {
                    tenant: o.tenant,
                    offered: o.offered,
                    completed,
                    shed: o.shed,
                    quota_shed: o.quota_shed,
                    good: o.good,
                    goodput_rps: o.good as f64 / span,
                    mean_latency_s: mean,
                    p50_s: percentile(&sorted, 0.50),
                    p99_s: percentile(&sorted, 0.99),
                    slowdown: if completed == 0 || fleet_mean <= 0.0 {
                        0.0
                    } else {
                        mean / fleet_mean
                    },
                }
            })
            .collect();
        let goodputs: Vec<f64> =
            tenants.iter().filter(|t| t.offered > 0).map(|t| t.goodput_rps).collect();
        Self {
            fairness_index: jain_index(&goodputs),
            max_slowdown: tenants.iter().map(|t| t.slowdown).fold(0.0, f64::max),
            quota_shed: tenants.iter().map(|t| t.quota_shed).sum(),
            tenants,
            scale_ups: 0,
            scale_downs: 0,
            final_active: 0,
        }
    }
}

/// Jain's fairness index `(Σx)² / (n · Σx²)` — 1.0 when all shares are
/// equal, → 1/n when one share dominates. Empty or all-zero input is
/// defined as perfectly fair (1.0).
pub fn jain_index(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        1.0
    } else {
        sum * sum / (xs.len() as f64 * sum_sq)
    }
}

/// Nearest-rank percentile over a sorted slice, round-half-away-from-
/// zero — the same convention `cta_sim::latency_percentile` uses (this
/// crate has no dependencies; `crates/serve/tests/tenancy.rs` pins the
/// two together), so per-tenant and fleet-level percentiles agree in
/// method. Returns 0 for an empty slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_brackets() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_index(&[3.0, 3.0, 3.0]), 1.0);
        // One dominant share of n: index -> 1/n.
        let one_hot = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((one_hot - 0.25).abs() < 1e-12, "{one_hot}");
        // Monotone: more skew, lower index.
        assert!(jain_index(&[4.0, 1.0]) < jain_index(&[2.0, 1.0]));
    }

    #[test]
    fn breakdown_aggregates_goodput_and_percentiles() {
        let mut a = TenantOutcome::new(0);
        a.offered = 4;
        a.good = 2;
        a.latencies_s = vec![1.0, 3.0, 2.0];
        a.shed = 1;
        let mut b = TenantOutcome::new(1);
        b.offered = 2;
        b.good = 2;
        b.latencies_s = vec![2.0, 2.0];
        let stats = TenancyStats::from_outcomes(&[a, b], 10.0);
        assert_eq!(stats.tenants.len(), 2);
        let t0 = &stats.tenants[0];
        assert_eq!((t0.offered, t0.completed, t0.shed, t0.good), (4, 3, 1, 2));
        assert_eq!(t0.goodput_rps, 0.2);
        assert_eq!(t0.mean_latency_s, 2.0);
        assert_eq!(t0.p50_s, 2.0);
        assert_eq!(t0.p99_s, 3.0);
        // Equal goodput (0.2 each) => perfectly fair.
        assert_eq!(stats.fairness_index, 1.0);
        // Fleet mean latency 2.0; both tenants mean 2.0 => slowdown 1.0.
        assert_eq!(t0.slowdown, 1.0);
        assert_eq!(stats.max_slowdown, 1.0);
    }

    #[test]
    fn tenants_without_traffic_do_not_dilute_fairness() {
        let mut a = TenantOutcome::new(0);
        a.offered = 2;
        a.good = 2;
        a.latencies_s = vec![1.0, 1.0];
        let idle = TenantOutcome::new(1);
        let stats = TenancyStats::from_outcomes(&[a, idle], 2.0);
        // The idle tenant offered nothing; fairness is over tenant 0
        // alone and stays 1.0 instead of collapsing toward 1/2.
        assert_eq!(stats.fairness_index, 1.0);
    }

    #[test]
    fn quota_sheds_roll_up() {
        let mut a = TenantOutcome::new(0);
        a.offered = 5;
        a.shed = 5;
        a.quota_shed = 3;
        let stats = TenancyStats::from_outcomes(&[a], 1.0);
        assert_eq!(stats.quota_shed, 3);
        assert_eq!(stats.tenants[0].quota_shed, 3);
        // No completions anywhere: slowdown well-defined at 0.
        assert_eq!(stats.max_slowdown, 0.0);
    }
}
