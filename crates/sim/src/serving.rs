//! Request-level serving vocabulary shared by the serving runtime and
//! the workload generators.
//!
//! An inference service receives requests over time; each request runs a
//! whole model's attention on the unit pool. This module holds the
//! request type ([`ServingRequest`]), a seeded Poisson arrival trace
//! ([`poisson_trace`]) and the latency statistics every serving report
//! is built from ([`ServingMetrics`], [`latency_percentile`]). There is
//! one serving model, the `cta-serve` fleet runtime; its single-replica
//! FIFO configuration (`FleetConfig::single_fifo`) is the classic
//! one-request-at-a-time queue over [`CtaSystem`](crate::CtaSystem).

use crate::AttentionTask;

/// One inference request: an arrival time plus the per-layer head tasks
/// of its model.
#[derive(Debug, Clone)]
pub struct ServingRequest {
    /// Arrival time, seconds from trace start.
    pub arrival_s: f64,
    /// Per-layer head tasks (layer-major, as `CtaSystem::run_layers`
    /// takes them).
    pub layer_tasks: Vec<Vec<AttentionTask>>,
}

impl ServingRequest {
    /// A request whose every layer runs `heads` copies of one head task.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`, `heads == 0`, or `arrival_s < 0`.
    pub fn uniform(arrival_s: f64, task: AttentionTask, layers: usize, heads: usize) -> Self {
        assert!(layers > 0 && heads > 0, "layers and heads must be positive");
        assert!(arrival_s >= 0.0, "arrival time must be non-negative");
        Self { arrival_s, layer_tasks: vec![vec![task; heads]; layers] }
    }
}

/// Exact percentile over an ascending-sorted latency sample.
///
/// The quantile method is **nearest-rank on the `(n − 1)·p` index scale
/// with round-half-away-from-zero** (the continuous index `(n − 1)·p` is
/// rounded to the closest integer sample position; `.5` rounds up). Every
/// returned value is therefore an observed sample — there is no
/// interpolation. Consequences worth knowing at small `n`:
///
/// * `n = 1`: every percentile is the single sample;
/// * `n = 2`: `p50` lands on index `round(0.5) = 1`, i.e. the **upper**
///   sample (not the mid-point average), and `p95`/`p99` also return the
///   upper sample;
/// * `n = 3`: `p50` is the middle sample, `p95`/`p99` the maximum.
///
/// Every reported percentile in the workspace is computed through this
/// one function.
///
/// # Panics
///
/// Panics if `sorted` is empty, not ascending, or `p` is outside `[0, 1]`.
pub fn latency_percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&p), "percentile rank must be in [0, 1]");
    assert!(
        sorted.iter().all(|x| x.is_finite()),
        "percentile input must be finite (NaN/inf latencies indicate corrupted completions)"
    );
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "percentile input must be sorted ascending");
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Latency/throughput statistics of a served trace.
///
/// Percentiles are computed by [`latency_percentile`]; see its
/// documentation for the exact (nearest-rank) quantile method and its
/// small-sample behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingMetrics {
    /// Requests completed.
    pub completed: usize,
    /// Completions per second over the busy interval.
    pub throughput_rps: f64,
    /// Mean end-to-end latency (queueing + service), seconds.
    pub mean_latency_s: f64,
    /// Median latency.
    pub p50_s: f64,
    /// 95th-percentile latency.
    pub p95_s: f64,
    /// 99th-percentile latency.
    pub p99_s: f64,
    /// Fraction of the trace during which the pool was busy.
    pub busy_fraction: f64,
}

impl ServingMetrics {
    /// Builds the statistics from raw completion latencies: `span_s` is
    /// the wall-clock extent of the trace (start of first arrival to last
    /// completion) and `busy_s` the time the pool spent serving. The
    /// `cta-serve` runtime reports through this constructor.
    ///
    /// # Panics
    ///
    /// Panics if `latencies` is empty or contains a non-finite or negative
    /// value, or if `span_s <= 0`.
    pub fn from_latencies(latencies: &[f64], span_s: f64, busy_s: f64) -> Self {
        assert!(!latencies.is_empty(), "at least one completion");
        assert!(
            latencies.iter().all(|x| x.is_finite() && *x >= 0.0),
            "latencies must be finite and non-negative"
        );
        assert!(span_s > 0.0, "span must be positive");
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        ServingMetrics {
            completed: sorted.len(),
            throughput_rps: sorted.len() as f64 / span_s,
            mean_latency_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_s: latency_percentile(&sorted, 0.50),
            p95_s: latency_percentile(&sorted, 0.95),
            p99_s: latency_percentile(&sorted, 0.99),
            busy_fraction: busy_s / span_s,
        }
    }
}

/// Generates a seeded Poisson-like arrival trace of `count` identical
/// requests at `rate_rps` mean arrivals/second (exponential inter-arrival
/// times via inverse transform).
///
/// # Panics
///
/// Panics if `count == 0` or `rate_rps <= 0`.
pub fn poisson_trace(
    count: usize,
    rate_rps: f64,
    task: AttentionTask,
    layers: usize,
    heads: usize,
    seed: u64,
) -> Vec<ServingRequest> {
    assert!(count > 0, "at least one request");
    assert!(rate_rps > 0.0, "rate must be positive");
    let mut rng = cta_tensor::MatrixRng::new(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.uniform(1e-6, 1.0) as f64;
            t += -u.ln() / rate_rps;
            ServingRequest::uniform(t, task, layers, heads)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> AttentionTask {
        AttentionTask::from_counts(512, 512, 64, 200, 180, 40, 6)
    }

    // --- quantile method pins (small-n edge cases) -----------------------

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        let s = [3.5];
        assert_eq!(latency_percentile(&s, 0.50), 3.5);
        assert_eq!(latency_percentile(&s, 0.95), 3.5);
        assert_eq!(latency_percentile(&s, 0.99), 3.5);
        assert_eq!(latency_percentile(&s, 0.0), 3.5);
        assert_eq!(latency_percentile(&s, 1.0), 3.5);
    }

    #[test]
    fn percentile_of_two_samples_rounds_half_up_to_the_upper() {
        // Index scale (n-1)·p = 1·0.5 = 0.5 → rounds away from zero → the
        // upper sample, NOT the mid-point average. This is the documented
        // nearest-rank behaviour.
        let s = [1.0, 9.0];
        assert_eq!(latency_percentile(&s, 0.50), 9.0);
        assert_eq!(latency_percentile(&s, 0.95), 9.0);
        assert_eq!(latency_percentile(&s, 0.99), 9.0);
        assert_eq!(latency_percentile(&s, 0.49), 1.0);
        assert_eq!(latency_percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn percentile_of_three_samples_pins_middle_and_max() {
        let s = [1.0, 2.0, 10.0];
        assert_eq!(latency_percentile(&s, 0.50), 2.0); // round(1.0) = 1
        assert_eq!(latency_percentile(&s, 0.74), 2.0); // round(1.48) = 1
        assert_eq!(latency_percentile(&s, 0.75), 10.0); // round(1.5) = 2
        assert_eq!(latency_percentile(&s, 0.95), 10.0);
        assert_eq!(latency_percentile(&s, 0.99), 10.0);
    }

    #[test]
    fn metrics_from_latencies_pins_small_n() {
        let m1 = ServingMetrics::from_latencies(&[2.0], 4.0, 2.0);
        assert_eq!(m1.completed, 1);
        assert_eq!((m1.p50_s, m1.p95_s, m1.p99_s), (2.0, 2.0, 2.0));
        assert_eq!(m1.throughput_rps, 0.25);
        assert_eq!(m1.busy_fraction, 0.5);

        // Unsorted input is sorted internally; n=2 percentiles all land on
        // the upper sample per the nearest-rank method.
        let m2 = ServingMetrics::from_latencies(&[9.0, 1.0], 10.0, 10.0);
        assert_eq!((m2.p50_s, m2.p95_s, m2.p99_s), (9.0, 9.0, 9.0));
        assert_eq!(m2.mean_latency_s, 5.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_of_empty_sample_rejected() {
        let _ = latency_percentile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn percentile_of_unsorted_sample_rejected() {
        let _ = latency_percentile(&[2.0, 1.0], 0.5);
    }

    // --- ServingRequest::uniform panic-contract coverage -----------------

    #[test]
    #[should_panic(expected = "layers and heads must be positive")]
    fn uniform_rejects_zero_layers() {
        let _ = ServingRequest::uniform(0.0, task(), 0, 1);
    }

    #[test]
    #[should_panic(expected = "layers and heads must be positive")]
    fn uniform_rejects_zero_heads() {
        let _ = ServingRequest::uniform(0.0, task(), 1, 0);
    }

    #[test]
    #[should_panic(expected = "arrival time must be non-negative")]
    fn uniform_rejects_negative_arrival() {
        let _ = ServingRequest::uniform(-0.5, task(), 1, 1);
    }
}
