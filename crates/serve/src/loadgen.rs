//! Open-loop load generators.
//!
//! All generators are seeded and deterministic: the same arguments always
//! produce the same trace, which is what makes fleet sweeps reproducible
//! and lets the property tests assert bitwise-identical reports. Three
//! arrival processes cover the evaluation's needs:
//!
//! * [`poisson_requests`] — memoryless arrivals at a constant rate, the
//!   standard open-loop model;
//! * [`mmpp_requests`] — a two-state Markov-modulated Poisson process
//!   (calm/burst), the classic bursty-traffic model that stresses
//!   admission control far harder than a Poisson stream of equal mean
//!   rate;
//! * [`replay_trace`] — adopts a pre-generated `cta-sim` /
//!   `cta-workloads` arrival trace under a service class;
//! * [`session_requests`] — adopts a `cta-workloads` multi-turn session
//!   trace ([`cta_workloads::session_trace`]) as session-tagged decode
//!   requests.

use cta_sim::{AttentionTask, ServingRequest};
use cta_workloads::{session_trace, SessionSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{QosClass, ServeRequest, SessionTurn};

/// The request shape every generated arrival carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// Service class of every generated request.
    pub class: QosClass,
    /// Head task replicated across the model.
    pub task: AttentionTask,
    /// Layers per request.
    pub layers: usize,
    /// Heads per layer.
    pub heads: usize,
}

impl LoadSpec {
    /// A spec with the standard class.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0` or `heads == 0`.
    pub fn standard(task: AttentionTask, layers: usize, heads: usize) -> Self {
        assert!(layers > 0 && heads > 0, "layers and heads must be positive");
        Self { class: QosClass::standard(), task, layers, heads }
    }
}

/// Parameters of the two-state MMPP burst process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmppParams {
    /// Arrival rate in the calm state, requests/second.
    pub calm_rate_rps: f64,
    /// Arrival rate in the burst state, requests/second.
    pub burst_rate_rps: f64,
    /// Probability of switching state after each arrival (geometric
    /// phase lengths with mean `1 / switch_prob` arrivals).
    pub switch_prob: f64,
}

impl MmppParams {
    /// Validated constructor.
    ///
    /// # Panics
    ///
    /// Panics if either rate is non-positive or `switch_prob` is outside
    /// `(0, 1]`.
    pub fn new(calm_rate_rps: f64, burst_rate_rps: f64, switch_prob: f64) -> Self {
        assert!(calm_rate_rps > 0.0 && burst_rate_rps > 0.0, "rates must be positive");
        assert!(switch_prob > 0.0 && switch_prob <= 1.0, "switch probability must be in (0, 1]");
        Self { calm_rate_rps, burst_rate_rps, switch_prob }
    }
}

/// One exponential inter-arrival sample at `rate` via inverse transform;
/// the uniform is clamped away from 0 so `ln` stays finite.
fn exp_sample(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -u.ln() / rate
}

/// A Poisson arrival trace: `count` requests of identical shape with
/// exponential inter-arrival times at `rate_rps`. Ids are `0..count` in
/// arrival order.
///
/// # Panics
///
/// Panics if `count == 0` or `rate_rps <= 0`.
pub fn poisson_requests(
    spec: &LoadSpec,
    count: usize,
    rate_rps: f64,
    seed: u64,
) -> Vec<ServeRequest> {
    assert!(count > 0, "at least one request");
    assert!(rate_rps > 0.0, "rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..count as u64)
        .map(|id| {
            t += exp_sample(&mut rng, rate_rps);
            ServeRequest::uniform(id, t, spec.class, spec.task, spec.layers, spec.heads)
        })
        .collect()
}

/// A bursty arrival trace from a two-state MMPP: arrivals are exponential
/// at the current state's rate, and the chain flips state with probability
/// [`MmppParams::switch_prob`] after each arrival. The trace starts in the
/// calm state. Ids are `0..count` in arrival order.
///
/// # Panics
///
/// Panics if `count == 0`.
pub fn mmpp_requests(
    spec: &LoadSpec,
    count: usize,
    params: MmppParams,
    seed: u64,
) -> Vec<ServeRequest> {
    assert!(count > 0, "at least one request");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut bursting = false;
    (0..count as u64)
        .map(|id| {
            let rate = if bursting { params.burst_rate_rps } else { params.calm_rate_rps };
            t += exp_sample(&mut rng, rate);
            if rng.gen_range(0.0f64..1.0) < params.switch_prob {
                bursting = !bursting;
            }
            ServeRequest::uniform(id, t, spec.class, spec.task, spec.layers, spec.heads)
        })
        .collect()
}

/// Why a replayed arrival trace was rejected.
///
/// The fleet runtime assumes arrival times are finite, non-negative and
/// sorted; a trace violating any of these used to slip through silently
/// (a NaN timestamp, say, defeats every `<=` event-ordering comparison)
/// and could wedge or crash the event loop far from the bad input. Every
/// request also needs at least one layer, each with at least one head
/// task. The replay constructor rejects a trace that breaks any of these
/// up front, with the index of the first offending entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceError {
    /// The trace has no requests.
    Empty,
    /// `arrival_s` at this index is NaN or infinite.
    NonFinite {
        /// Index of the offending request in the trace.
        index: usize,
    },
    /// `arrival_s` at this index is negative.
    Negative {
        /// Index of the offending request in the trace.
        index: usize,
    },
    /// `arrival_s` at this index is earlier than its predecessor's.
    NonMonotonic {
        /// Index of the offending request in the trace.
        index: usize,
    },
    /// The request at this index has no layers.
    NoLayers {
        /// Index of the offending request in the trace.
        index: usize,
    },
    /// Layer `layer` of the request at this index has no head tasks.
    EmptyLayer {
        /// Index of the offending request in the trace.
        index: usize,
        /// The first empty layer of that request.
        layer: usize,
    },
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "arrival trace is empty"),
            TraceError::NonFinite { index } => {
                write!(f, "arrival time at trace index {index} is not finite")
            }
            TraceError::Negative { index } => {
                write!(f, "arrival time at trace index {index} is negative")
            }
            TraceError::NonMonotonic { index } => {
                write!(f, "arrival time at trace index {index} precedes its predecessor")
            }
            TraceError::NoLayers { index } => {
                write!(f, "request at trace index {index} has no layers")
            }
            TraceError::EmptyLayer { index, layer } => {
                write!(f, "layer {layer} of the request at trace index {index} has no head tasks")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Adopts a `cta-sim` arrival trace (e.g. from
/// [`cta_sim::poisson_trace`] or `cta_workloads::case_arrival_trace`)
/// under one service class, assigning ids in trace order.
///
/// # Equal timestamps
///
/// Coincident arrivals are legal (the monotonicity check is `<`, not
/// `<=`): real traces batch and so do replays. Their tie-break is the
/// assigned id — trace order: the fleet driver orders coincident arrival
/// events by request id ([`cta_events::EventKey`]'s `tie` field), as the
/// step-granular reference scan (`crate::reference`) admits in index
/// order at a due instant. The `engine` integration tests pin that a
/// burst of equal-timestamp arrivals produces bitwise-identical reports
/// on both.
///
/// # Errors
///
/// Returns a [`TraceError`] naming the first offending index when the
/// trace is empty, its arrival times are NaN/infinite, negative, or
/// non-monotonic, or a request has no layers or a layer without head
/// tasks — instead of handing the fleet runtime (or
/// [`ServeRequest::new`]'s shape asserts) a trace it would livelock or
/// panic on.
pub fn replay_trace(
    trace: &[ServingRequest],
    class: QosClass,
) -> Result<Vec<ServeRequest>, TraceError> {
    if trace.is_empty() {
        return Err(TraceError::Empty);
    }
    let mut prev = 0.0f64;
    for (index, r) in trace.iter().enumerate() {
        if !r.arrival_s.is_finite() {
            return Err(TraceError::NonFinite { index });
        }
        if r.arrival_s < 0.0 {
            return Err(TraceError::Negative { index });
        }
        if r.arrival_s < prev {
            return Err(TraceError::NonMonotonic { index });
        }
        if r.layer_tasks.is_empty() {
            return Err(TraceError::NoLayers { index });
        }
        if let Some(layer) = r.layer_tasks.iter().position(Vec::is_empty) {
            return Err(TraceError::EmptyLayer { index, layer });
        }
        prev = r.arrival_s;
    }
    Ok(trace
        .iter()
        .enumerate()
        .map(|(id, r)| ServeRequest::from_serving(id as u64, class, r))
        .collect())
}

/// A multi-turn decode-session workload as fleet requests: every turn of
/// [`cta_workloads::session_trace`] becomes a session-tagged request of
/// `spec`'s shape and class, with its expected level-2 re-cluster count
/// derived from the streaming compressor's drift trigger
/// ([`cta_sim::reclusters_for`] at `drift_per_token` /
/// `recluster_threshold`). Ids follow the trace's sorted turn order, so
/// the result satisfies the runtime's arrival-sorted precondition.
///
/// # Panics
///
/// Panics if `drift_per_token < 0` or `recluster_threshold <= 0`.
pub fn session_requests(
    spec: &LoadSpec,
    sessions: &SessionSpec,
    drift_per_token: f64,
    recluster_threshold: f64,
    seed: u64,
) -> Vec<ServeRequest> {
    session_trace(sessions, seed)
        .iter()
        .enumerate()
        .map(|(id, e)| {
            let reclusters = cta_sim::reclusters_for(
                e.decode_tokens as u64,
                drift_per_token,
                recluster_threshold,
            ) as u32;
            ServeRequest::uniform(
                id as u64,
                e.arrival_s,
                spec.class,
                spec.task,
                spec.layers,
                spec.heads,
            )
            .with_session(SessionTurn {
                session: e.session,
                turn: e.turn,
                decode_tokens: e.decode_tokens,
                reclusters,
                last: e.last,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_sim::poisson_trace;
    use proptest::prelude::*;

    fn spec() -> LoadSpec {
        LoadSpec::standard(AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6), 2, 4)
    }

    fn sorted(rs: &[ServeRequest]) -> bool {
        rs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s)
    }

    #[test]
    fn poisson_is_sorted_deterministic_and_rate_scaled() {
        let a = poisson_requests(&spec(), 200, 100.0, 42);
        let b = poisson_requests(&spec(), 200, 100.0, 42);
        assert_eq!(a, b);
        assert!(sorted(&a));
        assert_eq!(a.len(), 200);
        assert_eq!(a.last().expect("nonempty").id, 199);
        // Mean inter-arrival should be near 1/rate (loose 3-sigma bound).
        let span = a.last().expect("nonempty").arrival_s;
        assert!((1.0..4.0).contains(&span), "200 arrivals at 100 rps span {span}");
        let c = poisson_requests(&spec(), 200, 100.0, 43);
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn mmpp_bursts_tighten_interarrivals() {
        let params = MmppParams::new(10.0, 10_000.0, 0.05);
        let rs = mmpp_requests(&spec(), 400, params, 7);
        assert!(sorted(&rs));
        let gaps: Vec<f64> = rs.windows(2).map(|w| w[1].arrival_s - w[0].arrival_s).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let min = gaps.iter().copied().fold(f64::INFINITY, f64::min);
        // Burst phases produce gaps far below the mean: a plain Poisson
        // stream at the mean rate essentially never shows a 100x spread.
        assert!(min < mean / 100.0, "min gap {min} vs mean {mean}");
        assert_eq!(rs, mmpp_requests(&spec(), 400, params, 7));
    }

    #[test]
    fn replay_preserves_arrivals_and_assigns_ids() {
        let s = spec();
        let trace = poisson_trace(20, 50.0, s.task, s.layers, s.heads, 3);
        let rs = replay_trace(&trace, QosClass::batch()).expect("valid trace");
        assert_eq!(rs.len(), 20);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.arrival_s, trace[i].arrival_s);
            assert_eq!(r.layer_tasks, trace[i].layer_tasks);
            assert_eq!(r.class, QosClass::batch());
        }
    }

    #[test]
    fn replay_rejects_malformed_traces_with_typed_errors() {
        let s = spec();
        let mut trace = poisson_trace(5, 50.0, s.task, s.layers, s.heads, 3);
        assert_eq!(replay_trace(&[], QosClass::batch()), Err(TraceError::Empty));

        let good = trace[2].arrival_s;
        trace[2].arrival_s = f64::NAN;
        assert_eq!(
            replay_trace(&trace, QosClass::batch()),
            Err(TraceError::NonFinite { index: 2 })
        );
        trace[2].arrival_s = f64::INFINITY;
        assert_eq!(
            replay_trace(&trace, QosClass::batch()),
            Err(TraceError::NonFinite { index: 2 })
        );
        trace[2].arrival_s = good;

        trace[0].arrival_s = -1.0;
        assert_eq!(replay_trace(&trace, QosClass::batch()), Err(TraceError::Negative { index: 0 }));
        trace[0].arrival_s = 0.0;

        trace[3].arrival_s = trace[2].arrival_s / 2.0;
        assert_eq!(
            replay_trace(&trace, QosClass::batch()),
            Err(TraceError::NonMonotonic { index: 3 })
        );
        trace[3].arrival_s = trace[2].arrival_s;
        // An out-of-order pair: arrivals at 1 s, then 0 s.
        let pair = [1.0, 0.0].map(|t| ServingRequest::uniform(t, s.task, 1, 1));
        assert_eq!(
            replay_trace(&pair, QosClass::batch()),
            Err(TraceError::NonMonotonic { index: 1 })
        );

        trace[1].layer_tasks.clear();
        assert_eq!(replay_trace(&trace, QosClass::batch()), Err(TraceError::NoLayers { index: 1 }));
        trace[1].layer_tasks = trace[0].layer_tasks.clone();
        trace[4].layer_tasks[1].clear();
        assert_eq!(
            replay_trace(&trace, QosClass::batch()),
            Err(TraceError::EmptyLayer { index: 4, layer: 1 })
        );
        // Each error renders a human-readable message naming the index.
        assert!(TraceError::NonMonotonic { index: 3 }.to_string().contains("index 3"));
        assert!(TraceError::EmptyLayer { index: 4, layer: 1 }.to_string().contains("index 4"));
    }

    proptest! {
        /// Malformed traces — any mix of arrival times (NaN, +∞,
        /// negative, unsorted) and layer shapes (no layers, empty
        /// layers), drawn per entry from `seed` — come back as `Err`,
        /// never as a panic; a trace is accepted exactly when every entry
        /// is well-formed.
        #[test]
        fn replay_of_malformed_traces_returns_err_and_never_panics(
            len in 0usize..12,
            seed in 0u64..1_000_000,
        ) {
            const ARRIVALS: [f64; 6] = [0.5, 2.0, -1.0, f64::NAN, f64::INFINITY, 1.0];
            let mut state = seed;
            let mut draw = |n: u64| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_041);
                ((state >> 33) % n) as usize
            };
            let task = spec().task;
            let trace: Vec<ServingRequest> = (0..len)
                .map(|_| {
                    let arrival_s = ARRIVALS[draw(ARRIVALS.len() as u64)];
                    let layers = draw(4);
                    let layer_tasks = (0..layers).map(|_| vec![task; draw(3)]).collect();
                    ServingRequest { arrival_s, layer_tasks }
                })
                .collect();
            let timed = trace.iter().all(|r| r.arrival_s.is_finite() && r.arrival_s >= 0.0)
                && trace.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s);
            let shaped = trace
                .iter()
                .all(|r| !r.layer_tasks.is_empty() && r.layer_tasks.iter().all(|l| !l.is_empty()));
            let result = replay_trace(&trace, QosClass::standard());
            prop_assert_eq!(result.is_ok(), !trace.is_empty() && timed && shaped);
        }
    }

    #[test]
    fn session_requests_tag_turns_and_stay_sorted() {
        let s = spec();
        let sess = SessionSpec::new(10, 5.0, 3.0, 1.0);
        let rs = session_requests(&s, &sess, 0.02, 0.5, 9);
        assert_eq!(rs, session_requests(&s, &sess, 0.02, 0.5, 9));
        assert!(sorted(&rs));
        assert!(rs.iter().enumerate().all(|(i, r)| r.id == i as u64));
        // Re-cluster counts follow the drift trigger: one event per
        // ceil(threshold / drift) = 25 decoded tokens.
        for r in &rs {
            let t = r.session.expect("every request is session-tagged");
            assert_eq!(t.reclusters as u64, t.decode_tokens as u64 / 25);
        }
        // Exactly one final turn per session.
        let finals = rs.iter().filter(|r| r.session.expect("tagged").last).count();
        assert_eq!(finals, 10);
    }

    #[test]
    #[should_panic(expected = "rates must be positive")]
    fn mmpp_rejects_zero_rate() {
        let _ = MmppParams::new(0.0, 1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "switch probability")]
    fn mmpp_rejects_bad_switch_prob() {
        let _ = MmppParams::new(1.0, 2.0, 0.0);
    }
}
