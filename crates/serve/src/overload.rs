//! Closed-loop overload control: brownout ladder, circuit breakers and
//! hedging policy.
//!
//! Three independent mechanisms, all off by default
//! ([`OverloadControl::off`] keeps the runtime bitwise identical to the
//! plain fleet — pinned by test):
//!
//! * **Quality brownout** — a deterministic controller per replica samples
//!   queue depth (availability-weighted) and deadline-miss rate over
//!   sliding windows and walks an ordered [`BrownoutLadder`] of operating
//!   points. Each rung scales the CTA cluster budgets `k₀,k₁,k₂` down
//!   (the paper's §VI-B accuracy/compute dial, calibrated by
//!   `cta_workloads::calibrate_brownout_ladder`), trading a pre-measured
//!   accuracy loss for shorter layer steps. Escalation thresholds grow
//!   with the level and recovery thresholds sit strictly below them, so
//!   the controller is monotone in sustained load and cannot flap on load
//!   oscillating inside the hysteresis band (proptest-pinned).
//! * **Circuit breaker** — per replica, layered on the PR 3 health model:
//!   `failure_threshold` consecutive crashes open the breaker; after
//!   `cooldown_s` it half-opens and admits a single probe request; a
//!   completion closes it, another crash re-opens it. Open or probing
//!   replicas take no routed traffic even while nominally up.
//! * **Hedged dispatch** — deadline-bearing requests that have not
//!   completed after a p99-derived delay (sliding window over recent
//!   completion latencies) are duplicated to a second healthy replica;
//!   first completion wins and the loser is cancelled at its next layer
//!   boundary, with every copy accounted in [`OverloadStats`].

use crate::ensure;

/// Hard cap on ladder length: level names must be `&'static str` for the
/// allocation-free trace ring, so they come from a fixed table.
pub const MAX_BROWNOUT_LEVELS: usize = 8;

/// Static level names (index = ladder level).
pub(crate) const LEVEL_NAMES: [&str; MAX_BROWNOUT_LEVELS] = [
    "baseline",
    "brownout-1",
    "brownout-2",
    "brownout-3",
    "brownout-4",
    "brownout-5",
    "brownout-6",
    "brownout-7",
];

/// One operating point of the brownout ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutLevel {
    /// Cluster-budget scale in `(0, 1]` applied through
    /// `AttentionTask::with_budget_scale`; 1.0 is the undegraded baseline.
    pub budget_scale: f64,
    /// Pre-measured proxy accuracy loss at this point, percent.
    pub accuracy_loss_pct: f64,
}

/// An ordered ladder of operating points, baseline first.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutLadder {
    levels: Vec<BrownoutLevel>,
}

impl BrownoutLadder {
    /// Builds a ladder from explicit levels.
    ///
    /// # Panics
    ///
    /// Panics if the ladder is empty or longer than
    /// [`MAX_BROWNOUT_LEVELS`], if level 0 is not the exact baseline
    /// (`budget_scale == 1.0`, zero loss), if budget scales are not
    /// strictly descending, or if accuracy losses decrease along the
    /// ladder.
    pub fn new(levels: Vec<BrownoutLevel>) -> Self {
        assert!(!levels.is_empty(), "ladder needs at least the baseline level");
        assert!(levels.len() <= MAX_BROWNOUT_LEVELS, "ladder capped at {MAX_BROWNOUT_LEVELS}");
        assert!(
            levels[0].budget_scale == 1.0 && levels[0].accuracy_loss_pct == 0.0,
            "level 0 must be the exact baseline"
        );
        for l in &levels {
            assert!(
                l.budget_scale > 0.0 && l.budget_scale <= 1.0,
                "budget scale {} ∉ (0, 1]",
                l.budget_scale
            );
            assert!(l.accuracy_loss_pct >= 0.0, "negative accuracy loss");
        }
        assert!(
            levels.windows(2).all(|w| w[1].budget_scale < w[0].budget_scale),
            "budget scales must strictly descend along the ladder"
        );
        assert!(
            levels.windows(2).all(|w| w[1].accuracy_loss_pct >= w[0].accuracy_loss_pct),
            "accuracy loss must not decrease along the ladder"
        );
        Self { levels }
    }

    /// The default ladder, calibrated with
    /// `cta_workloads::calibrate_brownout_ladder` on the BERT-large/SQuAD
    /// paper cases (LSH width factors 1.6 / 2.6–4.2 / 6.8 over the
    /// width-2.0 baseline).
    pub fn standard() -> Self {
        Self::new(vec![
            BrownoutLevel { budget_scale: 1.0, accuracy_loss_pct: 0.0 },
            BrownoutLevel { budget_scale: 0.9, accuracy_loss_pct: 0.4 },
            BrownoutLevel { budget_scale: 0.75, accuracy_loss_pct: 0.7 },
            BrownoutLevel { budget_scale: 0.6, accuracy_loss_pct: 1.8 },
        ])
    }

    /// Builds a ladder from `(budget_scale, accuracy_loss_pct)` pairs as
    /// produced by `cta_workloads::BrownoutCalibration::ladder_points`.
    /// The first point is normalised to the exact baseline.
    ///
    /// # Panics
    ///
    /// Same validity rules as [`new`](Self::new).
    pub fn from_points(points: &[(f64, f64)]) -> Self {
        let levels = points
            .iter()
            .enumerate()
            .map(|(i, &(scale, loss))| {
                if i == 0 {
                    BrownoutLevel { budget_scale: 1.0, accuracy_loss_pct: 0.0 }
                } else {
                    BrownoutLevel { budget_scale: scale, accuracy_loss_pct: loss }
                }
            })
            .collect();
        Self::new(levels)
    }

    /// Number of levels (baseline included).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the ladder is baseline-only (always false: `new` requires
    /// the baseline; a one-rung ladder just never degrades).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The operating point at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level(&self, level: usize) -> BrownoutLevel {
        self.levels[level]
    }

    /// The static display name of `level`.
    pub fn level_name(&self, level: usize) -> &'static str {
        LEVEL_NAMES[level]
    }

    /// Highest level index.
    pub fn max_level(&self) -> usize {
        self.levels.len() - 1
    }
}

/// Thresholds and windows of the [`BrownoutController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerPolicy {
    /// Sliding-window length of (availability-weighted) queue-depth
    /// samples.
    pub depth_window: usize,
    /// Sliding-window length of completion deadline outcomes.
    pub miss_window: usize,
    /// Base escalation threshold: moving from level `L` to `L + 1`
    /// requires a mean windowed depth of at least `depth_up × (L + 1)`, so
    /// deeper degradation demands proportionally heavier sustained load
    /// (this is what makes the settled level monotone in offered load).
    pub depth_up: f64,
    /// Base recovery threshold: dropping from level `L` to `L - 1`
    /// requires a mean depth of at most `depth_down × L`. Must sit
    /// strictly below `depth_up` — the gap is the hysteresis band.
    pub depth_down: f64,
    /// Deadline-miss rate at or above which the controller escalates
    /// regardless of depth.
    pub miss_up: f64,
    /// Miss rate at or below which recovery is allowed.
    pub miss_down: f64,
    /// Minimum observations between transitions (flap damping).
    pub dwell: usize,
}

impl ControllerPolicy {
    /// Production defaults: escalate on a sustained mean depth of 4 per
    /// level or a 30% windowed miss rate; recover below a mean depth of 1
    /// per level and a 5% miss rate; at least 4 observations between
    /// moves.
    pub fn standard() -> Self {
        Self {
            depth_window: 8,
            miss_window: 16,
            depth_up: 4.0,
            depth_down: 1.0,
            miss_up: 0.3,
            miss_down: 0.05,
            dwell: 4,
        }
    }

    fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// The controller's structural rules; the first violated one.
    pub(crate) fn try_validate(&self) -> Result<(), &'static str> {
        ensure(self.depth_window > 0 && self.miss_window > 0, "windows must be positive")?;
        ensure(self.dwell > 0, "dwell must be positive")?;
        ensure(self.depth_down < self.depth_up, "hysteresis requires depth_down < depth_up")?;
        ensure(self.miss_down < self.miss_up, "hysteresis requires miss_down < miss_up")?;
        ensure(self.depth_up > 0.0 && self.depth_down >= 0.0, "depth thresholds must be ≥ 0")?;
        Ok(())
    }
}

/// A level change decided by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Level before the change.
    pub from: usize,
    /// Level after the change.
    pub to: usize,
}

/// The per-replica closed-loop controller: pure state machine over
/// observation streams, no clocks, no allocation after construction —
/// trivially deterministic and testable in isolation.
#[derive(Debug, Clone)]
pub struct BrownoutController {
    policy: ControllerPolicy,
    max_level: usize,
    level: usize,
    depths: Vec<f64>,
    depth_next: usize,
    depth_filled: usize,
    misses: Vec<bool>,
    miss_next: usize,
    miss_filled: usize,
    since_change: usize,
}

impl BrownoutController {
    /// A controller at the baseline level.
    ///
    /// # Panics
    ///
    /// Panics if the policy is inconsistent (see [`ControllerPolicy`]).
    pub fn new(policy: ControllerPolicy, max_level: usize) -> Self {
        policy.validate();
        Self {
            policy,
            max_level,
            level: 0,
            depths: vec![0.0; policy.depth_window],
            depth_next: 0,
            depth_filled: 0,
            misses: vec![false; policy.miss_window],
            miss_next: 0,
            miss_filled: 0,
            since_change: policy.dwell, // free to move on the first signal
        }
    }

    /// Current ladder level.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Feeds one queue-depth sample (weighted by fleet availability at the
    /// caller's discretion) and returns a transition if one fires.
    pub fn observe_depth(&mut self, depth: f64) -> Option<Transition> {
        assert!(depth.is_finite() && depth >= 0.0, "depth sample must be finite and ≥ 0");
        self.depths[self.depth_next] = depth;
        self.depth_next = (self.depth_next + 1) % self.depths.len();
        self.depth_filled = (self.depth_filled + 1).min(self.depths.len());
        self.since_change = self.since_change.saturating_add(1);
        self.decide()
    }

    /// Feeds one completion outcome (`missed` = deadline missed) and
    /// returns a transition if one fires.
    pub fn observe_completion(&mut self, missed: bool) -> Option<Transition> {
        self.misses[self.miss_next] = missed;
        self.miss_next = (self.miss_next + 1) % self.misses.len();
        self.miss_filled = (self.miss_filled + 1).min(self.misses.len());
        self.since_change = self.since_change.saturating_add(1);
        self.decide()
    }

    fn mean_depth(&self) -> Option<f64> {
        if self.depth_filled < self.depths.len() {
            return None; // escalation needs a full window of evidence
        }
        Some(self.depths.iter().sum::<f64>() / self.depths.len() as f64)
    }

    fn miss_rate(&self) -> Option<f64> {
        if self.miss_filled < self.misses.len() {
            return None;
        }
        Some(self.misses.iter().filter(|&&m| m).count() as f64 / self.misses.len() as f64)
    }

    fn decide(&mut self) -> Option<Transition> {
        if self.since_change < self.policy.dwell {
            return None;
        }
        let depth = self.mean_depth();
        let miss = self.miss_rate();
        let up_th = self.policy.depth_up * (self.level + 1) as f64;
        let down_th = self.policy.depth_down * self.level as f64;

        let depth_high = depth.is_some_and(|d| d >= up_th);
        let miss_high = miss.is_some_and(|m| m >= self.policy.miss_up);
        if self.level < self.max_level && (depth_high || miss_high) {
            let from = self.level;
            self.level += 1;
            self.since_change = 0;
            return Some(Transition { from, to: self.level });
        }

        let depth_low = depth.is_some_and(|d| d <= down_th);
        let miss_low = miss.is_none_or(|m| m <= self.policy.miss_down);
        if self.level > 0 && depth_low && miss_low {
            let from = self.level;
            self.level -= 1;
            self.since_change = 0;
            return Some(Transition { from, to: self.level });
        }
        None
    }
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive failures (crashes without an intervening completion)
    /// that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker blocks traffic before half-opening,
    /// seconds.
    pub cooldown_s: f64,
}

impl BreakerPolicy {
    /// Defaults matched to the simulator's timescale: two consecutive
    /// crashes open the breaker for a millisecond of simulated time
    /// (several typical request services).
    pub fn standard() -> Self {
        Self { failure_threshold: 2, cooldown_s: 1e-3 }
    }

    fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// The breaker's structural rules; the first violated one.
    pub(crate) fn try_validate(&self) -> Result<(), &'static str> {
        ensure(self.failure_threshold > 0, "failure threshold must be positive")?;
        ensure(
            self.cooldown_s.is_finite() && self.cooldown_s > 0.0,
            "cooldown must be positive and finite",
        )?;
        Ok(())
    }
}

/// Breaker state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BreakerState {
    /// Traffic flows; tracks the consecutive-failure count.
    Closed {
        /// Crashes since the last completion.
        consecutive_failures: u32,
    },
    /// Traffic blocked until the cooldown elapses.
    Open {
        /// When the breaker opened, seconds.
        since_s: f64,
        /// When it may half-open, seconds.
        until_s: f64,
    },
    /// One probe request may be routed; its outcome decides.
    HalfOpen {
        /// When the breaker half-opened, seconds.
        since_s: f64,
        /// Whether the single probe slot is taken.
        probe_in_flight: bool,
    },
}

/// Per-replica circuit breaker.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    /// Total times the breaker opened.
    pub opens: usize,
}

/// A breaker state change, reported so the runtime can emit the
/// open/half-open interval to the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BreakerEvent {
    /// The breaker opened at `at_s`.
    Opened {
        /// Transition instant, seconds.
        at_s: f64,
    },
    /// The open interval `[since_s, at_s)` ended; now half-open.
    HalfOpened {
        /// When the breaker had opened, seconds.
        since_s: f64,
        /// Transition instant, seconds.
        at_s: f64,
    },
    /// The half-open interval `[since_s, at_s)` ended; now closed.
    Closed {
        /// When the breaker had half-opened, seconds.
        since_s: f64,
        /// Transition instant, seconds.
        at_s: f64,
    },
}

impl CircuitBreaker {
    /// A closed breaker.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid.
    pub fn new(policy: BreakerPolicy) -> Self {
        policy.validate();
        Self { policy, state: BreakerState::Closed { consecutive_failures: 0 }, opens: 0 }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Advances time-based transitions (open → half-open) as of `now`.
    pub fn tick(&mut self, now: f64) -> Option<BreakerEvent> {
        if let BreakerState::Open { since_s, until_s } = self.state {
            if now >= until_s {
                self.state = BreakerState::HalfOpen { since_s: now, probe_in_flight: false };
                return Some(BreakerEvent::HalfOpened { since_s, at_s: now });
            }
        }
        None
    }

    /// Whether routing may place a request on this replica as of `now`
    /// (call [`tick`](Self::tick) first to settle time transitions).
    pub fn routable(&self) -> bool {
        match self.state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { .. } => false,
            BreakerState::HalfOpen { probe_in_flight, .. } => !probe_in_flight,
        }
    }

    /// Records that routing placed a request here; a half-open breaker
    /// consumes its probe slot.
    pub fn on_dispatch(&mut self) {
        if let BreakerState::HalfOpen { since_s, .. } = self.state {
            self.state = BreakerState::HalfOpen { since_s, probe_in_flight: true };
        }
    }

    /// Records a crash at `now`. Returns the transition if the breaker
    /// opened (from closed after `failure_threshold` consecutive crashes,
    /// or immediately from half-open — the probe failed).
    pub fn record_failure(&mut self, now: f64) -> Option<BreakerEvent> {
        match self.state {
            BreakerState::Closed { consecutive_failures } => {
                let n = consecutive_failures + 1;
                if n >= self.policy.failure_threshold {
                    self.state =
                        BreakerState::Open { since_s: now, until_s: now + self.policy.cooldown_s };
                    self.opens += 1;
                    Some(BreakerEvent::Opened { at_s: now })
                } else {
                    self.state = BreakerState::Closed { consecutive_failures: n };
                    None
                }
            }
            BreakerState::HalfOpen { .. } => {
                self.state =
                    BreakerState::Open { since_s: now, until_s: now + self.policy.cooldown_s };
                self.opens += 1;
                Some(BreakerEvent::Opened { at_s: now })
            }
            BreakerState::Open { .. } => None,
        }
    }

    /// Records a completion on this replica at `now`: resets the failure
    /// count and closes a half-open breaker (successful probe).
    pub fn record_success(&mut self, now: f64) -> Option<BreakerEvent> {
        match self.state {
            BreakerState::Closed { .. } => {
                self.state = BreakerState::Closed { consecutive_failures: 0 };
                None
            }
            BreakerState::HalfOpen { since_s, .. } => {
                self.state = BreakerState::Closed { consecutive_failures: 0 };
                Some(BreakerEvent::Closed { since_s, at_s: now })
            }
            BreakerState::Open { .. } => None, // stale completion of pre-open work
        }
    }

    /// When an open breaker will half-open, if currently open.
    pub fn reopen_at(&self) -> Option<f64> {
        match self.state {
            BreakerState::Open { until_s, .. } => Some(until_s),
            _ => None,
        }
    }
}

/// Hedged-dispatch policy for deadline-bearing QoS classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Floor on the hedge delay (also the delay while the latency window
    /// is still empty), seconds.
    pub min_delay_s: f64,
    /// Sliding-window length over recent completion latencies.
    pub latency_window: usize,
    /// Quantile of the window used as the hedge delay (the classic
    /// tail-at-scale choice is 0.99).
    pub quantile: f64,
}

impl HedgePolicy {
    /// Defaults matched to the simulator's timescale: hedge after the
    /// windowed p99 latency (floor 100 µs) over the last 32 completions.
    pub fn standard() -> Self {
        Self { min_delay_s: 1e-4, latency_window: 32, quantile: 0.99 }
    }

    /// The hedge policy's structural rules; the first violated one.
    pub(crate) fn try_validate(&self) -> Result<(), &'static str> {
        ensure(
            self.min_delay_s.is_finite() && self.min_delay_s > 0.0,
            "hedge delay floor must be positive",
        )?;
        ensure(self.latency_window > 0, "latency window must be positive")?;
        ensure(self.quantile > 0.0 && self.quantile <= 1.0, "hedge quantile must be in (0, 1]")?;
        Ok(())
    }

    /// The hedge delay given the current latency window (nearest-rank
    /// quantile, floored at `min_delay_s`).
    pub fn delay_s(&self, window: &[f64]) -> f64 {
        if window.is_empty() {
            return self.min_delay_s;
        }
        let mut sorted: Vec<f64> = window.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let rank = ((self.quantile * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1].max(self.min_delay_s)
    }
}

/// Brownout configuration: the ladder plus the controller that walks it.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutConfig {
    /// The operating-point ladder.
    pub ladder: BrownoutLadder,
    /// Controller thresholds.
    pub policy: ControllerPolicy,
}

impl BrownoutConfig {
    /// Standard ladder + standard controller.
    pub fn standard() -> Self {
        Self { ladder: BrownoutLadder::standard(), policy: ControllerPolicy::standard() }
    }
}

/// The overload-control master switch carried by
/// [`FleetConfig`](crate::FleetConfig). Every mechanism is independently
/// optional; [`off`](Self::off) disables all three and is pinned bitwise
/// against the pre-overload fleet.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OverloadControl {
    /// Quality-brownout controller (None = never degrade).
    pub brownout: Option<BrownoutConfig>,
    /// Per-replica circuit breaker (None = route by `up` alone).
    pub breaker: Option<BreakerPolicy>,
    /// Hedged dispatch for deadline classes (None = never hedge).
    pub hedge: Option<HedgePolicy>,
}

impl OverloadControl {
    /// Everything disabled: the fleet behaves exactly as before this
    /// subsystem existed.
    pub fn off() -> Self {
        Self::default()
    }

    /// All three mechanisms at their standard settings.
    pub fn standard() -> Self {
        Self {
            brownout: Some(BrownoutConfig::standard()),
            breaker: Some(BreakerPolicy::standard()),
            hedge: Some(HedgePolicy::standard()),
        }
    }

    /// Whether every mechanism is disabled.
    pub fn is_off(&self) -> bool {
        self.brownout.is_none() && self.breaker.is_none() && self.hedge.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_standard_is_valid_and_ordered() {
        let l = BrownoutLadder::standard();
        assert!(l.len() >= 2 && l.len() <= MAX_BROWNOUT_LEVELS);
        assert_eq!(l.level(0).budget_scale, 1.0);
        assert_eq!(l.level_name(0), "baseline");
        assert_eq!(l.level_name(1), "brownout-1");
        for w in (0..l.len()).collect::<Vec<_>>().windows(2) {
            assert!(l.level(w[1]).budget_scale < l.level(w[0]).budget_scale);
            assert!(l.level(w[1]).accuracy_loss_pct >= l.level(w[0]).accuracy_loss_pct);
        }
    }

    #[test]
    #[should_panic(expected = "baseline")]
    fn ladder_rejects_non_baseline_level_zero() {
        let _ =
            BrownoutLadder::new(vec![BrownoutLevel { budget_scale: 0.9, accuracy_loss_pct: 0.0 }]);
    }

    #[test]
    #[should_panic(expected = "descend")]
    fn ladder_rejects_non_descending_scales() {
        let _ = BrownoutLadder::new(vec![
            BrownoutLevel { budget_scale: 1.0, accuracy_loss_pct: 0.0 },
            BrownoutLevel { budget_scale: 0.5, accuracy_loss_pct: 0.5 },
            BrownoutLevel { budget_scale: 0.7, accuracy_loss_pct: 1.0 },
        ]);
    }

    #[test]
    fn from_points_normalises_the_baseline() {
        let l = BrownoutLadder::from_points(&[(0.9999, 0.01), (0.8, 0.5)]);
        assert_eq!(l.level(0).budget_scale, 1.0);
        assert_eq!(l.level(0).accuracy_loss_pct, 0.0);
        assert_eq!(l.level(1).budget_scale, 0.8);
    }

    #[test]
    fn controller_escalates_on_sustained_depth_and_recovers() {
        let p = ControllerPolicy::standard();
        let mut c = BrownoutController::new(p, 3);
        // Sustained heavy depth: climbs one level per dwell once the
        // window fills.
        let mut transitions = 0;
        for _ in 0..64 {
            if c.observe_depth(100.0).is_some() {
                transitions += 1;
            }
        }
        assert_eq!(c.level(), 3, "sustained overload must reach the ladder top");
        assert_eq!(transitions, 3);
        // Sustained idle: steps back down to baseline.
        for _ in 0..64 {
            c.observe_depth(0.0);
        }
        assert_eq!(c.level(), 0, "recovery must return to baseline");
    }

    #[test]
    fn controller_needs_a_full_window_before_escalating() {
        let p = ControllerPolicy::standard();
        let mut c = BrownoutController::new(p, 3);
        for _ in 0..p.depth_window - 1 {
            assert_eq!(c.observe_depth(1e6), None, "no escalation on partial evidence");
        }
        assert!(c.observe_depth(1e6).is_some(), "full window escalates");
    }

    #[test]
    fn controller_escalates_on_miss_rate_alone() {
        let p = ControllerPolicy::standard();
        let mut c = BrownoutController::new(p, 2);
        for _ in 0..p.miss_window {
            c.observe_completion(true);
        }
        assert!(c.level() > 0, "a saturated miss window must escalate");
    }

    #[test]
    fn load_inside_the_hysteresis_band_never_transitions() {
        let p = ControllerPolicy::standard();
        let mut c = BrownoutController::new(p, 3);
        // Square wave between 1.5 and 3.5: both below depth_up (4.0) and
        // the mean above depth_down·0 only matters at level > 0.
        for i in 0..256 {
            let d = if (i / 8) % 2 == 0 { 1.5 } else { 3.5 };
            assert_eq!(c.observe_depth(d), None, "sample {i} must not transition");
        }
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn settled_level_is_monotone_in_constant_depth() {
        let p = ControllerPolicy::standard();
        let settled = |d: f64| {
            let mut c = BrownoutController::new(p, 5);
            for _ in 0..256 {
                c.observe_depth(d);
            }
            c.level()
        };
        let levels: Vec<usize> =
            [0.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0, 100.0].iter().map(|&d| settled(d)).collect();
        assert!(levels.windows(2).all(|w| w[1] >= w[0]), "not monotone: {levels:?}");
        assert_eq!(*levels.first().unwrap(), 0);
        assert_eq!(*levels.last().unwrap(), 5);
        // The per-level threshold scaling makes it graded, not two-valued.
        assert!(
            levels.iter().any(|&l| l > 0 && l < 5),
            "ladder should settle mid-rung: {levels:?}"
        );
    }

    #[test]
    fn breaker_opens_after_threshold_half_opens_and_closes_on_probe() {
        let mut b = CircuitBreaker::new(BreakerPolicy { failure_threshold: 2, cooldown_s: 1.0 });
        assert!(b.routable());
        assert_eq!(b.record_failure(0.0), None, "first failure only counts");
        assert!(b.routable());
        assert_eq!(b.record_failure(0.5), Some(BreakerEvent::Opened { at_s: 0.5 }));
        assert!(!b.routable());
        assert_eq!(b.opens, 1);
        // Before the cooldown: still open.
        assert_eq!(b.tick(1.0), None);
        assert!(!b.routable());
        // Cooldown elapsed: half-open, one probe slot.
        assert_eq!(b.tick(1.5), Some(BreakerEvent::HalfOpened { since_s: 0.5, at_s: 1.5 }));
        assert!(b.routable());
        b.on_dispatch();
        assert!(!b.routable(), "probe slot consumed");
        // Probe completes: closed.
        assert_eq!(b.record_success(2.0), Some(BreakerEvent::Closed { since_s: 1.5, at_s: 2.0 }));
        assert!(b.routable());
        assert_eq!(b.state(), BreakerState::Closed { consecutive_failures: 0 });
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let mut b = CircuitBreaker::new(BreakerPolicy { failure_threshold: 1, cooldown_s: 1.0 });
        assert!(b.record_failure(0.0).is_some());
        b.tick(1.0);
        b.on_dispatch();
        assert_eq!(b.record_failure(1.2), Some(BreakerEvent::Opened { at_s: 1.2 }));
        assert_eq!(b.opens, 2);
        assert_eq!(b.reopen_at(), Some(2.2));
    }

    #[test]
    fn completion_resets_the_consecutive_failure_count() {
        let mut b = CircuitBreaker::new(BreakerPolicy { failure_threshold: 2, cooldown_s: 1.0 });
        b.record_failure(0.0);
        b.record_success(0.5);
        assert_eq!(b.record_failure(1.0), None, "count was reset by the completion");
        assert!(b.routable());
    }

    #[test]
    fn hedge_delay_is_windowed_p99_with_floor() {
        let p = HedgePolicy { min_delay_s: 0.5, latency_window: 8, quantile: 0.99 };
        assert_eq!(p.delay_s(&[]), 0.5, "empty window falls back to the floor");
        assert_eq!(p.delay_s(&[0.1, 0.2]), 0.5, "p99 below the floor is floored");
        let window = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(p.delay_s(&window), 8.0, "p99 of 8 samples is the max");
        let p50 = HedgePolicy { min_delay_s: 1e-9, latency_window: 8, quantile: 0.5 };
        assert_eq!(p50.delay_s(&window), 4.0);
    }

    #[test]
    fn off_is_off_and_standard_enables_everything() {
        assert!(OverloadControl::off().is_off());
        let s = OverloadControl::standard();
        assert!(!s.is_off());
        assert!(s.brownout.is_some() && s.breaker.is_some() && s.hedge.is_some());
    }
}
