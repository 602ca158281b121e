//! Deterministic replica autoscaling.
//!
//! The fleet preallocates `max_replicas` replica slots; the autoscaler
//! decides which prefix of them is *routable*. Scale-ups enable the next
//! slots but charge a warmup delay — the replica only becomes routable
//! `warmup_s` after the decision, modelling weight upload and cache
//! warm. Scale-downs disable the highest enabled slots immediately for
//! *new* work while queued work keeps executing (graceful drain: the
//! engine never cancels a disabled replica's queue). A cooldown window
//! after every decision bounds oscillation.
//!
//! The controller is a pure state machine over `(now, signal)`
//! observations the engine feeds it once per arrival, so both engine
//! drivers see identical decisions and runs reproduce exactly.

use crate::ensure;

/// Autoscaler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalePolicy {
    /// Floor of enabled replicas (also the initial count).
    pub min_replicas: usize,
    /// Ceiling of enabled replicas (at most the fleet size).
    pub max_replicas: usize,
    /// Scale up when the observed queue-depth signal (queued requests
    /// per enabled replica, including front-end backlog) exceeds this.
    pub scale_up_depth: f64,
    /// Scale down when the signal falls below this.
    pub scale_down_depth: f64,
    /// Replicas added or removed per decision.
    pub step: usize,
    /// Delay before a newly enabled replica takes traffic, seconds.
    pub warmup_s: f64,
    /// Minimum gap between decisions, seconds.
    pub cooldown_s: f64,
}

impl AutoscalePolicy {
    /// A reactive policy: scale up past 2 queued requests per enabled
    /// replica, down below 0.25, one replica per decision, cooling down
    /// for twice the warmup.
    pub fn reactive(min_replicas: usize, max_replicas: usize, warmup_s: f64) -> Self {
        Self {
            min_replicas,
            max_replicas,
            scale_up_depth: 2.0,
            scale_down_depth: 0.25,
            step: 1,
            warmup_s,
            cooldown_s: 2.0 * warmup_s,
        }
    }

    /// Validates the policy against a fleet of `fleet` replica slots.
    ///
    /// # Panics
    ///
    /// Panics when the bounds are inconsistent (`min` zero or above
    /// `max`, `max` above the fleet, zero `step`, non-finite or negative
    /// delays, thresholds inverted).
    pub fn validate(&self, fleet: usize) {
        if let Err(e) = self.try_validate(fleet) {
            panic!("{e}");
        }
    }

    /// Fallible form of [`validate`](Self::validate): the first violated
    /// rule.
    pub fn try_validate(&self, fleet: usize) -> Result<(), &'static str> {
        ensure(self.min_replicas >= 1, "autoscaler floor must be at least 1")?;
        ensure(self.min_replicas <= self.max_replicas, "autoscaler floor above ceiling")?;
        ensure(self.max_replicas <= fleet, "autoscaler ceiling exceeds the fleet")?;
        ensure(self.step >= 1, "autoscaler step must be at least 1")?;
        ensure(self.warmup_s.is_finite() && self.warmup_s >= 0.0, "warmup must be non-negative")?;
        ensure(
            self.cooldown_s.is_finite() && self.cooldown_s >= 0.0,
            "cooldown must be non-negative",
        )?;
        ensure(
            self.scale_up_depth.is_finite()
                && self.scale_down_depth.is_finite()
                && self.scale_up_depth > self.scale_down_depth
                && self.scale_down_depth >= 0.0,
            "scale thresholds must satisfy 0 <= down < up",
        )?;
        Ok(())
    }
}

/// A scaling decision, reported for telemetry and stats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleEvent {
    /// Enabled replicas `from..to`; they take traffic from `ready_s`.
    Up {
        /// Enabled count before the decision.
        from: usize,
        /// Enabled count after the decision.
        to: usize,
        /// When the new replicas become routable.
        ready_s: f64,
    },
    /// Disabled replicas `to..from` for new work (queued work drains).
    Down {
        /// Enabled count before the decision.
        from: usize,
        /// Enabled count after the decision.
        to: usize,
    },
}

/// The autoscaler state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Autoscaler {
    policy: AutoscalePolicy,
    /// Per-slot time from which the replica is routable: 0 for the
    /// initially enabled prefix, `now + warmup` for scale-ups, +inf for
    /// disabled slots.
    ready_at_s: Vec<f64>,
    active: usize,
    cooldown_until_s: f64,
    /// Scale-up decisions taken.
    pub scale_ups: usize,
    /// Scale-down decisions taken.
    pub scale_downs: usize,
}

impl Autoscaler {
    /// Builds the controller for a fleet of `fleet` slots, starting at
    /// `policy.min_replicas` enabled.
    ///
    /// # Panics
    ///
    /// Panics if the policy is inconsistent with the fleet size.
    pub fn new(policy: AutoscalePolicy, fleet: usize) -> Self {
        policy.validate(fleet);
        let ready_at_s =
            (0..fleet).map(|i| if i < policy.min_replicas { 0.0 } else { f64::INFINITY }).collect();
        Self {
            policy,
            ready_at_s,
            active: policy.min_replicas,
            cooldown_until_s: 0.0,
            scale_ups: 0,
            scale_downs: 0,
        }
    }

    /// Currently enabled replica count (including ones still warming).
    pub fn active(&self) -> usize {
        self.active
    }

    /// Whether slot `i` may take new work at `now` (enabled and warmed).
    pub fn routable(&self, i: usize, now: f64) -> bool {
        now >= self.ready_at_s[i]
    }

    /// Feeds one queue-depth observation; returns the decision taken,
    /// if any. `signal` is queued requests per enabled replica
    /// (front-end backlog included).
    pub fn observe(&mut self, now: f64, signal: f64) -> Option<ScaleEvent> {
        if now < self.cooldown_until_s {
            return None;
        }
        let p = self.policy;
        if signal > p.scale_up_depth && self.active < p.max_replicas {
            let from = self.active;
            let to = (self.active + p.step).min(p.max_replicas);
            let ready_s = now + p.warmup_s;
            for slot in &mut self.ready_at_s[from..to] {
                *slot = ready_s;
            }
            self.active = to;
            self.scale_ups += 1;
            self.cooldown_until_s = now + p.cooldown_s;
            return Some(ScaleEvent::Up { from, to, ready_s });
        }
        if signal < p.scale_down_depth && self.active > p.min_replicas {
            let from = self.active;
            let to = from.saturating_sub(p.step).max(p.min_replicas);
            for slot in &mut self.ready_at_s[to..from] {
                *slot = f64::INFINITY;
            }
            self.active = to;
            self.scale_downs += 1;
            self.cooldown_until_s = now + p.cooldown_s;
            return Some(ScaleEvent::Down { from, to });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AutoscalePolicy {
        AutoscalePolicy::reactive(1, 4, 0.5)
    }

    #[test]
    fn starts_at_the_floor_with_only_the_prefix_routable() {
        let a = Autoscaler::new(policy(), 4);
        assert_eq!(a.active(), 1);
        assert!(a.routable(0, 0.0));
        assert!(!a.routable(1, 0.0));
        assert!(!a.routable(3, 1e9));
    }

    #[test]
    fn scale_up_charges_warmup_before_routing() {
        let mut a = Autoscaler::new(policy(), 4);
        let ev = a.observe(1.0, 10.0);
        assert_eq!(ev, Some(ScaleEvent::Up { from: 1, to: 2, ready_s: 1.5 }));
        assert_eq!(a.active(), 2);
        assert!(!a.routable(1, 1.0), "still warming");
        assert!(!a.routable(1, 1.4));
        assert!(a.routable(1, 1.5), "warmed at ready_s");
    }

    #[test]
    fn cooldown_gates_consecutive_decisions() {
        let mut a = Autoscaler::new(policy(), 4);
        assert!(a.observe(1.0, 10.0).is_some());
        // Cooldown is 2 * warmup = 1 s: decisions before t=2 are held.
        assert_eq!(a.observe(1.5, 10.0), None);
        assert_eq!(a.observe(1.99, 10.0), None);
        assert_eq!(a.observe(2.0, 10.0), Some(ScaleEvent::Up { from: 2, to: 3, ready_s: 2.5 }));
    }

    #[test]
    fn scale_down_disables_the_top_slots_and_respects_the_floor() {
        let mut a = Autoscaler::new(policy(), 4);
        a.observe(1.0, 10.0);
        a.observe(2.0, 10.0);
        assert_eq!(a.active(), 3);
        let ev = a.observe(4.0, 0.0);
        assert_eq!(ev, Some(ScaleEvent::Down { from: 3, to: 2 }));
        assert!(!a.routable(2, 1e9), "disabled slot takes no new work");
        a.observe(6.0, 0.0);
        assert_eq!(a.active(), 1);
        // At the floor: no further scale-down regardless of idleness.
        assert_eq!(a.observe(8.0, 0.0), None);
        assert_eq!((a.scale_ups, a.scale_downs), (2, 2));
    }

    #[test]
    fn in_band_signal_takes_no_action() {
        let mut a = Autoscaler::new(policy(), 4);
        assert_eq!(a.observe(1.0, 1.0), None);
        assert_eq!(a.active(), 1);
    }

    #[test]
    #[should_panic(expected = "ceiling exceeds the fleet")]
    fn oversized_ceiling_rejected() {
        let _ = Autoscaler::new(AutoscalePolicy::reactive(1, 8, 0.1), 4);
    }
}
