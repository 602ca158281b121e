//! Deterministic phi-accrual failure detection and quarantine.
//!
//! The detector watches what a real load balancer could watch: the
//! stream of per-replica *completion* times. Two suspicion signals feed
//! a shared quarantine state:
//!
//! * **Silence** (phi accrual, Hayashibara et al.): per replica the
//!   detector keeps a sliding window of completion inter-arrival times
//!   and computes `phi = log10(e) · elapsed / mean_interval` — the
//!   exponential-model suspicion that a replica *with outstanding work*
//!   has gone this long without completing anything. Crossing
//!   [`DetectorPolicy::phi_threshold`] quarantines the replica. Idle
//!   replicas (no queued or active work) are never suspected: silence is
//!   only evidence when something should have finished.
//! * **Gray slowness**: a replica whose mean completion interval exceeds
//!   [`DetectorPolicy::gray_ratio`] × the mean of the *other* replicas
//!   is completing — so phi stays low — but pathologically slowly.
//!
//! A quarantined replica is removed from the routable mask for
//! [`DetectorPolicy::probation_s`] seconds, then re-admitted on
//! probation with a fresh observation window (it must mis-behave over
//! [`DetectorPolicy::min_samples`] fresh completions to be quarantined
//! again, which guarantees probe traffic actually flows).
//!
//! Everything here is a pure function of event-time inputs evaluated
//! inside the shared engine handlers, so the fleet driver and its
//! reference scan (`crate::reference`) observe the identical mask
//! sequence and stay bitwise equal. With
//! `FleetConfig::detector = None` the bank is never constructed and the
//! fleet reproduces the detector-less runtime bit for bit (pinned by
//! golden tests).

use crate::ensure;
use crate::fault::FaultPlan;
use crate::replica::Replica;
use cta_telemetry::{Module, SpanClass, TraceSink, TrackId};

/// log10(e): converts exponential log-likelihood to the phi scale.
const LOG10_E: f64 = std::f64::consts::LOG10_E;

/// Failure-detector configuration. `None` anywhere a
/// [`FleetConfig`](crate::FleetConfig) carries it means *no detector*:
/// routing trusts `up` alone, bitwise identical to the pre-detector
/// fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorPolicy {
    /// Quarantine when phi exceeds this (phi 4 ≈ silence longer than
    /// 9.2× the mean completion interval).
    pub phi_threshold: f64,
    /// Sliding-window length of inter-arrival samples per replica.
    pub window: usize,
    /// Minimum samples before either suspicion signal may fire.
    pub min_samples: usize,
    /// Quarantine duration before probation re-admits the replica.
    pub probation_s: f64,
    /// Gray-failure trigger: quarantine when the replica's mean
    /// completion interval exceeds `ratio` × the mean of the other
    /// replicas. `None` disables the slowness signal (silence only).
    pub gray_ratio: Option<f64>,
}

impl DetectorPolicy {
    /// Production defaults: phi 4 over a 32-sample window (≥ 4 samples),
    /// 0.5 s probation, gray trigger at 4× fleet-relative slowness.
    pub fn standard() -> Self {
        Self {
            phi_threshold: 4.0,
            window: 32,
            min_samples: 4,
            probation_s: 0.5,
            gray_ratio: Some(4.0),
        }
    }

    /// Checks the policy for structural validity.
    ///
    /// # Panics
    ///
    /// Panics if any threshold is non-positive or non-finite, or the
    /// window cannot hold `min_samples`.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Fallible form of [`validate`](Self::validate): the first violated
    /// rule.
    pub fn try_validate(&self) -> Result<(), &'static str> {
        ensure(
            self.phi_threshold > 0.0 && self.phi_threshold.is_finite(),
            "phi threshold must be positive and finite",
        )?;
        ensure(self.window > 0, "window must hold at least one sample")?;
        ensure(
            self.min_samples > 0 && self.min_samples <= self.window,
            "min_samples must be in 1..=window",
        )?;
        ensure(
            self.probation_s > 0.0 && self.probation_s.is_finite(),
            "probation must be positive and finite",
        )?;
        if let Some(r) = self.gray_ratio {
            ensure(r > 1.0 && r.is_finite(), "gray ratio must exceed 1")?;
        }
        Ok(())
    }
}

/// Detection-quality metrics, filled at end of run by matching the
/// quarantine log against the fault plan's ground-truth windows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectorStats {
    /// Total quarantine entries across replicas.
    pub quarantines: usize,
    /// Quarantines that fired while *no* fault window covered the
    /// replica (the detector cried wolf).
    pub false_quarantines: usize,
    /// Mean detection latency over true quarantines, seconds: quarantine
    /// instant minus the onset of the covering fault window. `0.0` when
    /// nothing was detected.
    pub mean_detection_latency_s: f64,
    /// Worst detection latency over true quarantines, seconds.
    pub max_detection_latency_s: f64,
}

/// Per-replica observation window and quarantine state.
#[derive(Debug, Clone)]
struct ReplicaDetector {
    /// Last completion (or probation probe) instant.
    last_s: Option<f64>,
    /// Sliding window of positive inter-arrival samples (ring buffer).
    intervals: Vec<f64>,
    /// Next ring slot to overwrite once the window is full.
    next: usize,
    /// Quarantine in force until this instant (`None` = routable).
    quarantined_until: Option<f64>,
    /// When the current quarantine began.
    quarantine_from: f64,
    /// Every quarantine entry instant (for end-of-run stats).
    entries: Vec<f64>,
}

impl ReplicaDetector {
    fn new(window: usize) -> Self {
        Self {
            last_s: None,
            intervals: Vec::with_capacity(window),
            next: 0,
            quarantined_until: None,
            quarantine_from: 0.0,
            entries: Vec::new(),
        }
    }

    /// Mean inter-arrival over the window, or `None` below `min_samples`.
    fn mean_interval(&self, min_samples: usize) -> Option<f64> {
        if self.intervals.len() < min_samples {
            return None;
        }
        Some(self.intervals.iter().sum::<f64>() / self.intervals.len() as f64)
    }
}

/// The fleet's failure detector: one observation window per replica plus
/// the shared policy. Owned by the engine only when
/// `FleetConfig::detector` is set.
#[derive(Debug, Clone)]
pub(crate) struct DetectorBank {
    policy: DetectorPolicy,
    states: Vec<ReplicaDetector>,
}

impl DetectorBank {
    pub fn new(policy: DetectorPolicy, replicas: usize) -> Self {
        policy.validate();
        Self {
            policy,
            states: (0..replicas).map(|_| ReplicaDetector::new(policy.window)).collect(),
        }
    }

    /// Feeds one completion observation for `replica` at `t_s`.
    /// Same-instant siblings (a batch retiring several requests in one
    /// step) contribute a single sample: zero-width intervals are
    /// dropped so burstiness cannot crush the mean to zero.
    pub fn observe(&mut self, replica: usize, t_s: f64) {
        let st = &mut self.states[replica];
        if let Some(last) = st.last_s {
            let dt = t_s - last;
            if dt > 0.0 {
                if st.intervals.len() < self.policy.window {
                    st.intervals.push(dt);
                } else {
                    st.intervals[st.next] = dt;
                }
                st.next = (st.next + 1) % self.policy.window;
            }
            if t_s > last {
                st.last_s = Some(t_s);
            }
        } else {
            st.last_s = Some(t_s);
        }
    }

    /// The routable mask as of `now`: advances quarantine/probation state
    /// and evaluates both suspicion signals. `false` = quarantined.
    pub fn mask<S: TraceSink>(
        &mut self,
        replicas: &[Replica<'_>],
        now: f64,
        sink: &mut S,
    ) -> Vec<bool> {
        let min_samples = self.policy.min_samples;
        // Per-replica means, fixed before any state advances: the gray
        // signal compares against the *other* replicas' means.
        let means: Vec<Option<f64>> =
            self.states.iter().map(|s| s.mean_interval(min_samples)).collect();
        let mut out = Vec::with_capacity(self.states.len());
        for i in 0..self.states.len() {
            let st = &mut self.states[i];
            if let Some(until) = st.quarantined_until {
                if now < until {
                    out.push(false);
                    continue;
                }
                // Probation over: re-admit with a fresh window. The probe
                // resets the silence clock, and `min_samples` fresh
                // completions must accrue before either signal may fire
                // again — so probe traffic actually reaches the replica.
                st.quarantined_until = None;
                st.last_s = Some(st.last_s.map_or(now, |l| l.max(now)));
                st.intervals.clear();
                st.next = 0;
                if S::ENABLED {
                    let track = TrackId::new(i as u32, Module::Chaos);
                    sink.span(track, "quarantine", st.quarantine_from, now, SpanClass::Fault, true);
                    sink.instant(track, "probe-readmit", now);
                }
                out.push(true);
                continue;
            }
            // Crashed replicas are the runtime's problem (`up` already
            // excludes them from routing); quarantining them would only
            // pollute the false-positive count.
            if !replicas[i].up {
                out.push(true);
                continue;
            }
            let Some(mean) = means[i] else {
                out.push(true);
                continue;
            };
            // Silence: only replicas with outstanding work can be
            // suspiciously quiet.
            let mut suspect = false;
            if replicas[i].load() > 0 {
                if let Some(last) = st.last_s {
                    let phi = LOG10_E * (now - last) / mean;
                    suspect = phi > self.policy.phi_threshold;
                }
            }
            // Gray slowness, relative to the rest of the fleet.
            if !suspect {
                if let Some(ratio) = self.policy.gray_ratio {
                    let (sum, n) = means
                        .iter()
                        .enumerate()
                        .filter(|&(j, m)| j != i && m.is_some())
                        .fold((0.0, 0usize), |(s, n), (_, m)| (s + m.unwrap(), n + 1));
                    if n > 0 {
                        suspect = mean > ratio * (sum / n as f64);
                    }
                }
            }
            if suspect {
                st.quarantined_until = Some(now + self.policy.probation_s);
                st.quarantine_from = now;
                st.entries.push(now);
                if S::ENABLED {
                    let track = TrackId::new(i as u32, Module::Chaos);
                    sink.instant(track, "quarantine", now);
                }
                out.push(false);
            } else {
                out.push(true);
            }
        }
        out
    }

    /// End-of-run: closes quarantine spans still open at the makespan.
    pub fn close_spans<S: TraceSink>(&self, makespan_s: f64, sink: &mut S) {
        if !S::ENABLED {
            return;
        }
        for (i, st) in self.states.iter().enumerate() {
            if st.quarantined_until.is_some() {
                let track = TrackId::new(i as u32, Module::Chaos);
                let end = makespan_s.max(st.quarantine_from);
                sink.span(track, "quarantine", st.quarantine_from, end, SpanClass::Fault, true);
            }
        }
    }

    /// Classifies the quarantine log against the plan's ground-truth
    /// fault windows: a quarantine of replica `r` at `t` is *true* when
    /// some fault window on `r` covers `t`, with detection latency
    /// `t - onset` of the latest covering window.
    pub fn stats(&self, plan: &FaultPlan) -> DetectorStats {
        let windows = plan.fault_windows();
        let mut stats = DetectorStats::default();
        let mut latency_sum = 0.0;
        let mut detected = 0usize;
        for (replica, st) in self.states.iter().enumerate() {
            for &t in &st.entries {
                stats.quarantines += 1;
                let onset = windows
                    .iter()
                    .filter(|&&(r, s, e)| r == replica && s <= t && t <= e)
                    .map(|&(_, s, _)| s)
                    .fold(f64::NEG_INFINITY, f64::max);
                if onset.is_finite() {
                    let latency = t - onset;
                    latency_sum += latency;
                    detected += 1;
                    stats.max_detection_latency_s = stats.max_detection_latency_s.max(latency);
                } else {
                    stats.false_quarantines += 1;
                }
            }
        }
        if detected > 0 {
            stats.mean_detection_latency_s = latency_sum / detected as f64;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_telemetry::NullSink;

    fn fed_bank(replicas: usize, completions_every_s: f64, upto_s: f64) -> DetectorBank {
        let mut bank = DetectorBank::new(DetectorPolicy::standard(), replicas);
        for r in 0..replicas {
            let mut t = 0.0;
            while t < upto_s {
                bank.observe(r, t);
                t += completions_every_s;
            }
        }
        bank
    }

    fn idle_fleet<'a>(n: usize) -> Vec<Replica<'a>> {
        let system = cta_sim::CtaSystem::new(cta_sim::SystemConfig::paper());
        (0..n).map(|i| Replica::new(i, system.clone())).collect()
    }

    #[test]
    fn silence_without_work_is_not_suspicious() {
        let mut bank = fed_bank(2, 0.1, 1.0);
        let replicas = idle_fleet(2);
        let mut sink = NullSink;
        // 100 s of silence, but the replicas are idle: no quarantine.
        let mask = bank.mask(&replicas, 100.0, &mut sink);
        assert_eq!(mask, vec![true, true]);
    }

    #[test]
    fn silence_with_outstanding_work_quarantines_then_readmits() {
        let mut bank = fed_bank(2, 0.1, 1.0);
        // Replica 0 owes work but has gone quiet.
        let spec = crate::LoadSpec::standard(
            cta_sim::AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6),
            2,
            4,
        );
        let requests = crate::poisson_requests(&spec, 1, 1.0, 1);
        let mut replicas = idle_fleet(2);
        replicas[0].enqueue(crate::replica::Pending::fresh(
            &requests[0],
            0.1,
            crate::cost::LayerTimes::from_steps(
                cta_sim::CtaSystem::new(cta_sim::SystemConfig::paper()).weight_upload_s(),
                &[0.05; 2],
            ),
        ));
        let mut sink = NullSink;
        let mask = bank.mask(&replicas, 100.0, &mut sink);
        assert_eq!(mask, vec![false, true], "quiet replica with work is quarantined");
        // Still quarantined inside probation...
        let probation = DetectorPolicy::standard().probation_s;
        assert_eq!(bank.mask(&replicas, 100.0 + probation / 2.0, &mut sink), vec![false, true]);
        // ...re-admitted after, with a cleared window (no instant re-trip).
        assert_eq!(bank.mask(&replicas, 100.0 + probation, &mut sink), vec![true, true]);
        assert_eq!(bank.mask(&replicas, 101.0 + probation, &mut sink), vec![true, true]);
    }

    #[test]
    fn gray_slowness_relative_to_fleet_quarantines() {
        let mut bank = DetectorBank::new(DetectorPolicy::standard(), 3);
        for t in 0..20 {
            bank.observe(0, t as f64 * 0.1);
            bank.observe(1, t as f64 * 0.1);
            bank.observe(2, t as f64 * 1.0); // 10× slower than its peers
        }
        let replicas = idle_fleet(3);
        let mut sink = NullSink;
        let mask = bank.mask(&replicas, 19.01, &mut sink);
        assert_eq!(mask, vec![true, true, false], "gray replica quarantined without silence");
    }

    #[test]
    fn stats_classify_true_and_false_quarantines() {
        let mut bank = DetectorBank::new(DetectorPolicy::standard(), 2);
        bank.states[0].entries = vec![5.0];
        bank.states[1].entries = vec![5.0];
        let plan = FaultPlan {
            partitions: vec![crate::Partition { replica: 0, from_s: 4.0, until_s: 6.0 }],
            ..FaultPlan::none()
        };
        let stats = bank.stats(&plan);
        assert_eq!(stats.quarantines, 2);
        assert_eq!(stats.false_quarantines, 1, "replica 1 had no fault");
        assert_eq!(stats.mean_detection_latency_s, 1.0);
        assert_eq!(stats.max_detection_latency_s, 1.0);
    }

    #[test]
    #[should_panic(expected = "gray ratio must exceed 1")]
    fn policy_rejects_sub_unity_gray_ratio() {
        DetectorPolicy { gray_ratio: Some(0.5), ..DetectorPolicy::standard() }.validate();
    }
}
