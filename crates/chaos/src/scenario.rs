//! Seeded scenario sampling: one `u64` expands to a full fleet
//! configuration × fault composition, and round-trips through JSON so a
//! failing draw can be replayed (and shrunk) outside the sweep that
//! found it.

use cta_serve::DetRng;
use cta_serve::{
    poisson_requests, AdmissionPolicy, BatchPolicy, BrownoutConfig, CostModel, CrashWindow,
    DetectorPolicy, FaultPlan, FleetConfig, GrayFailure, LinkStall, LoadSpec, OverloadControl,
    Partition, RoutingPolicy, SchedulerPolicy, ServeRequest, SessionPolicy, SessionTurn, Slowdown,
    TenancyConfig, ZoneOutage,
};
use cta_sim::{AttentionTask, CtaSystem, SystemConfig};

/// Three-way CLI switch for an optional fleet feature: always on, always
/// off, or sampled per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Toggle {
    /// Enable the feature in every scenario.
    On,
    /// Disable the feature in every scenario.
    Off,
    /// Let each seed decide (the chaos default).
    Mix,
}

impl Toggle {
    /// CLI label.
    pub fn label(&self) -> &'static str {
        match self {
            Toggle::On => "on",
            Toggle::Off => "off",
            Toggle::Mix => "mix",
        }
    }

    /// Parses a CLI word (`on` / `off` / `mix`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "on" => Some(Toggle::On),
            "off" => Some(Toggle::Off),
            "mix" => Some(Toggle::Mix),
            _ => None,
        }
    }

    /// Resolves the switch for one scenario: `Mix` flips the given
    /// seeded coin, `On`/`Off` ignore it.
    fn resolve(self, coin: bool) -> bool {
        match self {
            Toggle::On => true,
            Toggle::Off => false,
            Toggle::Mix => coin,
        }
    }
}

/// Largest fleet a scenario may hold: the ceiling on `--replicas-max`
/// and on a replayed repro's `replicas`.
pub const MAX_REPLICAS: usize = 4096;

/// Largest request count a scenario may hold: the ceiling on
/// `--requests-max` and on a replayed repro's `requests`.
pub const MAX_REQUESTS: usize = 1 << 20;

/// Bounds and feature switches for the scenario sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosParams {
    /// Largest fleet a scenario may draw (inclusive; 2 to
    /// [`MAX_REPLICAS`]).
    pub replicas_max: usize,
    /// Zone count ceiling for correlated outages (`< 2` disables them).
    pub zones_max: usize,
    /// Largest request count a scenario may draw (inclusive; 16 to
    /// [`MAX_REQUESTS`]).
    pub requests_max: usize,
    /// Allow explicit per-replica crash windows.
    pub crashes: bool,
    /// Allow correlated zone outages.
    pub zone_outages: bool,
    /// Allow network partitions.
    pub partitions: bool,
    /// Allow gray failures.
    pub gray: bool,
    /// Force every gray failure to this severity instead of sampling
    /// one (the detection-latency-vs-severity experiment's knob).
    pub gray_severity: Option<f64>,
    /// Allow deterministic slowdowns.
    pub slowdowns: bool,
    /// Allow host-link stalls.
    pub link_stalls: bool,
    /// Multi-tenant fair queueing (2 equal-weight DRR tenants when on).
    pub tenancy: Toggle,
    /// Quality brownout under overload.
    pub brownout: Toggle,
    /// Phi-accrual failure detection + quarantine.
    pub detector: Toggle,
    /// Streaming decode sessions (sticky routing; every request becomes
    /// a session turn when on).
    pub sessions: Toggle,
}

impl Default for ChaosParams {
    fn default() -> Self {
        Self {
            replicas_max: 4,
            zones_max: 3,
            requests_max: 96,
            crashes: true,
            zone_outages: true,
            partitions: true,
            gray: true,
            gray_severity: None,
            slowdowns: true,
            link_stalls: true,
            tenancy: Toggle::Mix,
            brownout: Toggle::Mix,
            detector: Toggle::Mix,
            sessions: Toggle::Mix,
        }
    }
}

impl ChaosParams {
    /// Validates the bounds the sampler assumes.
    ///
    /// # Errors
    ///
    /// Returns a CLI-style message when a bound is outside its range.
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=MAX_REPLICAS).contains(&self.replicas_max) {
            return Err(format!("--replicas-max must be at least 2 and at most {MAX_REPLICAS}"));
        }
        if !(16..=MAX_REQUESTS).contains(&self.requests_max) {
            return Err(format!("--requests-max must be at least 16 and at most {MAX_REQUESTS}"));
        }
        if let Some(s) = self.gray_severity {
            if !(s > 0.0 && s.is_finite()) {
                return Err("--gray-severity must be positive and finite".into());
            }
        }
        Ok(())
    }
}

/// The workload shape every scenario serves: the detector and invariant
/// unit tests in `cta-serve` use the same head task, so chaos findings
/// transfer directly.
pub fn load_spec() -> LoadSpec {
    LoadSpec::standard(AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6), 2, 4)
}

/// Solo service time of one [`load_spec`] request on the paper system,
/// seconds. Fault windows and offered load are scaled from this.
pub fn solo_service_s() -> f64 {
    let probe = poisson_requests(&load_spec(), 1, 1.0, 1);
    let mut cost = CostModel::new();
    cost.request_service_s(&CtaSystem::new(SystemConfig::paper()), &probe[0])
}

/// One fully-specified chaos draw: fleet shape, feature switches, and
/// the fault composition. Everything downstream — the request trace, the
/// [`FleetConfig`], the invariant oracle — is a pure
/// function of this value, which is what makes failures replayable.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// The seed this scenario was sampled from (kept for the repro).
    pub seed: u64,
    /// Fleet width.
    pub replicas: usize,
    /// Requests offered.
    pub requests: usize,
    /// Poisson arrival rate, requests/second.
    pub rate_rps: f64,
    /// Arrival routing policy.
    pub routing: RoutingPolicy,
    /// Tenant count (0 = single-tenant fleet, tenancy layer off).
    pub tenants: u32,
    /// Quality brownout armed.
    pub brownout: bool,
    /// Phi-accrual detector armed.
    pub detector: bool,
    /// Streaming decode sessions armed (sticky policy; the trace is
    /// session-tagged turn-for-turn).
    pub sessions: bool,
    /// Expected span of the arrival process, seconds; fault windows were
    /// placed relative to this.
    pub horizon_s: f64,
    /// The fault composition.
    pub plan: FaultPlan,
}

impl ChaosScenario {
    /// Concurrent session lanes a session-armed trace interleaves over
    /// (request id modulo this is the session id).
    pub const SESSION_LANES: u64 = 4;

    /// Expands `seed` into a scenario within `params`' bounds. The plan
    /// is valid by construction — explicit crash windows land in the
    /// first half of the horizon and zone outages in the second, so the
    /// expanded per-replica outage windows can never overlap — and a
    /// trailing `validate` enforces it.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`ChaosParams::validate`] (the CLI
    /// rejects these before sampling).
    pub fn sample(seed: u64, params: &ChaosParams) -> Self {
        params.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut rng = DetRng::seeded(seed ^ 0xC7A0_5EED_0DD5_EED5);
        let replicas = 2 + (rng.next_u64() as usize) % (params.replicas_max - 1);
        let requests = 16 + (rng.next_u64() as usize) % (params.requests_max - 15);
        let routing = match rng.next_u64() % 3 {
            0 => RoutingPolicy::RoundRobin,
            1 => RoutingPolicy::JoinShortestQueue,
            _ => RoutingPolicy::LeastOutstandingWork,
        };
        let solo = solo_service_s();
        let load = 0.4 + rng.next_f64(); // per-replica offered load 0.4..1.4
        let rate_rps = load * replicas as f64 / solo;
        let horizon_s = requests as f64 / rate_rps;

        let mut plan = FaultPlan::none();

        // Explicit crash windows: first half of the horizon only, walked
        // forward per replica so they are sorted and disjoint.
        if params.crashes && rng.next_f64() < 0.7 {
            for replica in 0..replicas {
                if rng.next_f64() < 0.5 {
                    continue;
                }
                let mut t = 0.05 * horizon_s;
                for _ in 0..1 + rng.next_u64() % 2 {
                    let down = t + rng.next_f64() * 0.1 * horizon_s;
                    let up = down + (0.02 + 0.08 * rng.next_f64()) * horizon_s;
                    if up >= 0.45 * horizon_s {
                        break;
                    }
                    plan.crashes.push(CrashWindow { replica, down_s: down, up_s: Some(up) });
                    t = up;
                }
            }
        }

        // Correlated zone outages: second half of the horizon, walked
        // forward in time so no two outages overlap even on one zone.
        let zone_count = params.zones_max.min(replicas);
        if params.zone_outages && zone_count >= 2 && rng.next_f64() < 0.6 {
            plan.zones = (0..replicas).map(|r| r % zone_count).collect();
            let mut t = 0.5 * horizon_s;
            for _ in 0..1 + rng.next_u64() % 2 {
                let down = t + rng.next_f64() * 0.1 * horizon_s;
                let up = down + (0.02 + 0.08 * rng.next_f64()) * horizon_s;
                if up >= 0.95 * horizon_s {
                    break;
                }
                let zone = (rng.next_u64() as usize) % zone_count;
                plan.zone_outages.push(ZoneOutage { zone, down_s: down, up_s: Some(up) });
                t = up;
            }
        }

        // Partitions strand in-flight work anywhere in the horizon; the
        // validator requires them finite, so liveness always recovers.
        if params.partitions && rng.next_f64() < 0.6 {
            for _ in 0..1 + rng.next_u64() % 2 {
                let replica = (rng.next_u64() as usize) % replicas;
                let from = (0.05 + 0.8 * rng.next_f64()) * horizon_s;
                // Long enough that a phi-accrual detector can notice the
                // silence mid-window, not only after the heal.
                let until = from + (0.05 + 0.3 * rng.next_f64()) * horizon_s;
                plan.partitions.push(Partition { replica, from_s: from, until_s: until });
            }
        }

        // Gray failures: stochastic slowdown, never a crash transition.
        if params.gray && rng.next_f64() < 0.6 {
            for _ in 0..1 + rng.next_u64() % 2 {
                let replica = (rng.next_u64() as usize) % replicas;
                let from = (0.05 + 0.6 * rng.next_f64()) * horizon_s;
                let until = from + (0.05 + 0.25 * rng.next_f64()) * horizon_s;
                // Draw even when overridden so the seed's remaining
                // stream (and thus the rest of the scenario) is stable
                // across severity settings.
                let sampled = 0.5 + 7.5 * rng.next_f64();
                plan.gray.push(GrayFailure {
                    replica,
                    from_s: from,
                    until_s: until,
                    severity: params.gray_severity.unwrap_or(sampled),
                    seed: rng.next_u64(),
                });
            }
        }

        if params.slowdowns && rng.next_f64() < 0.5 {
            let replica = (rng.next_u64() as usize) % replicas;
            let from = (0.05 + 0.6 * rng.next_f64()) * horizon_s;
            let until = from + (0.05 + 0.2 * rng.next_f64()) * horizon_s;
            let factor = 1.5 + 3.0 * rng.next_f64();
            plan.slowdowns.push(Slowdown { replica, from_s: from, until_s: until, factor });
        }

        if params.link_stalls && rng.next_f64() < 0.4 {
            let replica = (rng.next_u64() as usize) % replicas;
            let from = (0.05 + 0.6 * rng.next_f64()) * horizon_s;
            let until = from + (0.05 + 0.2 * rng.next_f64()) * horizon_s;
            let factor = 2.0 + 8.0 * rng.next_f64();
            plan.link_stalls.push(LinkStall { replica, from_s: from, until_s: until, factor });
        }

        let tenants = if params.tenancy.resolve(rng.next_f64() < 0.5) { 2 } else { 0 };
        let brownout = params.brownout.resolve(rng.next_f64() < 0.4);
        let detector = params.detector.resolve(rng.next_f64() < 0.5);
        // Drawn last so older seeds keep their pre-session draws intact.
        let sessions = params.sessions.resolve(rng.next_f64() < 0.4);

        let scenario = Self {
            seed,
            replicas,
            requests,
            rate_rps,
            routing,
            tenants,
            brownout,
            detector,
            sessions,
            horizon_s,
            plan,
        };
        scenario.plan.validate(scenario.replicas);
        scenario
    }

    /// The scenario's request trace: a seeded Poisson process, stamped
    /// round-robin with tenant ids when the tenancy layer is armed and
    /// with session turns when sessions are. Regenerating with a smaller
    /// `requests` yields a prefix (the arrival draws are sequential and
    /// the session stamping is a pure function of the request id), which
    /// is what lets the shrinker truncate the trace without perturbing
    /// surviving arrivals.
    pub fn trace(&self) -> Vec<ServeRequest> {
        let spec = load_spec();
        poisson_requests(&spec, self.requests, self.rate_rps, self.seed ^ 0xA5A5)
            .into_iter()
            .map(|r| {
                let tenant = if self.tenants > 0 { (r.id % self.tenants as u64) as u32 } else { 0 };
                let r = r.with_tenant(tenant);
                if self.sessions {
                    let turn = self.session_turn(r.id);
                    r.with_session(turn)
                } else {
                    r
                }
            })
            .collect()
    }

    /// The session turn request `id` carries when sessions are armed: a
    /// pure hash of (scenario seed, id), so truncating the trace leaves
    /// every surviving turn untouched. Ids interleave over
    /// [`Self::SESSION_LANES`] concurrent sessions; arrival order within
    /// a session is turn order because arrivals are id-sorted.
    fn session_turn(&self, id: u64) -> SessionTurn {
        let mut h = (id ^ self.seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        let decode_tokens = 16 + (h % 48) as u32;
        SessionTurn {
            session: id % Self::SESSION_LANES,
            turn: (id / Self::SESSION_LANES) as u32,
            decode_tokens,
            reclusters: cta_sim::reclusters_for(decode_tokens as u64, 0.02, 0.5) as u32,
            // An occasional early release exercises the residency-drop
            // path; the next lane occupant re-registers at its turn.
            last: h.is_multiple_of(8),
        }
    }

    /// The fleet configuration this scenario runs. Sharded defaults
    /// (bounded queues, batching up to 4) plus the sampled routing
    /// policy, fault plan, and feature switches.
    pub fn fleet_config(&self) -> FleetConfig {
        let mut b = FleetConfig::builder(SystemConfig::paper())
            .replicas(self.replicas)
            .routing(self.routing)
            .admission(AdmissionPolicy::bounded(64))
            .batch(BatchPolicy::up_to(4))
            .faults(self.plan.clone());
        if self.tenants > 0 {
            b = b.tenancy(TenancyConfig::equal_weight(self.tenants, SchedulerPolicy::Drr));
        }
        if self.brownout {
            let mut overload = OverloadControl::off();
            overload.brownout = Some(BrownoutConfig::standard());
            b = b.overload(overload);
        }
        if self.detector {
            // Probation scaled to the horizon so quarantined replicas
            // see probe traffic well before the trace drains, and a
            // short window so a gray stretch dominates the rolling mean
            // within a few completions instead of being diluted by the
            // healthy past (chaos traces are only tens of requests).
            let mut policy = DetectorPolicy::standard();
            policy.probation_s = (0.05 * self.horizon_s).max(1e-3);
            policy.window = 8;
            policy.min_samples = 3;
            // Phi 2 ≈ silence past 4.6x the mean completion interval:
            // jumpier than the production default, which is the point —
            // chaos wants the quarantine/probation machinery exercised,
            // and the false-positive column to carry signal.
            policy.phi_threshold = 2.0;
            // Likewise for the slowness signal: chaos fleets run at
            // moderate load where healthy completion intervals are
            // arrival-dominated, so a grayed replica's service-dominated
            // interval plateaus near 2-3x the fleet mean long before the
            // production 4x trigger would notice.
            policy.gray_ratio = Some(2.5);
            b = b.detector(policy);
        }
        if self.sessions {
            b = b.sessions(SessionPolicy::sticky());
        }
        b.build().expect("sampled scenarios validate their plans")
    }

    /// Total fault events in the plan (windows across every class) —
    /// the size the shrinker minimizes.
    pub fn plan_events(&self) -> usize {
        self.plan.crashes.len()
            + self.plan.zone_outages.len()
            + self.plan.partitions.len()
            + self.plan.gray.len()
            + self.plan.slowdowns.len()
            + self.plan.link_stalls.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let params = ChaosParams::default();
        for seed in 0..32 {
            assert_eq!(ChaosScenario::sample(seed, &params), ChaosScenario::sample(seed, &params));
        }
    }

    #[test]
    fn sampled_plans_validate_and_vary() {
        let params = ChaosParams::default();
        let mut with_faults = 0;
        for seed in 0..64 {
            let sc = ChaosScenario::sample(seed, &params);
            sc.plan.validate(sc.replicas); // construction guarantee
            assert!(sc.replicas >= 2 && sc.replicas <= params.replicas_max);
            assert!(sc.requests >= 16 && sc.requests <= params.requests_max);
            if sc.plan_events() > 0 {
                with_faults += 1;
            }
        }
        assert!(with_faults > 32, "most seeds should draw faults: {with_faults}/64");
    }

    #[test]
    fn trace_truncation_is_a_prefix() {
        let sc = ChaosScenario::sample(11, &ChaosParams::default());
        let full = sc.trace();
        let mut short = sc.clone();
        short.requests = sc.requests / 2;
        assert_eq!(short.trace()[..], full[..short.requests]);
    }

    #[test]
    fn toggles_force_features() {
        let params = ChaosParams {
            tenancy: Toggle::On,
            brownout: Toggle::Off,
            detector: Toggle::On,
            ..ChaosParams::default()
        };
        for seed in 0..8 {
            let sc = ChaosScenario::sample(seed, &params);
            assert_eq!(sc.tenants, 2);
            assert!(!sc.brownout);
            assert!(sc.detector);
        }
    }
}
