//! The fleet engine: five stages, the event handlers that run them, and
//! the driver that orders the events.
//!
//! Each stage owns its state and the hooks that change it: [`FrontDoor`]
//! (tenancy fair queue, quotas, autoscaler), [`Router`] (policy cursor,
//! breakers, detector), [`Overload`] (brownout, hedges, latency window),
//! [`SessionTable`] (residency, lost sessions, re-prefills) and [`Fleet`]
//! (replicas, system, cost model). An optional stage is `None` when its
//! mechanism is off, so its hooks never run and the fleet without it
//! executes exactly the operations it did before the stage existed
//! (pinned bitwise by the goldens). Each handler of [`EngineState`] is a
//! short pipeline of stage calls around one [`shed`](EngineState::shed)
//! path, one [`place`](EngineState::place) path and one sorted timer
//! insert.
//!
//! Four of the five event sources are kept in order: the fault timeline
//! and the arrival trace are walked by index, and the retry backoffs and
//! hedge timers sit in vectors sorted by time. The earliest replica step
//! comes from a tournament tree over the replicas' next step times,
//! updated only for the replicas a handler touched. Picking the next
//! event is then a five-way comparison: the sources are the queue.
//!
//! The reference scan behind [`crate::reference`] runs the same cascade
//! but finds the earliest step by scanning every replica. Both drivers
//! invoke the *same* handlers, so every floating-point operation happens
//! in the same order and the reports are bitwise identical. At one
//! instant the order is fault < arrival < retry < hedge < step; within a
//! source the tie is the fault timeline index / arrival index / request
//! id / request id / replica index.

use cta_sim::CtaSystem;
use cta_telemetry::{Module, SpanClass, TraceSink, TrackId};
use cta_tenancy::{
    Autoscaler, Backpressure, FairQueue, ScaleEvent, TenancyConfig, TenancyStats, TenantOutcome,
    TokenBucket,
};

use crate::cost::LayerTimes;
use crate::detector::DetectorBank;
use crate::fault::{FaultEvent, FaultKind};
use crate::fx::{FxHashMap, FxHashSet};
use crate::overload::{BreakerEvent, BreakerState, CircuitBreaker, Transition};
use crate::replica::{Completion, Pending, Replica};
use crate::runtime::{FleetConfig, FleetReport, SessionPolicy, Shed};
use crate::step_tree::StepTree;
use crate::{
    BrownoutController, BrownoutLadder, CostModel, FleetMetrics, HedgePolicy, RoutingPolicy,
    ServeRequest, SessionStats, SessionTurn, ShedReason,
};

/// The event the cascade picks next, one variant per source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Next {
    Fault,
    Arrival,
    Retry,
    Hedge,
    /// A layer step of this replica.
    Step(usize),
}

/// A crash-evicted request waiting out its backoff before re-entering
/// routing.
#[derive(Debug, Clone)]
struct RetryEntry<'a> {
    /// When the requeue fires, seconds.
    retry_s: f64,
    /// Requeue attempts consumed (this entry is attempt number `attempt`).
    attempt: u32,
    /// Layer to resume from.
    cursor: usize,
    request: &'a ServeRequest,
    /// Per-layer prices computed at admission.
    layer_s: LayerTimes,
}

/// A scheduled hedge check: if the request is still in flight when the
/// timer fires, a copy is dispatched to a second replica.
#[derive(Debug, Clone)]
struct HedgeEntry<'a> {
    /// When the check fires, seconds.
    fire_s: f64,
    /// The request (the copy restarts from layer 0).
    request: &'a ServeRequest,
    /// Solo service estimate cached at admission.
    est_service_s: f64,
    /// Per-layer prices computed at admission.
    layer_s: LayerTimes,
}

/// Inserts a timer keeping `(time asc, request id asc)` order; `key`
/// reads an entry's `(time, id)`.
fn insert_timer<T>(timers: &mut Vec<T>, entry: T, key: fn(&T) -> (f64, u64)) {
    let (t, id) = key(&entry);
    let pos = timers
        .binary_search_by(|probe| {
            let (probe_t, probe_id) = key(probe);
            probe_t.partial_cmp(&t).expect("finite timer instants").then(probe_id.cmp(&id))
        })
        .unwrap_or_else(|e| e);
    timers.insert(pos, entry);
}

/// What became of one dispatch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    Enqueued,
    Shed,
    /// Hold backpressure: the target queue is full (or the fleet is
    /// down); the request goes back to the head of the fair queue.
    Blocked,
}

/// The tenancy stage in front of admission: the fair queue, the
/// per-tenant quota buckets and the autoscaler.
struct FrontDoor<'a> {
    tenants: u32,
    queue: FairQueue<&'a ServeRequest>,
    buckets: Option<Vec<TokenBucket>>,
    scaler: Option<Autoscaler>,
    /// Hold backpressure: a full replica queue parks the request in the
    /// fair queue instead of shedding it.
    hold: bool,
}

impl<'a> FrontDoor<'a> {
    fn new(t: &TenancyConfig, replicas: usize) -> Self {
        Self {
            tenants: t.tenants,
            queue: FairQueue::new(t.scheduler, &t.weights),
            buckets: t.quota.map(|q| (0..t.tenants).map(|_| TokenBucket::new(q)).collect()),
            scaler: t.autoscale.map(|p| Autoscaler::new(p, replicas)),
            hold: t.backpressure == Backpressure::Hold,
        }
    }

    /// Feeds the autoscaler one queued-work-per-active-replica sample
    /// (front-end backlog plus replica queues), taken *before* the
    /// arrival is admitted: an idle fleet then reads a zero signal, where
    /// the arrival itself would pin it at `1/active` and scale-down could
    /// never trigger.
    fn autoscale<S: TraceSink>(&mut self, replicas: &[Replica<'_>], now: f64, sink: &mut S) {
        let backlog = self.queue.len();
        let Some(scaler) = self.scaler.as_mut() else { return };
        let queued: usize = replicas.iter().map(|r| r.queue_depth()).sum();
        let signal = (backlog + queued) as f64 / scaler.active() as f64;
        if let Some(ev) = scaler.observe(now, signal) {
            if S::ENABLED {
                let track = TrackId::new(0, Module::Tenancy);
                let (name, to) = match ev {
                    ScaleEvent::Up { to, .. } => ("scale-up", to),
                    ScaleEvent::Down { to, .. } => ("scale-down", to),
                };
                sink.instant(track, name, now);
                sink.counter(track, "active_replicas", now, to as f64);
            }
        }
    }

    /// The quota gate: queues `request` for its tenant, or returns
    /// `false` when the tenant's bucket is empty (the caller sheds it).
    fn admit<S: TraceSink>(&mut self, request: &'a ServeRequest, now: f64, sink: &mut S) -> bool {
        let tenant = request.tenant;
        if let Some(buckets) = self.buckets.as_mut() {
            if !buckets[tenant as usize].try_take(now, 1.0) {
                if S::ENABLED {
                    sink.instant(TrackId::new(tenant, Module::Tenancy), "quota-shed", now);
                }
                return false;
            }
        }
        self.queue.push(tenant, request);
        true
    }

    /// Puts a blocked request back at the head of its tenant's queue. The
    /// backlog counter records *contention* — held work — so a
    /// never-blocking configuration's trace stays byte-identical to the
    /// tenancy-off fleet's.
    fn park<S: TraceSink>(
        &mut self,
        tenant: u32,
        request: &'a ServeRequest,
        now: f64,
        sink: &mut S,
    ) {
        self.queue.unpop(tenant, request);
        if S::ENABLED {
            let backlog = self.queue.backlog(tenant) as f64;
            sink.counter(TrackId::new(tenant, Module::Tenancy), "tenant_backlog", now, backlog);
        }
    }

    /// Per-tenant outcomes of the run, with the autoscaler's counts (a
    /// fleet without one reports every replica active).
    fn stats(
        &self,
        fleet_size: usize,
        requests: &[ServeRequest],
        completions: &[Completion],
        shed: &[Shed],
        makespan_s: f64,
    ) -> TenancyStats {
        let mut outcomes: Vec<TenantOutcome> = (0..self.tenants).map(TenantOutcome::new).collect();
        for r in requests {
            outcomes[r.tenant as usize].offered += 1;
        }
        for s in shed {
            let o = &mut outcomes[s.tenant as usize];
            o.shed += 1;
            o.quota_shed += usize::from(s.reason == ShedReason::QuotaExceeded);
        }
        for c in completions {
            let o = &mut outcomes[c.tenant as usize];
            o.latencies_s.push(c.latency_s());
            o.good += usize::from(c.deadline_met.unwrap_or(true));
        }
        let mut stats = TenancyStats::from_outcomes(&outcomes, makespan_s);
        let scaler = self.scaler.as_ref();
        stats.scale_ups = scaler.map_or(0, |s| s.scale_ups);
        stats.scale_downs = scaler.map_or(0, |s| s.scale_downs);
        stats.final_active = scaler.map_or(fleet_size, |s| s.active());
        stats
    }
}

/// The routing stage: the policy and its round-robin cursor, the
/// per-replica circuit breakers and the failure detector.
struct Router {
    policy: RoutingPolicy,
    cursor: usize,
    breakers: Option<Vec<CircuitBreaker>>,
    /// `None` = routing trusts `up` alone.
    detector: Option<DetectorBank>,
}

impl Router {
    fn new(cfg: &FleetConfig) -> Self {
        Self {
            policy: cfg.routing,
            cursor: 0,
            breakers: cfg
                .overload
                .breaker
                .map(|p| (0..cfg.replicas).map(|_| CircuitBreaker::new(p)).collect()),
            detector: cfg.detector.map(|p| DetectorBank::new(p, cfg.replicas)),
        }
    }

    /// Routable-replica mask: breaker state (open→half-open transitions
    /// settled as of `now`) AND the autoscaler's enabled-and-warmed set
    /// AND the detector's quarantine state. `None` when all three are off,
    /// so the disabled path stays bitwise.
    fn mask<S: TraceSink>(
        &mut self,
        replicas: &[Replica<'_>],
        scaler: Option<&Autoscaler>,
        now: f64,
        sink: &mut S,
    ) -> Option<Vec<bool>> {
        let breaker: Option<Vec<bool>> = self.breakers.as_mut().map(|bs| {
            let mut mask = Vec::with_capacity(bs.len());
            for (i, b) in bs.iter_mut().enumerate() {
                if let Some(BreakerEvent::HalfOpened { since_s, at_s }) = b.tick(now) {
                    if S::ENABLED {
                        let track = TrackId::new(i as u32, Module::Breaker);
                        sink.span(track, "open", since_s, at_s, SpanClass::Control, true);
                    }
                }
                mask.push(b.routable());
            }
            mask
        });
        let det = self.detector.as_mut().map(|d| d.mask(replicas, now, sink));
        match (&breaker, scaler, &det) {
            (None, None, None) => None,
            (_, scaler, _) => Some(
                (0..replicas.len())
                    .map(|i| {
                        breaker.as_ref().is_none_or(|m| m[i])
                            && scaler.is_none_or(|s| s.routable(i, now))
                            && det.as_ref().is_none_or(|m| m[i])
                    })
                    .collect(),
            ),
        }
    }

    /// The policy's pick among the up replicas `mask` allows.
    fn choose(
        &mut self,
        replicas: &mut [Replica<'_>],
        now: f64,
        mask: Option<&[bool]>,
    ) -> Option<usize> {
        self.policy.choose(replicas, now, &mut self.cursor, mask)
    }

    /// Work was placed on `target` (a half-open breaker's probe).
    fn on_dispatch(&mut self, target: usize) {
        if let Some(bs) = self.breakers.as_mut() {
            bs[target].on_dispatch();
        }
    }

    /// A crash is breaker evidence of failure.
    fn on_crash<S: TraceSink>(&mut self, replica: usize, t: f64, sink: &mut S) {
        let Some(bs) = self.breakers.as_mut() else { return };
        let prev = bs[replica].state();
        if let Some(BreakerEvent::Opened { at_s }) = bs[replica].record_failure(t) {
            if S::ENABLED {
                let track = TrackId::new(replica as u32, Module::Breaker);
                // A failed probe closes its half-open interval.
                if let BreakerState::HalfOpen { since_s, .. } = prev {
                    sink.span(track, "half-open", since_s, at_s, SpanClass::Control, true);
                }
                sink.instant(track, "breaker-open", at_s);
            }
        }
    }

    /// A completion is breaker evidence of health (a successful half-open
    /// probe closes the breaker).
    fn on_success<S: TraceSink>(&mut self, c: &Completion, sink: &mut S) {
        let Some(bs) = self.breakers.as_mut() else { return };
        if let Some(BreakerEvent::Closed { since_s, at_s }) =
            bs[c.replica].record_success(c.finish_s)
        {
            if S::ENABLED {
                let track = TrackId::new(c.replica as u32, Module::Breaker);
                sink.span(track, "half-open", since_s, at_s, SpanClass::Control, false);
            }
        }
    }

    /// Completions are the detector's only sensory input: a real load
    /// balancer sees responses, not replica internals.
    fn observe(&mut self, completions: &[Completion]) {
        if let Some(d) = self.detector.as_mut() {
            for c in completions {
                d.observe(c.replica, c.finish_s);
            }
        }
    }

    /// Closes quarantines and breaker intervals still open at the end of
    /// the run: each extends to the makespan.
    fn close<S: TraceSink>(&self, makespan_s: f64, sink: &mut S) {
        if let Some(d) = self.detector.as_ref() {
            d.close_spans(makespan_s, sink);
        }
        if !S::ENABLED {
            return;
        }
        for (i, b) in self.breakers.iter().flatten().enumerate() {
            let (name, since_s) = match b.state() {
                BreakerState::Open { since_s, .. } => ("open", since_s),
                BreakerState::HalfOpen { since_s, .. } => ("half-open", since_s),
                BreakerState::Closed { .. } => continue,
            };
            let track = TrackId::new(i as u32, Module::Breaker);
            sink.span(track, name, since_s, makespan_s.max(since_s), SpanClass::Control, true);
        }
    }
}

/// The overload-control stage: the brownout controllers, the hedge
/// timers and live hedges, the completion-latency window, and the
/// counters they feed. The circuit breakers belong to [`Router`].
#[derive(Default)]
struct Overload<'a> {
    /// The brownout ladder and one controller per replica.
    brownout: Option<(&'a BrownoutLadder, Vec<BrownoutController>)>,
    hedge: Option<HedgePolicy>,
    hedges: Vec<HedgeEntry<'a>>,
    /// Hedged requests with two live copies: id → primary replica at
    /// hedge-dispatch time (lookup only, never iterated — determinism).
    hedged_live: FxHashMap<u64, usize>,
    lat_window: Vec<f64>,
    lat_next: usize,
    hedged: usize,
    hedge_wins: usize,
    hedge_cancelled: usize,
    transitions_total: usize,
}

impl<'a> Overload<'a> {
    /// The stage for `cfg`, or `None` with overload control off.
    fn new(cfg: &'a FleetConfig) -> Option<Self> {
        if cfg.overload.is_off() {
            return None;
        }
        let brownout = cfg.overload.brownout.as_ref().map(|b| {
            let ctrls = (0..cfg.replicas)
                .map(|_| BrownoutController::new(b.policy, b.ladder.max_level()))
                .collect();
            (&b.ladder, ctrls)
        });
        Some(Self { brownout, hedge: cfg.overload.hedge, ..Self::default() })
    }

    /// Closed-loop sensing: every arrival feeds each up replica's
    /// controller one availability-weighted depth sample, so survivors of
    /// a partial outage see proportionally inflated depth.
    fn sense_arrival<S: TraceSink>(&mut self, fleet: &mut Fleet<'_>, now: f64, sink: &mut S) {
        let Some((ladder, ctrls)) = self.brownout.as_mut() else { return };
        if fleet.up_count == 0 {
            return;
        }
        let up_frac = fleet.up_count as f64 / fleet.replicas.len() as f64;
        for (i, ctrl) in ctrls.iter_mut().enumerate() {
            if !fleet.replicas[i].up {
                continue;
            }
            let depth = fleet.replicas[i].queue_depth() as f64 / up_frac;
            if let Some(tr) = ctrl.observe_depth(depth) {
                apply_transition(fleet, ladder, i, tr, now, &mut self.transitions_total, sink);
            }
        }
    }

    /// Arms a hedge timer at the windowed-p99 delay for a deadline-bearing
    /// admission. Session turns never hedge: a copy on a second replica
    /// would fork the session's compression state.
    fn arm_hedge(
        &mut self,
        request: &'a ServeRequest,
        now: f64,
        est_service_s: f64,
        layer_s: LayerTimes,
    ) {
        let Some(hp) = &self.hedge else { return };
        if request.class.deadline_s.is_some() && request.session.is_none() {
            let fire_s = now + hp.delay_s(&self.lat_window);
            let entry = HedgeEntry { fire_s, request, est_service_s, layer_s };
            insert_timer(&mut self.hedges, entry, |h| (h.fire_s, h.request.id));
        }
    }

    /// Whether a crash orphan of request `id` is a hedge copy whose
    /// sibling is still live elsewhere; it is then dropped as a
    /// cancellation, since requeueing or shedding it would double-resolve
    /// the request.
    fn drops_orphan<S: TraceSink>(
        &mut self,
        id: u64,
        replicas: &[Replica<'_>],
        crashed: usize,
        t: f64,
        sink: &mut S,
    ) -> bool {
        if !(self.hedged_live.contains_key(&id) && replicas.iter().any(|r| r.holds_request(id))) {
            return false;
        }
        self.hedge_cancelled += 1;
        if S::ENABLED {
            sink.instant(TrackId::new(crashed as u32, Module::Hedge), "hedge-cancel", t);
        }
        true
    }

    /// Feeds one completion to the latency window, the breakers, the
    /// brownout controller and hedge cancellation.
    fn on_completion<S: TraceSink>(
        &mut self,
        c: &Completion,
        router: &mut Router,
        fleet: &mut Fleet<'_>,
        retries: &mut Vec<RetryEntry<'_>>,
        sink: &mut S,
    ) {
        // Hedge delay sensing: sliding window of completion latencies.
        if let Some(hp) = &self.hedge {
            let lat = c.latency_s();
            if self.lat_window.len() == hp.latency_window {
                self.lat_window[self.lat_next % hp.latency_window] = lat;
            } else {
                self.lat_window.push(lat);
            }
            self.lat_next = (self.lat_next + 1) % hp.latency_window;
        }
        router.on_success(c, sink);
        // Brownout evidence: the deadline outcome.
        if let Some((ladder, ctrls)) = self.brownout.as_mut() {
            if let Some(tr) = ctrls[c.replica].observe_completion(c.deadline_met == Some(false)) {
                let total = &mut self.transitions_total;
                apply_transition(fleet, ladder, c.replica, tr, c.finish_s, total, sink);
            }
        }
        // First outcome wins: cancel every losing copy (queued, active at
        // its layer boundary, or in a retry backoff), so exactly one
        // completion is reported per hedged id.
        let Some(primary) = self.hedged_live.remove(&c.id) else { return };
        for j in 0..fleet.replicas.len() {
            if j == c.replica {
                continue;
            }
            let n = fleet.replicas[j].cancel_request(c.id);
            if n > 0 {
                self.hedge_cancelled += n;
                fleet.touch(j);
                if S::ENABLED {
                    sink.instant(TrackId::new(j as u32, Module::Hedge), "hedge-cancel", c.finish_s);
                }
            }
        }
        let before_retry = retries.len();
        retries.retain(|r| r.request.id != c.id);
        self.hedge_cancelled += before_retry - retries.len();
        if c.replica != primary {
            self.hedge_wins += 1;
            if S::ENABLED {
                let track = TrackId::new(c.replica as u32, Module::Hedge);
                sink.instant(track, "hedge-win", c.finish_s);
            }
        }
    }
}

/// Applies a brownout transition to replica `i` and emits the level-change
/// marks plus the `accuracy_loss_pct` counter the aggregate report
/// integrates for quality-loss attribution.
fn apply_transition<S: TraceSink>(
    fleet: &mut Fleet<'_>,
    ladder: &BrownoutLadder,
    i: usize,
    tr: Transition,
    now: f64,
    transitions_total: &mut usize,
    sink: &mut S,
) {
    fleet.replicas[i].set_level(ladder, tr.to);
    *transitions_total += 1;
    if S::ENABLED {
        let track = TrackId::new(i as u32, Module::Brownout);
        sink.instant(track, if tr.to > tr.from { "level-up" } else { "level-down" }, now);
        sink.counter(track, "accuracy_loss_pct", now, ladder.level(tr.to).accuracy_loss_pct);
    }
}

/// The session stage: where each session's compression state lives, the
/// sessions lost to a shed turn, and the re-prefill and shed counters.
struct SessionTable {
    policy: SessionPolicy,
    /// Session id → replica holding its compression state. Lookup-only
    /// (never iterated), so hash order cannot reach a result.
    resident: FxHashMap<u64, usize>,
    /// Sessions with a shed turn: the state can never advance past the
    /// hole, so every later turn sheds [`ShedReason::SessionLost`].
    lost: FxHashSet<u64>,
    /// Re-prefill events charged to turns past the first (crash
    /// evictions and non-sticky replica moves).
    re_prefills: usize,
    /// Session turns shed, for conservation accounting.
    turns_shed: usize,
}

impl SessionTable {
    fn new(policy: SessionPolicy) -> Self {
        Self {
            policy,
            resident: FxHashMap::default(),
            lost: FxHashSet::default(),
            re_prefills: 0,
            turns_shed: 0,
        }
    }

    /// Whether `request` is a turn of a session that already lost one.
    fn is_lost(&self, request: &ServeRequest) -> bool {
        request.session.is_some_and(|turn| self.lost.contains(&turn.session))
    }

    /// Sticky routing: a resident session's turn goes back to the replica
    /// holding its state if routing could pick it (up, not masked out);
    /// otherwise the policy routes it and it pays the re-prefill.
    fn sticky_target(
        &self,
        request: &ServeRequest,
        replicas: &[Replica<'_>],
        mask: Option<&[bool]>,
    ) -> Option<usize> {
        if !self.policy.sticky {
            return None;
        }
        let holder = self.resident.get(&request.session?.session).copied()?;
        Some(holder).filter(|&i| replicas[i].up && mask.is_none_or(|m| m[i]))
    }

    /// Records that `turn`'s session state now lives on `target`. A move
    /// releases the old residency and, past the first turn, counts a
    /// re-prefill; with state accounting on, the new replica holds the
    /// re-prefill as occupancy.
    fn place(
        &mut self,
        turn: &SessionTurn,
        target: usize,
        re_prefill_s: f64,
        fleet: &mut Fleet<'_>,
    ) {
        let hold_s = if self.policy.account_state { re_prefill_s } else { 0.0 };
        let prev = self.resident.insert(turn.session, target);
        if prev == Some(target) {
            return;
        }
        if let Some(p) = prev {
            fleet.replicas[p].release_session(turn.session);
        }
        fleet.replicas[target].hold_session(turn.session, hold_s);
        if turn.turn > 0 {
            self.re_prefills += 1;
        }
    }

    /// Releases `session`'s resident state, wherever it lives.
    fn release(&mut self, session: u64, fleet: &mut Fleet<'_>) {
        if let Some(r) = self.resident.remove(&session) {
            fleet.replicas[r].release_session(session);
        }
    }

    /// Records a shed turn: the whole session is lost (its prefix state
    /// cannot advance past a hole in the turn sequence) and released.
    fn on_shed(&mut self, request: &ServeRequest, fleet: &mut Fleet<'_>) {
        let Some(turn) = &request.session else { return };
        self.turns_shed += 1;
        self.lost.insert(turn.session);
        self.release(turn.session, fleet);
    }

    /// A crash evicts every resident session's compression state: the
    /// next turn of each must re-prefill wherever it lands.
    fn on_crash(&mut self, replica: usize, fleet: &mut Fleet<'_>) {
        for (s, _) in fleet.replicas[replica].evict_sessions() {
            if self.resident.get(&s) == Some(&replica) {
                self.resident.remove(&s);
            }
        }
    }

    /// A session's final turn retiring releases the replica's resident
    /// compression state (and the occupancy hold that came with it).
    fn on_completions(&mut self, completions: &[Completion], fleet: &mut Fleet<'_>) {
        for turn in completions.iter().filter_map(|c| c.session).filter(|t| t.last) {
            self.release(turn.session, fleet);
        }
    }

    fn stats(&self, requests: &[ServeRequest], completions: &[Completion]) -> SessionStats {
        let ids: FxHashSet<u64> =
            requests.iter().filter_map(|r| r.session.map(|t| t.session)).collect();
        let itl = |c: &Completion| c.session.map(|t| c.latency_s() / t.decode_tokens as f64);
        let itls: Vec<f64> = completions.iter().filter_map(itl).collect();
        let (turns, lost) = (itls.len(), self.lost.len());
        SessionStats::new(ids.len(), turns, self.turns_shed, lost, self.re_prefills, &itls)
    }
}

/// The replica stage.
struct Fleet<'a> {
    replicas: Vec<Replica<'a>>,
    system: CtaSystem,
    cost: CostModel,
    /// Replicas currently up, so brownout sensing needs no fleet scan.
    up_count: usize,
    /// Replicas whose `next_step_time` may have changed, drained by the
    /// driver after every handler to update its step tree.
    touched: Vec<usize>,
}

impl Fleet<'_> {
    fn new(cfg: &FleetConfig) -> Self {
        let system = CtaSystem::new(cfg.system);
        Self {
            replicas: (0..cfg.replicas).map(|i| Replica::new(i, system.clone())).collect(),
            system,
            cost: CostModel::new(),
            up_count: cfg.replicas,
            touched: Vec::new(),
        }
    }

    /// Marks replica `i`'s next step time as possibly changed.
    fn touch(&mut self, i: usize) {
        self.touched.push(i);
    }

    /// Remaining work of a request resuming at layer `cursor`, charging
    /// the fresh weight upload a resume past layer 0 pays.
    fn resume_s(&self, layer_s: &LayerTimes, cursor: usize) -> f64 {
        layer_s.remaining_s(cursor) + if cursor > 0 { self.system.weight_upload_s() } else { 0.0 }
    }

    /// Closes the books on replicas still down at the end of the run:
    /// their open outage extends to the fleet makespan (or the crash
    /// instant if nothing completed after it).
    fn close_outages<S: TraceSink>(&mut self, makespan_s: f64, sink: &mut S) {
        for r in self.replicas.iter_mut().filter(|r| !r.up) {
            let end = makespan_s.max(r.down_since);
            r.down_s += end - r.down_since;
            if S::ENABLED {
                let track = TrackId::new(r.index as u32, Module::Fault);
                sink.span(track, "outage", r.down_since, end, SpanClass::Fault, true);
            }
        }
    }
}

/// All simulation state — the five stages, the event sources and the
/// outcomes — shared by the driver and the reference scan, which only
/// find the earliest replica step and hand it to the same cascade
/// ([`EngineState::next_event`]). Queued work borrows its request from
/// the caller's trace.
struct EngineState<'a> {
    cfg: &'a FleetConfig,
    requests: &'a [ServeRequest],
    next_arrival: usize,
    fault_events: Vec<FaultEvent>,
    next_fault: usize,
    retries: Vec<RetryEntry<'a>>,
    requeues_total: usize,
    completions: Vec<Completion>,
    shed: Vec<Shed>,
    /// Handler invocations so far (one per simulated event; equal across
    /// drivers, asserted by the equivalence tests).
    events_processed: u64,
    front: Option<FrontDoor<'a>>,
    router: Router,
    overload: Option<Overload<'a>>,
    sessions: Option<SessionTable>,
    fleet: Fleet<'a>,
}

impl<'a> EngineState<'a> {
    /// Validates the entry points' preconditions and builds the state.
    fn new(cfg: &'a FleetConfig, requests: &'a [ServeRequest]) -> Self {
        if let Err(e) = cfg.try_validate() {
            panic!("{e}");
        }
        assert!(!requests.is_empty(), "at least one request");
        assert!(
            requests.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
            "requests must be sorted by arrival time"
        );
        assert!(
            cfg.sessions.is_some() || requests.iter().all(|r| r.session.is_none()),
            "session-tagged requests require a session policy (FleetConfig::sessions)"
        );
        assert!(
            cfg.tenancy.as_ref().is_none_or(|t| requests.iter().all(|r| r.tenant < t.tenants)),
            "request tenant id out of range for the tenancy configuration"
        );
        Self {
            cfg,
            requests,
            next_arrival: 0,
            fault_events: cfg.faults.timeline(),
            next_fault: 0,
            retries: Vec::new(),
            requeues_total: 0,
            completions: Vec::with_capacity(requests.len()),
            shed: Vec::new(),
            events_processed: 0,
            front: cfg.tenancy.as_ref().map(|t| FrontDoor::new(t, cfg.replicas)),
            router: Router::new(cfg),
            overload: Overload::new(cfg),
            sessions: cfg.sessions.map(SessionTable::new),
            fleet: Fleet::new(cfg),
        }
    }

    /// Sheds `request` after `retries` requeues: the one place a [`Shed`]
    /// is built. A session turn's lost replica is a lost session.
    fn shed(&mut self, request: &ServeRequest, reason: ShedReason, retries: u32) {
        let reason = match reason {
            ShedReason::ReplicaLost if request.session.is_some() => ShedReason::SessionLost,
            reason => reason,
        };
        self.shed.push(Shed {
            id: request.id,
            class: request.class.name,
            arrival_s: request.arrival_s,
            reason,
            retries,
            tenant: request.tenant,
        });
        if let Some(st) = self.sessions.as_mut() {
            st.on_shed(request, &mut self.fleet);
        }
    }

    /// Places `pending` on replica `target`, the one enqueue path for
    /// dispatched, requeued and hedged work: session residency, touch,
    /// breaker probe.
    fn place<S: TraceSink>(&mut self, target: usize, pending: Pending<'a>, now: f64, sink: &mut S) {
        let (session, re_prefill_s) = (pending.request.session, pending.re_prefill_s);
        self.fleet.replicas[target].enqueue(pending);
        if let (Some(st), Some(turn)) = (self.sessions.as_mut(), &session) {
            st.place(turn, target, re_prefill_s, &mut self.fleet);
            if S::ENABLED && re_prefill_s > 0.0 && turn.turn > 0 {
                let track = TrackId::new(target as u32, Module::Runtime);
                sink.instant(track, "session-re-prefill", now);
            }
        }
        self.fleet.touch(target);
        self.router.on_dispatch(target);
    }

    /// Schedules a requeue and counts it on `track` at `t`.
    fn schedule_retry<S: TraceSink>(
        &mut self,
        entry: RetryEntry<'a>,
        track: TrackId,
        t: f64,
        sink: &mut S,
    ) {
        self.requeues_total += 1;
        if S::ENABLED {
            sink.counter(track, "retries", t, self.requeues_total as f64);
        }
        insert_timer(&mut self.retries, entry, |r| (r.retry_s, r.request.id));
    }

    /// [`Router::mask`] as of `now`.
    fn routable_mask<S: TraceSink>(&mut self, now: f64, sink: &mut S) -> Option<Vec<bool>> {
        let scaler = self.front.as_ref().and_then(|f| f.scaler.as_ref());
        self.router.mask(&self.fleet.replicas, scaler, now, sink)
    }

    /// Processes `fault_events[next_fault]`: a replica crash (orphaning
    /// its queue into retries or sheds), a recovery, or a host-link
    /// partition transition (stranding / resuming work in place).
    fn handle_fault<S: TraceSink>(&mut self, sink: &mut S) {
        self.events_processed += 1;
        let ev = self.fault_events[self.next_fault];
        self.next_fault += 1;
        self.fleet.touch(ev.replica);
        let track = TrackId::new(ev.replica as u32, Module::Fault);
        let replica = &mut self.fleet.replicas[ev.replica];
        match ev.kind {
            FaultKind::PartitionStart => {
                replica.partition_start(ev.t_s);
                if S::ENABLED {
                    sink.instant(track, "partition-start", ev.t_s);
                }
            }
            FaultKind::PartitionEnd => {
                let since = replica.partition_since;
                replica.partition_heal(ev.t_s);
                if S::ENABLED {
                    // An async pair keyed by replica: a partition may
                    // overlap a crash window, whose `outage` span shares
                    // this track and must stay ordered.
                    sink.async_span(track, "partition", ev.replica as u64, since, ev.t_s);
                    sink.instant(track, "partition-heal", ev.t_s);
                }
            }
            FaultKind::Up => {
                let since = replica.down_since;
                if !replica.up {
                    self.fleet.up_count += 1;
                }
                replica.recover(ev.t_s);
                if S::ENABLED {
                    sink.span(track, "outage", since, ev.t_s, SpanClass::Fault, true);
                    sink.instant(track, "replica-up", ev.t_s);
                }
                // A recovery opens routing capacity: held tenancy work can
                // move now rather than waiting for the next arrival.
                self.drain_front_door(ev.t_s, sink);
            }
            FaultKind::Down => {
                if replica.up {
                    self.fleet.up_count -= 1;
                }
                let orphans = replica.crash(ev.t_s);
                if S::ENABLED {
                    sink.instant(track, "replica-down", ev.t_s);
                }
                if let Some(st) = self.sessions.as_mut() {
                    st.on_crash(ev.replica, &mut self.fleet);
                }
                self.router.on_crash(ev.replica, ev.t_s, sink);
                for p in orphans {
                    let (id, replicas) = (p.request.id, &self.fleet.replicas);
                    let dropped = self.overload.as_mut().is_some_and(|o| {
                        o.drops_orphan(id, replicas, ev.replica, ev.t_s, &mut *sink)
                    });
                    if !dropped {
                        self.requeue_orphan(p, ev.t_s, track, sink);
                    }
                }
            }
        }
    }

    /// Requeues a crash orphan after its backoff, or sheds it when the
    /// retry budget is spent or even an unobstructed resume would miss
    /// its deadline.
    fn requeue_orphan<S: TraceSink>(
        &mut self,
        p: Pending<'a>,
        t: f64,
        track: TrackId,
        sink: &mut S,
    ) {
        let cfg = self.cfg;
        let attempt = p.attempt + 1;
        if attempt > cfg.retry.max_attempts {
            self.shed(p.request, ShedReason::ReplicaLost, p.attempt);
            return;
        }
        // An orphaned session turn loses its layer progress with the
        // evicted compression state: it resumes from layer 0 (and
        // re-prefills wherever it is placed).
        let cursor = if p.request.session.is_some() { 0 } else { p.resume_cursor };
        let retry_s = t + cfg.retry.backoff(attempt);
        if cfg.admission.enforce_deadlines {
            if let Some(d) = p.request.class.deadline_s {
                let mut remaining = self.fleet.resume_s(&p.layer_s, cursor);
                if p.request.session.is_some() {
                    remaining += self.fleet.cost.session_prefill_s(&self.fleet.system, p.request);
                }
                if retry_s + remaining > p.request.arrival_s + d {
                    self.shed(p.request, ShedReason::ReplicaLost, p.attempt);
                    return;
                }
            }
        }
        if S::ENABLED {
            sink.instant(track, "requeue", t);
        }
        let entry = RetryEntry { retry_s, attempt, cursor, request: p.request, layer_s: p.layer_s };
        self.schedule_retry(entry, track, t, sink);
    }

    /// Routes and admission-checks one request at `now`, off the wire or
    /// out of the fair queue. With `hold` (tenancy Hold backpressure) a
    /// full target queue or an unroutable fleet blocks instead of
    /// shedding.
    fn dispatch_request<S: TraceSink>(
        &mut self,
        request: &'a ServeRequest,
        now: f64,
        hold: bool,
        sink: &mut S,
    ) -> Dispatch {
        // A session that already shed a turn can never complete: later
        // turns shed before touching any routing or admission state.
        if self.sessions.as_ref().is_some_and(|st| st.is_lost(request)) {
            if S::ENABLED {
                sink.instant(TrackId::new(0, Module::Runtime), "shed-session-lost", now);
            }
            self.shed(request, ShedReason::SessionLost, 0);
            return Dispatch::Shed;
        }
        let mask = self.routable_mask(now, sink);
        let sticky = self
            .sessions
            .as_ref()
            .and_then(|st| st.sticky_target(request, &self.fleet.replicas, mask.as_deref()));
        let chosen =
            sticky.or_else(|| self.router.choose(&mut self.fleet.replicas, now, mask.as_deref()));
        let Some(target) = chosen else {
            if hold {
                return Dispatch::Blocked;
            }
            if S::ENABLED {
                sink.instant(TrackId::new(0, Module::Fault), "shed-fleet-down", now);
            }
            self.shed(request, ShedReason::ReplicaLost, 0);
            return Dispatch::Shed;
        };
        // Price every layer once: the solo estimate is the table's first
        // entry, and the table rides the queued entry so routing never
        // re-prices this request.
        let layer_s = self.fleet.cost.layer_times_s(&self.fleet.system, request);
        let (est_service_s, re_prefill_s) =
            self.with_re_prefill(request, target, layer_s.remaining_s(0));
        let replica = &mut self.fleet.replicas[target];
        // A held request has aged in the fair queue; the guard keeps the
        // direct path (now == arrival) float-for-float untouched.
        let mut est_latency_s = replica.outstanding_s(now) + est_service_s;
        if now > request.arrival_s {
            est_latency_s += now - request.arrival_s;
        }
        let depth = replica.queue_depth();
        if let Err(reason) = self.cfg.admission.admit(&request.class, depth, est_latency_s) {
            if hold && reason == ShedReason::QueueFull {
                return Dispatch::Blocked;
            }
            if S::ENABLED {
                sink.instant(TrackId::new(target as u32, Module::Runtime), "shed", now);
            }
            self.shed(request, reason, 0);
            return Dispatch::Shed;
        }
        let pending =
            Pending { re_prefill_s, ..Pending::fresh(request, est_service_s, layer_s.clone()) };
        self.place(target, pending, now, sink);
        if let Some(o) = self.overload.as_mut() {
            o.arm_hedge(request, now, est_service_s, layer_s);
        }
        if S::ENABLED {
            let track = TrackId::new(target as u32, Module::Runtime);
            sink.instant(track, "enqueue", now);
            let depth = self.fleet.replicas[target].queue_depth() as f64;
            sink.counter(track, "queue_depth", now, depth);
        }
        Dispatch::Enqueued
    }

    /// Adds to `est_s` the re-prefill `request` owes on `target` (a turn
    /// landing off its resident replica, first turns included, rebuilds
    /// the prefix state); returns the estimate and the debt.
    fn with_re_prefill(&mut self, request: &ServeRequest, target: usize, est_s: f64) -> (f64, f64) {
        let owes = |st: &SessionTable| {
            request.session.is_some_and(|turn| st.resident.get(&turn.session) != Some(&target))
        };
        if !self.sessions.as_ref().is_some_and(owes) {
            return (est_s, 0.0);
        }
        let debt = self.fleet.cost.session_prefill_s(&self.fleet.system, request);
        (est_s + debt, debt)
    }

    /// Dispatches fair-queue requests in scheduler order until the queue
    /// empties or a dispatch blocks. A no-op without tenancy.
    fn drain_front_door<S: TraceSink>(&mut self, now: f64, sink: &mut S) {
        while let Some((tenant, request)) = self.front.as_mut().and_then(|f| f.queue.pop()) {
            let hold = self.front.as_ref().is_some_and(|f| f.hold);
            let outcome = self.dispatch_request(request, now, hold, sink);
            let front = self.front.as_mut().expect("the front door popped this request");
            match outcome {
                Dispatch::Enqueued => {}
                // A shed consumed no fleet time: refund the DRR quantum.
                Dispatch::Shed => front.queue.refund(tenant),
                Dispatch::Blocked => {
                    front.park(tenant, request, now, sink);
                    return;
                }
            }
        }
    }

    /// Processes `requests[next_arrival]`: through the front door when
    /// there is one, then the brownout depth observation.
    fn handle_arrival<S: TraceSink>(&mut self, sink: &mut S) {
        self.events_processed += 1;
        let requests = self.requests;
        let request = &requests[self.next_arrival];
        self.next_arrival += 1;
        let now = request.arrival_s;
        match self.front.as_mut() {
            Some(front) => {
                front.autoscale(&self.fleet.replicas, now, sink);
                if front.admit(request, now, sink) {
                    self.drain_front_door(now, sink);
                } else {
                    self.shed(request, ShedReason::QuotaExceeded, 0);
                }
            }
            None => {
                self.dispatch_request(request, now, false, sink);
            }
        }
        if let Some(o) = self.overload.as_mut() {
            o.sense_arrival(&mut self.fleet, now, sink);
        }
    }

    /// Processes `retries[0]`: route the requeue back into a queue, or
    /// consume another attempt and back off again.
    fn handle_retry<S: TraceSink>(&mut self, sink: &mut S) {
        self.events_processed += 1;
        let entry = self.retries.remove(0);
        let now = entry.retry_s;
        // A later turn may have lost the session during the backoff.
        if self.sessions.as_ref().is_some_and(|st| st.is_lost(entry.request)) {
            self.shed(entry.request, ShedReason::SessionLost, entry.attempt);
            return;
        }
        let mask = self.routable_mask(now, sink);
        let Some(target) = self.router.choose(&mut self.fleet.replicas, now, mask.as_deref())
        else {
            // Still no healthy replica: consume another attempt or give up.
            let attempt = entry.attempt + 1;
            if attempt > self.cfg.retry.max_attempts {
                self.shed(entry.request, ShedReason::ReplicaLost, entry.attempt);
            } else {
                let retry_s = now + self.cfg.retry.backoff(attempt);
                let entry = RetryEntry { retry_s, attempt, ..entry };
                self.schedule_retry(entry, TrackId::new(0, Module::Fault), now, sink);
            }
            return;
        };
        // Already admitted once, a requeue skips admission; its estimate
        // charges the resume's weight upload and any re-prefill.
        let resume_s = self.fleet.resume_s(&entry.layer_s, entry.cursor);
        let (est_service_s, re_prefill_s) = self.with_re_prefill(entry.request, target, resume_s);
        if S::ENABLED {
            sink.instant(TrackId::new(target as u32, Module::Runtime), "requeue-placed", now);
        }
        let (resume_cursor, attempt) = (entry.cursor, entry.attempt);
        let fresh = Pending::fresh(entry.request, est_service_s, entry.layer_s);
        self.place(target, Pending { resume_cursor, attempt, re_prefill_s, ..fresh }, now, sink);
    }

    /// Processes `hedges[0]`: if the request is still in flight, dispatch
    /// a copy to a second replica (excluding the slow primary's).
    fn handle_hedge<S: TraceSink>(&mut self, sink: &mut S) {
        self.events_processed += 1;
        let o = self.overload.as_mut().expect("hedge timers run under overload control");
        let entry = o.hedges.remove(0);
        let now = entry.fire_s;
        let id = entry.request.id;
        // No hedge unless still in flight (not completed, shed or backing
        // off).
        let Some(primary) = self.fleet.replicas.iter().position(|r| r.holds_request(id)) else {
            return;
        };
        let routable = self.routable_mask(now, sink);
        let mask: Vec<bool> = (0..self.fleet.replicas.len())
            .map(|i| i != primary && routable.as_ref().is_none_or(|m| m[i]))
            .collect();
        let Some(target) = self.router.choose(&mut self.fleet.replicas, now, Some(&mask)) else {
            return;
        };
        // The copy bypasses admission: it exists purely to cut the tail.
        let pending = Pending::fresh(entry.request, entry.est_service_s, entry.layer_s);
        self.place(target, pending, now, sink);
        let o = self.overload.as_mut().expect("hedge timers run under overload control");
        o.hedged += 1;
        o.hedged_live.insert(id, primary);
        if S::ENABLED {
            sink.instant(TrackId::new(target as u32, Module::Hedge), "hedge-dispatch", now);
        }
    }

    /// Executes replica `i`'s next layer step, feeds its completions to
    /// the stages, and drains held tenancy work into the freed space.
    fn handle_step<S: TraceSink>(&mut self, i: usize, sink: &mut S) {
        self.events_processed += 1;
        let cfg = self.cfg;
        let before = self.completions.len();
        let fleet = &mut self.fleet;
        let t0 = fleet.replicas[i].execute_step(
            &cfg.batch,
            &cfg.faults,
            &mut fleet.cost,
            &mut self.completions,
            sink,
        );
        fleet.touch(i);
        let done = &self.completions[before..];
        if let Some(o) = self.overload.as_mut() {
            for c in done {
                o.on_completion(c, &mut self.router, &mut self.fleet, &mut self.retries, sink);
            }
        }
        if let Some(st) = self.sessions.as_mut() {
            st.on_completions(done, &mut self.fleet);
        }
        self.router.observe(done);
        // `t0` is the step's start — the instant this event occupies on
        // the shared timeline.
        self.drain_front_door(t0, sink);
    }

    /// End-of-run bookkeeping: shed what the fair queue still holds,
    /// close open intervals, assemble metrics.
    fn finish<S: TraceSink>(mut self, sink: &mut S) -> FleetReport {
        // Work still parked (the fleet was down, or warming capacity never
        // arrived) sheds so conservation holds.
        while let Some((_, request)) = self.front.as_mut().and_then(|f| f.queue.pop()) {
            self.shed(request, ShedReason::ReplicaLost, 0);
        }
        let makespan_s = self.completions.iter().map(|c| c.finish_s).fold(0.0, f64::max);
        self.fleet.close_outages(makespan_s, sink);
        self.router.close(makespan_s, sink);

        let replicas = &self.fleet.replicas;
        let busy: Vec<f64> = replicas.iter().map(|r| r.busy_s).collect();
        let down: Vec<f64> = replicas.iter().map(|r| r.down_s).collect();
        let mut metrics = FleetMetrics::from_outcomes(
            self.requests.len(),
            &self.completions,
            &self.shed,
            &busy,
            &down,
        );
        if let Some(o) = &self.overload {
            metrics.overload.hedged = o.hedged;
            metrics.overload.hedge_wins = o.hedge_wins;
            metrics.overload.hedge_cancelled = o.hedge_cancelled;
            metrics.overload.brownout_transitions = o.transitions_total;
        }
        metrics.overload.per_replica_brownout_s = replicas.iter().map(|r| r.brownout_s).collect();
        metrics.overload.breaker_opens =
            self.router.breakers.iter().flatten().map(|b| b.opens).sum();
        let (requests, completions, shed) = (self.requests, &self.completions, &self.shed);
        metrics.tenancy = self
            .front
            .as_ref()
            .map(|f| f.stats(replicas.len(), requests, completions, shed, metrics.makespan_s));
        metrics.detector = self.router.detector.as_ref().map(|d| d.stats(&self.cfg.faults));
        metrics.sessions =
            self.sessions.as_ref().map(|st| st.stats(self.requests, &self.completions));
        FleetReport {
            metrics,
            completions: self.completions,
            shed: self.shed,
            events_processed: self.events_processed,
            event_queue_samples: Vec::new(),
        }
    }

    /// The next event and its instant, given the earliest replica step
    /// `(time, index)`: the minimum over the five sources by time, ties
    /// to the earlier source in the order fault < arrival < retry <
    /// hedge < step. `None` once every source is exhausted.
    fn next_event(&self, next_step: Option<(f64, usize)>) -> Option<(f64, Next)> {
        let sources = [
            self.fault_events.get(self.next_fault).map(|f| (f.t_s, Next::Fault)),
            self.requests.get(self.next_arrival).map(|r| (r.arrival_s, Next::Arrival)),
            self.retries.first().map(|r| (r.retry_s, Next::Retry)),
            self.hedges().first().map(|h| (h.fire_s, Next::Hedge)),
            next_step.map(|(t, i)| (t, Next::Step(i))),
        ];
        sources.into_iter().flatten().reduce(|best, c| if c.0 < best.0 { c } else { best })
    }

    /// The armed hedge timers (none with overload control off).
    fn hedges(&self) -> &[HedgeEntry<'a>] {
        self.overload.as_ref().map_or(&[], |o| &o.hedges)
    }

    /// Runs the handler of `next`.
    fn handle<S: TraceSink>(&mut self, next: Next, sink: &mut S) {
        match next {
            Next::Fault => self.handle_fault(sink),
            Next::Arrival => self.handle_arrival(sink),
            Next::Retry => self.handle_retry(sink),
            Next::Hedge => self.handle_hedge(sink),
            Next::Step(i) => self.handle_step(i, sink),
        }
    }

    /// Events not yet handled, excluding replica steps: the next fault
    /// and the next arrival (each 0 or 1), every retry backoff and every
    /// hedge timer.
    fn pending_source_events(&self) -> usize {
        usize::from(self.next_fault < self.fault_events.len())
            + usize::from(self.next_arrival < self.requests.len())
            + self.retries.len()
            + self.hedges().len()
    }
}

/// Runs the fleet on the step-tree driver.
pub(crate) fn run<S: TraceSink>(
    cfg: &FleetConfig,
    requests: &[ServeRequest],
    sink: &mut S,
) -> FleetReport {
    run_step_tree(EngineState::new(cfg, requests), sink)
}

/// Runs the fleet on the reference scan (the test oracle behind
/// [`crate::reference`]).
pub(crate) fn run_reference<S: TraceSink>(
    cfg: &FleetConfig,
    requests: &[ServeRequest],
    sink: &mut S,
) -> FleetReport {
    run_step_granular(EngineState::new(cfg, requests), sink)
}

/// Scans every replica: the earliest step `(time, index)`, ties to the
/// lowest index, and how many replicas have a step.
fn scan_steps(replicas: &[Replica<'_>]) -> (Option<(f64, usize)>, usize) {
    let mut earliest: Option<(f64, usize)> = None;
    let mut live = 0;
    for (i, r) in replicas.iter().enumerate() {
        if let Some(t) = r.next_step_time() {
            live += 1;
            if earliest.is_none_or(|(best, _)| t < best) {
                earliest = Some((t, i));
            }
        }
    }
    (earliest, live)
}

/// The reference scan: every iteration scans all replicas for the
/// earliest step, ties to the lowest index, and hands it to the cascade.
/// It keeps no step index, so it drops the touched list after each
/// handler and takes no occupancy samples.
fn run_step_granular<S: TraceSink>(mut state: EngineState<'_>, sink: &mut S) -> FleetReport {
    loop {
        let (next_step, _) = scan_steps(&state.fleet.replicas);
        let Some((_, next)) = state.next_event(next_step) else { break };
        state.handle(next, sink);
        state.fleet.touched.clear();
    }
    state.finish(sink)
}

/// Pending-event cadence of the occupancy samples (every 64th event).
const QUEUE_SAMPLE_EVERY: u64 = 64;

/// The fleet driver: the reference cascade with the earliest replica step
/// read from a [`StepTree`] instead of a scan. After every handler the
/// tree takes the next step time of each touched replica, O(log
/// replicas) apiece.
///
/// Handlers are shared with the reference scan, so the float stream —
/// and therefore the report and any emitted trace — is bitwise
/// identical. Every 64th event it samples the pending-event count: the
/// ordered sources' pending events plus the replicas with a scheduled
/// step.
fn run_step_tree<S: TraceSink>(mut state: EngineState<'_>, sink: &mut S) -> FleetReport {
    let mut tree = StepTree::new(state.fleet.replicas.len());
    let mut samples: Vec<(f64, usize)> = Vec::new();
    while let Some((t, next)) = state.next_event(tree.min()) {
        if let Next::Step(i) = next {
            debug_assert_eq!(
                state.fleet.replicas[i].next_step_time(),
                Some(t),
                "step tree out of sync with replica {i}"
            );
        }
        state.handle(next, sink);
        let fleet = &mut state.fleet;
        for &i in &fleet.touched {
            tree.set(i, fleet.replicas[i].next_step_time());
        }
        fleet.touched.clear();
        if state.events_processed % QUEUE_SAMPLE_EVERY == 1 {
            debug_assert_eq!(
                (tree.min(), tree.live()),
                scan_steps(&state.fleet.replicas),
                "step tree out of sync with the replicas"
            );
            samples.push((t, state.pending_source_events() + tree.live()));
        }
    }
    let mut report = state.finish(sink);
    report.event_queue_samples = samples;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrashWindow, FaultPlan, QosClass};
    use cta_sim::{AttentionTask, SystemConfig};

    fn requests(arrivals: &[f64]) -> Vec<ServeRequest> {
        let task = AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6);
        arrivals
            .iter()
            .enumerate()
            .map(|(id, &t)| ServeRequest::uniform(id as u64, t, QosClass::standard(), task, 2, 4))
            .collect()
    }

    /// A two-replica hedging fleet whose only fault is replica 1 crashing
    /// at `crash_s`.
    fn config(crash_s: f64) -> FleetConfig {
        let mut cfg = FleetConfig::sharded(SystemConfig::paper(), 2);
        cfg.faults = FaultPlan {
            crashes: vec![CrashWindow { replica: 1, down_s: crash_s, up_s: None }],
            ..FaultPlan::none()
        };
        cfg.overload.hedge = Some(HedgePolicy::standard());
        cfg
    }

    /// Arms one retry backoff and one hedge timer for `request` at `t`.
    fn arm<'a>(state: &mut EngineState<'a>, request: &'a ServeRequest, t: f64) {
        let layer_s = state.fleet.cost.layer_times_s(&state.fleet.system, request);
        let retry =
            RetryEntry { retry_s: t, attempt: 1, cursor: 0, request, layer_s: layer_s.clone() };
        insert_timer(&mut state.retries, retry, |r| (r.retry_s, r.request.id));
        let hedge = HedgeEntry { fire_s: t, request, est_service_s: 2e-3, layer_s };
        let overload = state.overload.as_mut().expect("hedging on");
        insert_timer(&mut overload.hedges, hedge, |h| (h.fire_s, h.request.id));
    }

    fn clear_hedges(state: &mut EngineState<'_>) {
        state.overload.as_mut().expect("hedging on").hedges.clear();
    }

    #[test]
    fn coincident_sources_resolve_fault_arrival_retry_hedge_step() {
        let cfg = config(1.0);
        let trace = requests(&[1.0]);
        let mut state = EngineState::new(&cfg, &trace);
        arm(&mut state, &trace[0], 1.0);
        let step = Some((1.0, 0));
        assert_eq!(state.next_event(step), Some((1.0, Next::Fault)));
        state.next_fault = state.fault_events.len();
        assert_eq!(state.next_event(step), Some((1.0, Next::Arrival)));
        state.next_arrival = trace.len();
        assert_eq!(state.next_event(step), Some((1.0, Next::Retry)));
        state.retries.clear();
        assert_eq!(state.next_event(step), Some((1.0, Next::Hedge)));
        clear_hedges(&mut state);
        assert_eq!(state.next_event(step), Some((1.0, Next::Step(0))));
        assert_eq!(state.next_event(None), None, "every source exhausted");
    }

    #[test]
    fn an_earlier_instant_wins_over_every_source_rank() {
        let cfg = config(3.0);
        let trace = requests(&[2.0, 2.5]);
        let mut state = EngineState::new(&cfg, &trace);
        arm(&mut state, &trace[1], 1.5);
        // A back-dated step precedes everything, the fault comes last.
        assert_eq!(state.next_event(Some((0.5, 0))), Some((0.5, Next::Step(0))));
        assert_eq!(state.next_event(Some((4.0, 0))), Some((1.5, Next::Retry)));
        state.retries.clear();
        assert_eq!(state.next_event(Some((4.0, 0))), Some((1.5, Next::Hedge)));
        clear_hedges(&mut state);
        assert_eq!(state.next_event(Some((4.0, 0))), Some((2.0, Next::Arrival)));
        state.next_arrival = trace.len();
        assert_eq!(state.next_event(Some((4.0, 0))), Some((3.0, Next::Fault)));
        // Counting: fault and arrival pending once each, plus the timers.
        state.next_arrival = 0;
        arm(&mut state, &trace[0], 1.0);
        assert_eq!(state.pending_source_events(), 4);
    }
}
