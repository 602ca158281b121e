//! The fleet engine: the event handlers and the driver that orders them.
//!
//! All five event sources — fault transitions, arrivals, retry requeues,
//! hedge timers, replica layer steps — are handled by methods on
//! [`EngineState`]. One driver decides *which* handler runs next: a
//! `cta-events` calendar queue holds one event per pending source (the
//! next arrival and next fault are chained; each replica keeps at most
//! one scheduled step; every retry backoff and hedge timer is an event
//! with a cancellation token). O(1) amortized per event, which is what
//! makes 1k+ replica fleets tractable.
//!
//! The original step-granular scan — every iteration scans all replicas
//! for the earliest step and cascades through the due-conditions,
//! O(replicas) per event — survives only as the test oracle behind
//! [`crate::reference`]. It invokes the *same* handler code, so every
//! floating-point operation happens in the same order and the reports
//! are bitwise identical; the equivalence suites and the chaos
//! `Equivalence` invariant compare against it. The event order contract
//! is encoded in the class ranks below: at one instant, fault < arrival
//! < retry < hedge < step, matching the scan's `<=` comparisons; within
//! a class the tie is the fault timeline index / arrival index / request
//! id / request id / replica index; and the calendar queue breaks any
//! remaining tie by schedule order.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use cta_events::{EventId, EventLoop};
use cta_sim::CtaSystem;
use cta_telemetry::{Module, SpanClass, TraceSink, TrackId};
use cta_tenancy::{
    Autoscaler, Backpressure, FairQueue, ScaleEvent, TenancyStats, TenantOutcome, TokenBucket,
};

use crate::cost::remaining_from_layers_s;
use crate::detector::DetectorBank;
use crate::fault::{FaultEvent, FaultKind};
use crate::overload::{BreakerEvent, BreakerState, CircuitBreaker, Transition};
use crate::replica::{Completion, Pending, Replica};
use crate::runtime::{FleetConfig, FleetReport, Shed};
use crate::{
    BrownoutController, BrownoutLadder, CostModel, FleetMetrics, ServeRequest, SessionStats,
    ShedReason,
};

/// Event class ranks: the pop order at one instant. These mirror the
/// step-granular cascade (`fault_due` before `arrival_due` before …), so
/// the driver and the reference scan process coincident events
/// identically.
const CLASS_FAULT: u8 = 0;
const CLASS_ARRIVAL: u8 = 1;
const CLASS_RETRY: u8 = 2;
const CLASS_HEDGE: u8 = 3;
const CLASS_STEP: u8 = 4;

/// Event payloads for the calendar queue. The key's `tie` field
/// identifies the instance (arrival index, request id, replica index);
/// the payload only routes to the right handler.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Fault,
    Arrival,
    Retry,
    Hedge,
    Step,
}

/// A crash-evicted request waiting out its backoff before re-entering
/// routing.
#[derive(Debug, Clone)]
struct RetryEntry {
    /// When the requeue fires, seconds.
    retry_s: f64,
    /// Requeue attempts consumed (this entry is attempt number `attempt`).
    attempt: u32,
    /// Layer to resume from.
    cursor: usize,
    request: ServeRequest,
    /// Per-layer solo step times priced at admission.
    layer_s: Rc<[f64]>,
}

/// Inserts keeping (retry_s asc, id asc) order.
fn push_retry(retries: &mut Vec<RetryEntry>, entry: RetryEntry) {
    let pos = retries
        .binary_search_by(|probe| {
            probe
                .retry_s
                .partial_cmp(&entry.retry_s)
                .expect("finite retry times")
                .then(probe.request.id.cmp(&entry.request.id))
        })
        .unwrap_or_else(|e| e);
    retries.insert(pos, entry);
}

/// A scheduled hedge check: if the request is still in flight when the
/// timer fires, a copy is dispatched to a second replica.
#[derive(Debug, Clone)]
struct HedgeEntry {
    /// When the check fires, seconds.
    fire_s: f64,
    /// Snapshot of the request (the copy restarts from layer 0).
    request: ServeRequest,
    /// Solo service estimate cached at admission.
    est_service_s: f64,
    /// Per-layer solo step times priced at admission.
    layer_s: Rc<[f64]>,
}

/// Inserts keeping (fire_s asc, id asc) order.
fn push_hedge(hedges: &mut Vec<HedgeEntry>, entry: HedgeEntry) {
    let pos = hedges
        .binary_search_by(|probe| {
            probe
                .fire_s
                .partial_cmp(&entry.fire_s)
                .expect("finite hedge times")
                .then(probe.request.id.cmp(&entry.request.id))
        })
        .unwrap_or_else(|e| e);
    hedges.insert(pos, entry);
}

/// Settles open→half-open breaker transitions as of `now` (emitting the
/// finished open interval) and returns the routable mask, or `None` when
/// breakers are disabled.
fn settle_breakers<S: TraceSink>(
    breakers: &mut Option<Vec<CircuitBreaker>>,
    now: f64,
    sink: &mut S,
) -> Option<Vec<bool>> {
    let bs = breakers.as_mut()?;
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
    Some(mask)
}

/// Applies a brownout transition to replica `i` and emits the level-change
/// marks plus the `accuracy_loss_pct` counter the aggregate report
/// integrates for quality-loss attribution.
fn apply_transition<S: TraceSink>(
    replicas: &mut [Replica],
    ladder: &BrownoutLadder,
    i: usize,
    tr: Transition,
    now: f64,
    transitions_total: &mut usize,
    sink: &mut S,
) {
    replicas[i].set_level(ladder, tr.to);
    *transitions_total += 1;
    if S::ENABLED {
        let track = TrackId::new(i as u32, Module::Brownout);
        sink.instant(track, if tr.to > tr.from { "level-up" } else { "level-down" }, now);
        sink.counter(track, "accuracy_loss_pct", now, ladder.level(tr.to).accuracy_loss_pct);
    }
}

/// What became of one dispatch attempt out of the tenancy fair queue
/// (or straight off the wire when tenancy is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    /// Admitted to a replica queue.
    Enqueued,
    /// Rejected and recorded in the shed list.
    Shed,
    /// Hold backpressure: the target queue is full (or the fleet is
    /// down); the request goes back to the head of the fair queue.
    Blocked,
}

/// Runtime state of the tenancy stage: the fair queue in front of
/// admission, the per-tenant quota buckets, and the autoscaler.
struct TenancyState {
    queue: FairQueue<ServeRequest>,
    buckets: Option<Vec<TokenBucket>>,
    scaler: Option<Autoscaler>,
    /// Hold backpressure: a full replica queue parks the request in the
    /// fair queue instead of shedding it.
    hold: bool,
}

/// All simulation state, shared by the driver and the reference scan. The
/// handlers are the single definition of what each event does; the
/// drivers only decide ordering — which the class ranks make identical.
struct EngineState<'a> {
    cfg: &'a FleetConfig,
    requests: &'a [ServeRequest],
    system: CtaSystem,
    replicas: Vec<Replica>,
    cost: CostModel,
    completions: Vec<Completion>,
    shed: Vec<Shed>,
    rr_cursor: usize,
    /// Replicas currently up, kept by `handle_fault` so per-arrival
    /// brownout sensing needs no fleet scan.
    up_count: usize,
    next_arrival: usize,
    fault_events: Vec<FaultEvent>,
    next_fault: usize,
    retries: Vec<RetryEntry>,
    requeues_total: usize,
    overload_on: bool,
    controllers: Option<Vec<BrownoutController>>,
    breakers: Option<Vec<CircuitBreaker>>,
    hedges: Vec<HedgeEntry>,
    /// Hedged requests with two live copies: id → primary replica at
    /// hedge-dispatch time (lookup only, never iterated — determinism).
    hedged_live: HashMap<u64, usize>,
    lat_window: Vec<f64>,
    lat_next: usize,
    hedged: usize,
    hedge_wins: usize,
    hedge_cancelled: usize,
    transitions_total: usize,
    /// Handler invocations so far (one per simulated event; equal across
    /// drivers, asserted by the equivalence tests).
    events_processed: u64,
    /// Event-queue bookkeeping, drained by the driver after every
    /// handler: replica indices whose `next_step_time` may have changed,
    /// retry events to schedule `(retry_s, id)` / cancel by id, and hedge
    /// events to schedule `(fire_s, id)`. Pure integer bookkeeping — the
    /// float stream is untouched.
    touched: Vec<usize>,
    retry_added: Vec<(f64, u64)>,
    retry_removed: Vec<u64>,
    hedge_added: Vec<(f64, u64)>,
    /// Multi-tenant stage (`None` = the single-tenant fleet, bitwise:
    /// every tenancy hook below is guarded on it).
    tenancy: Option<TenancyState>,
    /// Failure detector (`None` = routing trusts `up` alone, bitwise:
    /// every detector hook below is guarded on it).
    detector: Option<DetectorBank>,
    /// Whether the fleet runs a [`SessionPolicy`](crate::SessionPolicy).
    /// Every session hook below is guarded on it, so the sessions-off
    /// fleet executes the exact pre-session event loop (pinned bitwise by
    /// the goldens).
    session_on: bool,
    /// Session residency: session id → replica holding its compression
    /// state. `BTreeMap` so any iteration is deterministic.
    sessions: BTreeMap<u64, usize>,
    /// Sessions with a shed turn: the state can never advance past the
    /// hole, so every later turn sheds [`ShedReason::SessionLost`] at
    /// arrival.
    lost_sessions: BTreeSet<u64>,
    /// Re-prefill events charged to turns past the first (crash
    /// evictions and non-sticky replica moves).
    re_prefills: usize,
    /// Session turns shed, for conservation accounting.
    session_turns_shed: usize,
}

impl<'a> EngineState<'a> {
    /// Validates the entry points' preconditions and builds the state.
    fn new(cfg: &'a FleetConfig, requests: &'a [ServeRequest]) -> Self {
        assert!(cfg.replicas > 0, "at least one replica");
        assert!(cfg.batch.max_active_requests > 0, "batch width must be positive");
        assert!(!requests.is_empty(), "at least one request");
        assert!(
            requests.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
            "requests must be sorted by arrival time"
        );
        cfg.faults.validate(cfg.replicas);
        if cfg.sessions.is_none() {
            assert!(
                requests.iter().all(|r| r.session.is_none()),
                "session-tagged requests require a session policy (FleetConfig::sessions)"
            );
        }
        if let Some(d) = &cfg.detector {
            d.validate();
        }
        if let Some(t) = &cfg.tenancy {
            t.validate(cfg.replicas);
            assert!(
                requests.iter().all(|r| r.tenant < t.tenants),
                "request tenant id out of range for the tenancy configuration"
            );
        }
        let system = CtaSystem::new(cfg.system);
        let replicas: Vec<Replica> =
            (0..cfg.replicas).map(|i| Replica::new(i, system.clone())).collect();
        // Overload-control state. Every structure is `None`/empty when the
        // corresponding mechanism is off, so the disabled path executes the
        // exact pre-overload event loop (the `is_none_or` guards below
        // reduce to their old expressions; pinned bitwise by test).
        let overload_on = !cfg.overload.is_off();
        let controllers: Option<Vec<BrownoutController>> =
            cfg.overload.brownout.as_ref().map(|b| {
                (0..cfg.replicas)
                    .map(|_| BrownoutController::new(b.policy, b.ladder.max_level()))
                    .collect()
            });
        let breakers: Option<Vec<CircuitBreaker>> = cfg
            .overload
            .breaker
            .map(|p| (0..cfg.replicas).map(|_| CircuitBreaker::new(p)).collect());
        if let Some(hp) = &cfg.overload.hedge {
            hp.validate();
        }
        let detector = cfg.detector.map(|p| DetectorBank::new(p, cfg.replicas));
        let tenancy = cfg.tenancy.as_ref().map(|t| TenancyState {
            queue: FairQueue::new(t.scheduler, &t.weights),
            buckets: t.quota.map(|q| (0..t.tenants).map(|_| TokenBucket::new(q)).collect()),
            scaler: t.autoscale.map(|p| Autoscaler::new(p, cfg.replicas)),
            hold: t.backpressure == Backpressure::Hold,
        });
        Self {
            cfg,
            requests,
            system,
            replicas,
            cost: CostModel::new(),
            completions: Vec::with_capacity(requests.len()),
            shed: Vec::new(),
            rr_cursor: 0,
            up_count: cfg.replicas,
            next_arrival: 0,
            fault_events: cfg.faults.timeline(),
            next_fault: 0,
            retries: Vec::new(),
            requeues_total: 0,
            overload_on,
            controllers,
            breakers,
            hedges: Vec::new(),
            hedged_live: HashMap::new(),
            lat_window: Vec::new(),
            lat_next: 0,
            hedged: 0,
            hedge_wins: 0,
            hedge_cancelled: 0,
            transitions_total: 0,
            events_processed: 0,
            touched: Vec::new(),
            retry_added: Vec::new(),
            retry_removed: Vec::new(),
            hedge_added: Vec::new(),
            tenancy,
            detector,
            session_on: cfg.sessions.is_some(),
            sessions: BTreeMap::new(),
            lost_sessions: BTreeSet::new(),
            re_prefills: 0,
            session_turns_shed: 0,
        }
    }

    /// Records a shed session turn: the whole session is lost (its prefix
    /// state cannot advance past a hole in the turn sequence) and any
    /// resident state is released.
    fn note_session_shed(&mut self, request: &ServeRequest) {
        if !self.session_on {
            return;
        }
        if let Some(turn) = &request.session {
            self.session_turns_shed += 1;
            self.lost_sessions.insert(turn.session);
            if let Some(r) = self.sessions.remove(&turn.session) {
                self.replicas[r].release_session(turn.session);
            }
        }
    }

    /// Records that `turn`'s session state now lives on `target` (called
    /// after the turn is enqueued there). A move off the previous replica
    /// releases the old residency; a move on a turn past the first is a
    /// re-prefill event. `hold_s` is the occupancy charge the new replica
    /// carries while the state is resident (0 with state accounting off).
    fn place_session(&mut self, session: u64, turn: u32, target: usize, hold_s: f64) {
        let prev = self.sessions.insert(session, target);
        if prev == Some(target) {
            return;
        }
        if let Some(p) = prev {
            self.replicas[p].release_session(session);
        }
        self.replicas[target].hold_session(session, hold_s);
        if turn > 0 {
            self.re_prefills += 1;
        }
    }

    /// Routable-replica mask: breaker state ANDed with the autoscaler's
    /// enabled-and-warmed set ANDed with the failure detector's
    /// quarantine state. `None` when all three mechanisms are off — the
    /// exact pre-tenancy expression, so the disabled path stays bitwise.
    fn routable_mask<S: TraceSink>(&mut self, now: f64, sink: &mut S) -> Option<Vec<bool>> {
        let breaker = settle_breakers(&mut self.breakers, now, sink);
        let det = match self.detector.as_mut() {
            Some(d) => Some(d.mask(&self.replicas, now, sink)),
            None => None,
        };
        let scaler = self.tenancy.as_ref().and_then(|t| t.scaler.as_ref());
        match (&breaker, scaler, &det) {
            (None, None, None) => None,
            (_, scaler, _) => Some(
                (0..self.replicas.len())
                    .map(|i| {
                        breaker.as_ref().is_none_or(|m| m[i])
                            && scaler.is_none_or(|s| s.routable(i, now))
                            && det.as_ref().is_none_or(|m| m[i])
                    })
                    .collect(),
            ),
        }
    }

    /// Queues a retry entry, recording the event for the event driver.
    fn queue_retry(&mut self, entry: RetryEntry) {
        self.retry_added.push((entry.retry_s, entry.request.id));
        push_retry(&mut self.retries, entry);
    }

    /// Marks replica `i`'s next step time as possibly changed.
    fn touch(&mut self, i: usize) {
        self.touched.push(i);
    }

    /// Processes `fault_events[next_fault]`: a replica crash (orphaning
    /// its queue into retries or sheds), a recovery, or a host-link
    /// partition transition (stranding / resuming work in place).
    fn handle_fault<S: TraceSink>(&mut self, sink: &mut S) {
        self.events_processed += 1;
        let cfg = self.cfg;
        let ev = self.fault_events[self.next_fault];
        self.next_fault += 1;
        self.touch(ev.replica);
        let track = TrackId::new(ev.replica as u32, Module::Fault);
        match ev.kind {
            FaultKind::PartitionStart => {
                self.replicas[ev.replica].partition_start(ev.t_s);
                if S::ENABLED {
                    sink.instant(track, "partition-start", ev.t_s);
                }
                return;
            }
            FaultKind::PartitionEnd => {
                let since = self.replicas[ev.replica].partition_since;
                self.replicas[ev.replica].partition_heal(ev.t_s);
                if S::ENABLED {
                    sink.span(track, "partition", since, ev.t_s, SpanClass::Fault, true);
                    sink.instant(track, "partition-heal", ev.t_s);
                }
                return;
            }
            FaultKind::Down | FaultKind::Up => {}
        }
        if ev.kind == FaultKind::Up {
            let since = self.replicas[ev.replica].down_since;
            if !self.replicas[ev.replica].up {
                self.up_count += 1;
            }
            self.replicas[ev.replica].recover(ev.t_s);
            if S::ENABLED {
                sink.span(track, "outage", since, ev.t_s, SpanClass::Fault, true);
                sink.instant(track, "replica-up", ev.t_s);
            }
            // A recovery opens routing capacity: held tenancy work can
            // move now rather than waiting for the next arrival.
            if self.tenancy.is_some() {
                self.drain_tenancy(ev.t_s, sink);
            }
        } else {
            if self.replicas[ev.replica].up {
                self.up_count -= 1;
            }
            let orphans = self.replicas[ev.replica].crash(ev.t_s);
            if S::ENABLED {
                sink.instant(track, "replica-down", ev.t_s);
            }
            // A crash evicts every resident session's compression state:
            // the next turn of each must re-prefill wherever it lands.
            if self.session_on {
                for (s, _) in self.replicas[ev.replica].evict_sessions() {
                    if self.sessions.get(&s) == Some(&ev.replica) {
                        self.sessions.remove(&s);
                    }
                }
            }
            if let Some(bs) = self.breakers.as_mut() {
                let prev = bs[ev.replica].state();
                if let Some(BreakerEvent::Opened { at_s }) = bs[ev.replica].record_failure(ev.t_s) {
                    if S::ENABLED {
                        let btrack = TrackId::new(ev.replica as u32, Module::Breaker);
                        // A failed probe closes its half-open interval.
                        if let BreakerState::HalfOpen { since_s, .. } = prev {
                            sink.span(btrack, "half-open", since_s, at_s, SpanClass::Control, true);
                        }
                        sink.instant(btrack, "breaker-open", at_s);
                    }
                }
            }
            for p in orphans {
                // A hedge copy whose sibling is still live elsewhere is
                // dropped silently (accounted as a cancellation): the
                // surviving copy carries the request, so requeueing or
                // shedding this one would double-resolve it.
                if self.hedged_live.contains_key(&p.request.id)
                    && self.replicas.iter().any(|r| r.holds_request(p.request.id))
                {
                    self.hedge_cancelled += 1;
                    if S::ENABLED {
                        let htrack = TrackId::new(ev.replica as u32, Module::Hedge);
                        sink.instant(htrack, "hedge-cancel", ev.t_s);
                    }
                    continue;
                }
                let attempt = p.attempt + 1;
                // An orphaned session turn loses its layer progress with
                // the evicted compression state: it resumes from layer 0
                // (and re-prefills wherever it is placed).
                let cursor = if p.request.session.is_some() { 0 } else { p.resume_cursor };
                let lost_reason = if p.request.session.is_some() {
                    ShedReason::SessionLost
                } else {
                    ShedReason::ReplicaLost
                };
                if attempt > cfg.retry.max_attempts {
                    self.shed.push(Shed {
                        id: p.request.id,
                        class: p.request.class.name,
                        arrival_s: p.request.arrival_s,
                        reason: lost_reason,
                        retries: p.attempt,
                        tenant: p.request.tenant,
                    });
                    self.note_session_shed(&p.request);
                    continue;
                }
                let retry_s = ev.t_s + cfg.retry.backoff(attempt);
                // Deadline-aware requeue: if even an unobstructed resume
                // cannot meet the SLO, shed now instead of burning the
                // budget.
                if cfg.admission.enforce_deadlines {
                    if let Some(d) = p.request.class.deadline_s {
                        let upload_s = self.system.weight_upload_s();
                        let mut remaining = remaining_from_layers_s(upload_s, &p.layer_s, cursor)
                            + if cursor > 0 { upload_s } else { 0.0 };
                        if p.request.session.is_some() {
                            remaining += self.cost.session_prefill_s(&self.system, &p.request);
                        }
                        if retry_s + remaining > p.request.arrival_s + d {
                            self.shed.push(Shed {
                                id: p.request.id,
                                class: p.request.class.name,
                                arrival_s: p.request.arrival_s,
                                reason: lost_reason,
                                retries: p.attempt,
                                tenant: p.request.tenant,
                            });
                            self.note_session_shed(&p.request);
                            continue;
                        }
                    }
                }
                self.requeues_total += 1;
                if S::ENABLED {
                    sink.instant(track, "requeue", ev.t_s);
                    sink.counter(track, "retries", ev.t_s, self.requeues_total as f64);
                }
                self.queue_retry(RetryEntry {
                    retry_s,
                    attempt,
                    cursor,
                    request: p.request,
                    layer_s: p.layer_s,
                });
            }
        }
    }

    /// Routes and admission-checks one request at `now`: the dispatch
    /// stage shared by the direct arrival path and the tenancy fair
    /// queue. With `hold` set (tenancy Hold backpressure) a full target
    /// queue — or a fleet with no routable replica — blocks instead of
    /// shedding, so the caller can park the request.
    fn dispatch_request<S: TraceSink>(
        &mut self,
        request: &ServeRequest,
        now: f64,
        hold: bool,
        sink: &mut S,
    ) -> Dispatch {
        let cfg = self.cfg;
        // Lost-session fast path: a session that already shed a turn can
        // never complete, so later turns shed before touching any routing
        // or admission state.
        if self.session_on {
            if let Some(turn) = &request.session {
                if self.lost_sessions.contains(&turn.session) {
                    if S::ENABLED {
                        let track = TrackId::new(0, Module::Runtime);
                        sink.instant(track, "shed-session-lost", now);
                    }
                    self.shed.push(Shed {
                        id: request.id,
                        class: request.class.name,
                        arrival_s: request.arrival_s,
                        reason: ShedReason::SessionLost,
                        retries: 0,
                        tenant: request.tenant,
                    });
                    self.note_session_shed(request);
                    return Dispatch::Shed;
                }
            }
        }
        let mask = self.routable_mask(now, sink);
        // Sticky routing: a turn of a resident session goes back to the
        // replica holding its compression state, under the same
        // eligibility `choose` applies (up, not masked out). An ineligible
        // holder falls through to the configured policy — and pays the
        // re-prefill below.
        let sticky = if self.session_on && cfg.sessions.as_ref().is_some_and(|p| p.sticky) {
            request
                .session
                .and_then(|turn| self.sessions.get(&turn.session).copied())
                .filter(|&i| self.replicas[i].up && mask.as_ref().is_none_or(|m| m[i]))
        } else {
            None
        };
        let chosen = match sticky {
            Some(t) => Some(t),
            None => {
                cfg.routing.choose(&mut self.replicas, now, &mut self.rr_cursor, mask.as_deref())
            }
        };
        let Some(target) = chosen else {
            // No routable replica: the whole fleet is down (or every
            // enabled replica is still warming). Hold parks the request;
            // otherwise nothing can take it.
            if hold {
                return Dispatch::Blocked;
            }
            if S::ENABLED {
                let track = TrackId::new(0, Module::Fault);
                sink.instant(track, "shed-fleet-down", now);
            }
            self.shed.push(Shed {
                id: request.id,
                class: request.class.name,
                arrival_s: request.arrival_s,
                reason: if request.session.is_some() {
                    ShedReason::SessionLost
                } else {
                    ShedReason::ReplicaLost
                },
                retries: 0,
                tenant: request.tenant,
            });
            self.note_session_shed(request);
            return Dispatch::Shed;
        };
        // Price every layer once; the solo estimate is their sum (the
        // same bits as `CostModel::request_service_s`), and the times ride
        // the queued entry so routing never re-prices this request.
        let layer_s = self.cost.layer_times_s(&self.system, request);
        let mut est_service_s = remaining_from_layers_s(self.system.weight_upload_s(), &layer_s, 0);
        // A turn landing anywhere but its resident replica (including
        // every session's first turn) rebuilds the prefix state before it
        // can decode; the debt rides both the admission estimate and the
        // queued entry.
        let mut re_prefill_s = 0.0;
        if self.session_on {
            if let Some(turn) = &request.session {
                if self.sessions.get(&turn.session) != Some(&target) {
                    re_prefill_s = self.cost.session_prefill_s(&self.system, request);
                    est_service_s += re_prefill_s;
                }
            }
        }
        let est_wait_s = self.replicas[target].outstanding_s(now);
        // A held request has already aged in the fair queue; its deadline
        // budget shrinks accordingly. The guard keeps the direct path
        // (where now == arrival) float-for-float untouched.
        let mut est_latency_s = est_wait_s + est_service_s;
        if now > request.arrival_s {
            est_latency_s += now - request.arrival_s;
        }
        match cfg.admission.admit(
            &request.class,
            self.replicas[target].queue_depth(),
            est_latency_s,
        ) {
            Ok(()) => {
                let mut pending = Pending::fresh(request.clone(), est_service_s, layer_s.clone());
                if re_prefill_s > 0.0 {
                    pending.re_prefill_s = re_prefill_s;
                }
                self.replicas[target].enqueue(pending);
                if self.session_on {
                    if let Some(turn) = &request.session {
                        let account = cfg.sessions.as_ref().is_some_and(|p| p.account_state);
                        let hold_s = if account { re_prefill_s } else { 0.0 };
                        self.place_session(turn.session, turn.turn, target, hold_s);
                        if S::ENABLED && re_prefill_s > 0.0 && turn.turn > 0 {
                            let track = TrackId::new(target as u32, Module::Runtime);
                            sink.instant(track, "session-re-prefill", now);
                        }
                    }
                }
                self.touch(target);
                if let Some(bs) = self.breakers.as_mut() {
                    bs[target].on_dispatch();
                }
                // Deadline-bearing admissions arm a hedge timer at the
                // windowed-p99 delay; the check fires only if the request
                // is still in flight then. Session turns never hedge — a
                // copy on a second replica would fork the session's
                // compression state.
                if let Some(hp) = &cfg.overload.hedge {
                    if request.class.deadline_s.is_some() && request.session.is_none() {
                        let fire_s = now + hp.delay_s(&self.lat_window);
                        self.hedge_added.push((fire_s, request.id));
                        push_hedge(
                            &mut self.hedges,
                            HedgeEntry { fire_s, request: request.clone(), est_service_s, layer_s },
                        );
                    }
                }
                if S::ENABLED {
                    let track = TrackId::new(target as u32, Module::Runtime);
                    sink.instant(track, "enqueue", now);
                    sink.counter(
                        track,
                        "queue_depth",
                        now,
                        self.replicas[target].queue_depth() as f64,
                    );
                }
                Dispatch::Enqueued
            }
            Err(reason) => {
                if hold && reason == ShedReason::QueueFull {
                    return Dispatch::Blocked;
                }
                if S::ENABLED {
                    let track = TrackId::new(target as u32, Module::Runtime);
                    sink.instant(track, "shed", now);
                }
                self.shed.push(Shed {
                    id: request.id,
                    class: request.class.name,
                    arrival_s: request.arrival_s,
                    reason,
                    retries: 0,
                    tenant: request.tenant,
                });
                self.note_session_shed(request);
                Dispatch::Shed
            }
        }
    }

    /// Arrival entry of the tenancy stage: an autoscaler observation of
    /// the state the arrival found, then the quota gate, the fair
    /// queue, and an immediate drain.
    fn tenant_arrival<S: TraceSink>(&mut self, now: f64, sink: &mut S) {
        // Observe *before* admitting the arrival: the sample reflects
        // the backlog this request found, so an idle fleet reads a zero
        // signal (the arrival itself would otherwise pin the signal at
        // `1/active` and scale-down could never trigger).
        self.observe_autoscaler(now, sink);
        let request = self.requests[self.next_arrival - 1].clone();
        let tenant = request.tenant;
        let quota_ok = match self.tenancy.as_mut().expect("tenancy on").buckets.as_mut() {
            Some(buckets) => buckets[tenant as usize].try_take(now, 1.0),
            None => true,
        };
        if !quota_ok {
            if S::ENABLED {
                let track = TrackId::new(tenant, Module::Tenancy);
                sink.instant(track, "quota-shed", now);
            }
            self.shed.push(Shed {
                id: request.id,
                class: request.class.name,
                arrival_s: request.arrival_s,
                reason: ShedReason::QuotaExceeded,
                retries: 0,
                tenant,
            });
            self.note_session_shed(&request);
            return;
        }
        let ts = self.tenancy.as_mut().expect("tenancy on");
        ts.queue.push(tenant, request);
        self.drain_tenancy(now, sink);
    }

    /// Dispatches fair-queue requests in scheduler order until the queue
    /// empties or (Hold backpressure) a dispatch blocks — the blocked
    /// request goes back to the queue head, preserving the schedule.
    fn drain_tenancy<S: TraceSink>(&mut self, now: f64, sink: &mut S) {
        loop {
            let Some((tenant, request)) = self.tenancy.as_mut().and_then(|t| t.queue.pop()) else {
                return;
            };
            let hold = self.tenancy.as_ref().expect("tenancy on").hold;
            match self.dispatch_request(&request, now, hold, sink) {
                Dispatch::Enqueued => continue,
                Dispatch::Shed => {
                    // The shed consumed no fleet time: refund the DRR
                    // quantum so a doomed backlog cannot eat the
                    // tenant's service share.
                    self.tenancy.as_mut().expect("tenancy on").queue.refund(tenant);
                    continue;
                }
                Dispatch::Blocked => {}
            }
            {
                let ts = self.tenancy.as_mut().expect("tenancy on");
                ts.queue.unpop(tenant, request);
                // The backlog counter records *contention* — held work —
                // so a pass-through (never-blocking) configuration emits
                // nothing on the tenancy lane and its trace stays
                // byte-identical to the tenancy-off fleet.
                if S::ENABLED {
                    let backlog = ts.queue.backlog(tenant) as f64;
                    let track = TrackId::new(tenant, Module::Tenancy);
                    sink.counter(track, "tenant_backlog", now, backlog);
                }
                return;
            }
        }
    }

    /// Feeds the autoscaler one queued-work-per-active-replica sample
    /// (front-end backlog plus replica queues) and emits its decision.
    fn observe_autoscaler<S: TraceSink>(&mut self, now: f64, sink: &mut S) {
        if self.tenancy.as_ref().is_none_or(|t| t.scaler.is_none()) {
            return;
        }
        let backlog = self.tenancy.as_ref().map_or(0, |t| t.queue.len());
        let queued: usize = self.replicas.iter().map(|r| r.queue_depth()).sum();
        let scaler = self.tenancy.as_mut().and_then(|t| t.scaler.as_mut()).expect("scaler on");
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

    /// Processes `requests[next_arrival]`: routing, admission, hedge
    /// arming, and the brownout depth observation. With tenancy on, the
    /// request passes the quota gate and fair queue first.
    fn handle_arrival<S: TraceSink>(&mut self, sink: &mut S) {
        self.events_processed += 1;
        let cfg = self.cfg;
        let requests = self.requests;
        let request = &requests[self.next_arrival];
        self.next_arrival += 1;
        let now = request.arrival_s;
        if self.tenancy.is_some() {
            self.tenant_arrival(now, sink);
        } else {
            self.dispatch_request(request, now, false, sink);
        }
        // Closed-loop sensing: every arrival feeds each up replica's
        // controller one availability-weighted depth sample, so the
        // sampling cadence tracks offered load and survivors of a partial
        // outage see proportionally inflated depth.
        if let (Some(ctrls), Some(bc)) = (self.controllers.as_mut(), cfg.overload.brownout.as_ref())
        {
            if self.up_count > 0 {
                let up_frac = self.up_count as f64 / self.replicas.len() as f64;
                for (i, ctrl) in ctrls.iter_mut().enumerate() {
                    if !self.replicas[i].up {
                        continue;
                    }
                    let depth = self.replicas[i].queue_depth() as f64 / up_frac;
                    if let Some(tr) = ctrl.observe_depth(depth) {
                        apply_transition(
                            &mut self.replicas,
                            &bc.ladder,
                            i,
                            tr,
                            now,
                            &mut self.transitions_total,
                            sink,
                        );
                    }
                }
            }
        }
    }

    /// Processes `retries[0]`: route the requeue back into a queue, or
    /// consume another attempt and back off again.
    fn handle_retry<S: TraceSink>(&mut self, sink: &mut S) {
        self.events_processed += 1;
        let cfg = self.cfg;
        let entry = self.retries.remove(0);
        let now = entry.retry_s;
        // A later turn of the same session may have shed while this one
        // waited out its backoff; the session is already lost, so placing
        // the requeue would waste fleet time on a dead session.
        if self.session_on {
            if let Some(turn) = &entry.request.session {
                if self.lost_sessions.contains(&turn.session) {
                    self.shed.push(Shed {
                        id: entry.request.id,
                        class: entry.request.class.name,
                        arrival_s: entry.request.arrival_s,
                        reason: ShedReason::SessionLost,
                        retries: entry.attempt,
                        tenant: entry.request.tenant,
                    });
                    self.note_session_shed(&entry.request);
                    return;
                }
            }
        }
        let mask = self.routable_mask(now, sink);
        match cfg.routing.choose(&mut self.replicas, now, &mut self.rr_cursor, mask.as_deref()) {
            Some(target) => {
                // A requeue was already admitted once; it re-enters the
                // queue directly (no depth shedding) with a remaining-work
                // estimate that charges the fresh weight upload its resume
                // will pay.
                let upload_s = self.system.weight_upload_s();
                let mut est_service_s =
                    remaining_from_layers_s(upload_s, &entry.layer_s, entry.cursor)
                        + if entry.cursor > 0 { upload_s } else { 0.0 };
                // A crash-evicted session turn re-prefills on its new
                // replica (its residency died with the crashed one).
                let mut re_prefill_s = 0.0;
                if self.session_on {
                    if let Some(turn) = &entry.request.session {
                        if self.sessions.get(&turn.session) != Some(&target) {
                            re_prefill_s =
                                self.cost.session_prefill_s(&self.system, &entry.request);
                            est_service_s += re_prefill_s;
                        }
                    }
                }
                if S::ENABLED {
                    let track = TrackId::new(target as u32, Module::Runtime);
                    sink.instant(track, "requeue-placed", now);
                }
                let session_turn = entry.request.session;
                self.replicas[target].enqueue(Pending {
                    request: entry.request,
                    est_service_s,
                    layer_s: entry.layer_s,
                    resume_cursor: entry.cursor,
                    attempt: entry.attempt,
                    re_prefill_s,
                });
                if self.session_on {
                    if let Some(turn) = &session_turn {
                        let account = cfg.sessions.as_ref().is_some_and(|p| p.account_state);
                        let hold_s = if account { re_prefill_s } else { 0.0 };
                        self.place_session(turn.session, turn.turn, target, hold_s);
                        if S::ENABLED && re_prefill_s > 0.0 && turn.turn > 0 {
                            let track = TrackId::new(target as u32, Module::Runtime);
                            sink.instant(track, "session-re-prefill", now);
                        }
                    }
                }
                self.touch(target);
                if let Some(bs) = self.breakers.as_mut() {
                    bs[target].on_dispatch();
                }
            }
            None => {
                // Still no healthy replica: consume another attempt or
                // give up.
                let attempt = entry.attempt + 1;
                if attempt > cfg.retry.max_attempts {
                    self.shed.push(Shed {
                        id: entry.request.id,
                        class: entry.request.class.name,
                        arrival_s: entry.request.arrival_s,
                        reason: if entry.request.session.is_some() {
                            ShedReason::SessionLost
                        } else {
                            ShedReason::ReplicaLost
                        },
                        retries: entry.attempt,
                        tenant: entry.request.tenant,
                    });
                    self.note_session_shed(&entry.request);
                } else {
                    self.requeues_total += 1;
                    if S::ENABLED {
                        let track = TrackId::new(0, Module::Fault);
                        sink.counter(track, "retries", now, self.requeues_total as f64);
                    }
                    self.queue_retry(RetryEntry {
                        retry_s: now + cfg.retry.backoff(attempt),
                        attempt,
                        cursor: entry.cursor,
                        request: entry.request,
                        layer_s: entry.layer_s,
                    });
                }
            }
        }
    }

    /// Processes `hedges[0]`: if the request is still in flight, dispatch
    /// a copy to a second replica (excluding the slow primary's).
    fn handle_hedge<S: TraceSink>(&mut self, sink: &mut S) {
        self.events_processed += 1;
        let cfg = self.cfg;
        let entry = self.hedges.remove(0);
        let now = entry.fire_s;
        let id = entry.request.id;
        // Still in flight? (Not found anywhere = completed, shed, or
        // waiting out a retry backoff — no hedge then.)
        if let Some(primary) = self.replicas.iter().position(|r| r.holds_request(id)) {
            let breaker_mask = self.routable_mask(now, sink);
            // The copy must land on a *different* replica than the one
            // holding the slow primary.
            let mask: Vec<bool> = (0..self.replicas.len())
                .map(|i| i != primary && breaker_mask.as_ref().is_none_or(|m| m[i]))
                .collect();
            if let Some(target) =
                cfg.routing.choose(&mut self.replicas, now, &mut self.rr_cursor, Some(&mask))
            {
                // Hedge copies bypass admission: the request was already
                // admitted once; the copy exists purely to cut its tail.
                self.replicas[target].enqueue(Pending::fresh(
                    entry.request,
                    entry.est_service_s,
                    entry.layer_s,
                ));
                self.touch(target);
                if let Some(bs) = self.breakers.as_mut() {
                    bs[target].on_dispatch();
                }
                self.hedged += 1;
                self.hedged_live.insert(id, primary);
                if S::ENABLED {
                    let htrack = TrackId::new(target as u32, Module::Hedge);
                    sink.instant(htrack, "hedge-dispatch", now);
                }
            }
        }
    }

    /// Executes replica `i`'s next layer step and feeds the resulting
    /// completions back into the overload controllers, breakers, latency
    /// window and hedge cancellation.
    fn handle_step<S: TraceSink>(&mut self, i: usize, sink: &mut S) {
        self.events_processed += 1;
        let cfg = self.cfg;
        let before = self.completions.len();
        let t0 = self.replicas[i].execute_step(
            &cfg.batch,
            &cfg.faults,
            &mut self.cost,
            &mut self.completions,
            sink,
        );
        self.touch(i);
        if self.overload_on {
            for idx in before..self.completions.len() {
                let c = self.completions[idx].clone();
                // Hedge delay sensing: sliding window of completion
                // latencies.
                if let Some(hp) = &cfg.overload.hedge {
                    let lat = c.latency_s();
                    if self.lat_window.len() == hp.latency_window {
                        self.lat_window[self.lat_next % hp.latency_window] = lat;
                    } else {
                        self.lat_window.push(lat);
                    }
                    self.lat_next = (self.lat_next + 1) % hp.latency_window;
                }
                // A completion is breaker evidence of health (a successful
                // half-open probe closes the breaker).
                if let Some(bs) = self.breakers.as_mut() {
                    if let Some(BreakerEvent::Closed { since_s, at_s }) =
                        bs[c.replica].record_success(c.finish_s)
                    {
                        if S::ENABLED {
                            let btrack = TrackId::new(c.replica as u32, Module::Breaker);
                            sink.span(
                                btrack,
                                "half-open",
                                since_s,
                                at_s,
                                SpanClass::Control,
                                false,
                            );
                        }
                    }
                }
                // ... and brownout evidence (deadline outcome).
                if let (Some(ctrls), Some(bc)) =
                    (self.controllers.as_mut(), cfg.overload.brownout.as_ref())
                {
                    if let Some(tr) =
                        ctrls[c.replica].observe_completion(c.deadline_met == Some(false))
                    {
                        apply_transition(
                            &mut self.replicas,
                            &bc.ladder,
                            c.replica,
                            tr,
                            c.finish_s,
                            &mut self.transitions_total,
                            sink,
                        );
                    }
                }
                // First outcome wins: cancel every losing copy (other
                // replicas' queues/actives at their layer boundary, plus
                // any retry backoff entry) the moment the winner completes,
                // so exactly one completion is ever reported per hedged id.
                if let Some(primary) = self.hedged_live.remove(&c.id) {
                    for j in 0..self.replicas.len() {
                        if j == c.replica {
                            continue;
                        }
                        let n = self.replicas[j].cancel_request(c.id);
                        if n > 0 {
                            self.hedge_cancelled += n;
                            self.touch(j);
                            if S::ENABLED {
                                let htrack = TrackId::new(j as u32, Module::Hedge);
                                sink.instant(htrack, "hedge-cancel", c.finish_s);
                            }
                        }
                    }
                    let before_retry = self.retries.len();
                    self.retries.retain(|r| r.request.id != c.id);
                    if self.retries.len() != before_retry {
                        self.retry_removed.push(c.id);
                    }
                    self.hedge_cancelled += before_retry - self.retries.len();
                    if c.replica != primary {
                        self.hedge_wins += 1;
                        if S::ENABLED {
                            let htrack = TrackId::new(c.replica as u32, Module::Hedge);
                            sink.instant(htrack, "hedge-win", c.finish_s);
                        }
                    }
                }
            }
        }
        // A session's final turn retiring releases the replica's resident
        // compression state (and the occupancy hold that came with it).
        if self.session_on {
            for idx in before..self.completions.len() {
                if let Some(turn) = self.completions[idx].session {
                    if turn.last {
                        if let Some(r) = self.sessions.remove(&turn.session) {
                            self.replicas[r].release_session(turn.session);
                        }
                    }
                }
            }
        }
        // Completions are the detector's only sensory input: a real load
        // balancer sees responses, not replica internals.
        if let Some(d) = self.detector.as_mut() {
            for idx in before..self.completions.len() {
                let (replica, finish_s) =
                    (self.completions[idx].replica, self.completions[idx].finish_s);
                d.observe(replica, finish_s);
            }
        }
        // The step moved queued work into the batch, freeing queue
        // space: held tenancy work can dispatch now. `t0` is the step's
        // start — the instant this event occupies on the shared timeline.
        if self.tenancy.is_some() {
            self.drain_tenancy(t0, sink);
        }
    }

    /// End-of-run bookkeeping: close open outages and breaker intervals,
    /// assemble metrics.
    fn finish<S: TraceSink>(mut self, sink: &mut S) -> FleetReport {
        // Requests still parked in the fair queue when the run ends (the
        // fleet was down, or warming capacity never arrived): shed as
        // ReplicaLost so the conservation invariant holds.
        while let Some((tenant, request)) = self.tenancy.as_mut().and_then(|t| t.queue.pop()) {
            self.shed.push(Shed {
                id: request.id,
                class: request.class.name,
                arrival_s: request.arrival_s,
                reason: if request.session.is_some() {
                    ShedReason::SessionLost
                } else {
                    ShedReason::ReplicaLost
                },
                retries: 0,
                tenant,
            });
            self.note_session_shed(&request);
        }
        // Close the books on replicas still down at the end of the run:
        // their open outage extends to the fleet makespan (or the crash
        // instant if nothing completed after it).
        let makespan_s = self.completions.iter().map(|c| c.finish_s).fold(0.0, f64::max);
        for r in &mut self.replicas {
            if !r.up {
                let end = makespan_s.max(r.down_since);
                r.down_s += end - r.down_since;
                if S::ENABLED {
                    let track = TrackId::new(r.index as u32, Module::Fault);
                    sink.span(track, "outage", r.down_since, end, SpanClass::Fault, true);
                }
            }
        }

        // Likewise for quarantines still in force: their span extends to
        // the makespan.
        if let Some(d) = self.detector.as_ref() {
            d.close_spans(makespan_s, sink);
        }

        // Likewise for breakers still open (or probing) at the end of the
        // run: their blocking interval extends to the makespan.
        if S::ENABLED {
            if let Some(bs) = self.breakers.as_ref() {
                for (i, b) in bs.iter().enumerate() {
                    let track = TrackId::new(i as u32, Module::Breaker);
                    match b.state() {
                        BreakerState::Open { since_s, .. } => {
                            sink.span(
                                track,
                                "open",
                                since_s,
                                makespan_s.max(since_s),
                                SpanClass::Control,
                                true,
                            );
                        }
                        BreakerState::HalfOpen { since_s, .. } => {
                            sink.span(
                                track,
                                "half-open",
                                since_s,
                                makespan_s.max(since_s),
                                SpanClass::Control,
                                true,
                            );
                        }
                        BreakerState::Closed { .. } => {}
                    }
                }
            }
        }

        let busy: Vec<f64> = self.replicas.iter().map(|r| r.busy_s).collect();
        let down: Vec<f64> = self.replicas.iter().map(|r| r.down_s).collect();
        let mut metrics = FleetMetrics::from_outcomes(
            self.requests.len(),
            &self.completions,
            &self.shed,
            &busy,
            &down,
        );
        metrics.overload.hedged = self.hedged;
        metrics.overload.hedge_wins = self.hedge_wins;
        metrics.overload.hedge_cancelled = self.hedge_cancelled;
        metrics.overload.brownout_transitions = self.transitions_total;
        metrics.overload.per_replica_brownout_s =
            self.replicas.iter().map(|r| r.brownout_s).collect();
        metrics.overload.breaker_opens =
            self.breakers.as_ref().map_or(0, |bs| bs.iter().map(|b| b.opens).sum());
        if let Some(tcfg) = self.cfg.tenancy.as_ref() {
            let mut outcomes: Vec<TenantOutcome> =
                (0..tcfg.tenants).map(TenantOutcome::new).collect();
            for r in self.requests {
                outcomes[r.tenant as usize].offered += 1;
            }
            for s in &self.shed {
                let o = &mut outcomes[s.tenant as usize];
                o.shed += 1;
                if s.reason == ShedReason::QuotaExceeded {
                    o.quota_shed += 1;
                }
            }
            for c in &self.completions {
                let o = &mut outcomes[c.tenant as usize];
                o.latencies_s.push(c.latency_s());
                if c.deadline_met.unwrap_or(true) {
                    o.good += 1;
                }
            }
            let mut stats = TenancyStats::from_outcomes(&outcomes, metrics.makespan_s);
            let scaler = self.tenancy.as_ref().and_then(|t| t.scaler.as_ref());
            stats.scale_ups = scaler.map_or(0, |s| s.scale_ups);
            stats.scale_downs = scaler.map_or(0, |s| s.scale_downs);
            stats.final_active = scaler.map_or(self.cfg.replicas, |s| s.active());
            metrics.tenancy = Some(stats);
        }
        metrics.detector = self.detector.as_ref().map(|d| d.stats(&self.cfg.faults));
        if self.cfg.sessions.is_some() {
            let mut ids: BTreeSet<u64> = BTreeSet::new();
            for r in self.requests {
                if let Some(t) = &r.session {
                    ids.insert(t.session);
                }
            }
            let mut itls: Vec<f64> = Vec::new();
            let mut turns_completed = 0usize;
            for c in &self.completions {
                if let Some(t) = &c.session {
                    turns_completed += 1;
                    itls.push(c.latency_s() / t.decode_tokens as f64);
                }
            }
            metrics.sessions = Some(SessionStats::new(
                ids.len(),
                turns_completed,
                self.session_turns_shed,
                self.lost_sessions.len(),
                self.re_prefills,
                &itls,
            ));
        }
        FleetReport {
            metrics,
            completions: self.completions,
            shed: self.shed,
            events_processed: self.events_processed,
            event_queue_samples: Vec::new(),
        }
    }
}

/// Runs the fleet on the calendar-queue driver.
pub(crate) fn run<S: TraceSink>(
    cfg: &FleetConfig,
    requests: &[ServeRequest],
    sink: &mut S,
) -> FleetReport {
    run_event_driven(EngineState::new(cfg, requests), sink)
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

/// The reference scan: find the earliest replica step every iteration
/// and cascade through the due-conditions. The cascade's `<=`
/// comparisons define the coincident-instant tie order the event driver
/// reproduces through class ranks. The scan has no queue to reconcile, so
/// it drops the handlers' event-queue bookkeeping after each one.
fn run_step_granular<S: TraceSink>(mut state: EngineState<'_>, sink: &mut S) -> FleetReport {
    loop {
        // Earliest replica step, ties to the lowest index.
        let next_step: Option<(f64, usize)> = state
            .replicas
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.next_step_time().map(|t| (t, i)))
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite step times").then(a.1.cmp(&b.1)));

        // Tie order at one instant: fault < arrival < retry < hedge <
        // step. With an empty fault plan the fault and retry sources never
        // fire, and with hedging off the hedge queue stays empty, so the
        // conditions reduce to the plain fault-free expressions.
        let fault_due = state.next_fault < state.fault_events.len() && {
            let tf = state.fault_events[state.next_fault].t_s;
            next_step.is_none_or(|(t, _)| tf <= t)
                && (state.next_arrival >= state.requests.len()
                    || tf <= state.requests[state.next_arrival].arrival_s)
                && state.retries.first().is_none_or(|r| tf <= r.retry_s)
                && state.hedges.first().is_none_or(|h| tf <= h.fire_s)
        };

        let arrival_due = !fault_due
            && state.next_arrival < state.requests.len()
            && next_step.is_none_or(|(t, _)| state.requests[state.next_arrival].arrival_s <= t)
            && state
                .retries
                .first()
                .is_none_or(|r| state.requests[state.next_arrival].arrival_s <= r.retry_s)
            && state
                .hedges
                .first()
                .is_none_or(|h| state.requests[state.next_arrival].arrival_s <= h.fire_s);

        let retry_due = !fault_due
            && !arrival_due
            && state.retries.first().is_some_and(|r| {
                next_step.is_none_or(|(t, _)| r.retry_s <= t)
                    && state.hedges.first().is_none_or(|h| r.retry_s <= h.fire_s)
            });

        let hedge_due = !fault_due
            && !arrival_due
            && !retry_due
            && state.hedges.first().is_some_and(|h| next_step.is_none_or(|(t, _)| h.fire_s <= t));

        if fault_due {
            state.handle_fault(sink);
        } else if arrival_due {
            state.handle_arrival(sink);
        } else if retry_due {
            state.handle_retry(sink);
        } else if hedge_due {
            state.handle_hedge(sink);
        } else if let Some((_, i)) = next_step {
            state.handle_step(i, sink);
        } else {
            break;
        }
        state.touched.clear();
        state.retry_added.clear();
        state.retry_removed.clear();
        state.hedge_added.clear();
    }
    state.finish(sink)
}

/// Pending-event cadence of the occupancy samples (every 64th event).
const QUEUE_SAMPLE_EVERY: u64 = 64;

/// The calendar-queue driver. The queue holds: the next arrival and the
/// next fault (chained — scheduled one at a time, which guarantees
/// index order at coincident timestamps), at most one step event per
/// replica (rescheduled whenever a handler touches the replica), and one
/// event per pending retry backoff / hedge timer (retries carry
/// cancellation tokens so hedge-winner completions can remove them).
///
/// Handlers are shared with the reference scan, so the float
/// stream — and therefore the report and any emitted trace — is bitwise
/// identical; only the *cost* of finding the next event changes, from
/// O(replicas) to O(1) amortized.
fn run_event_driven<S: TraceSink>(mut state: EngineState<'_>, sink: &mut S) -> FleetReport {
    let mut el: EventLoop<Ev> = EventLoop::new();
    // Per-replica scheduled step: the exact time it was scheduled at plus
    // its cancellation token (times compare bitwise — both sides computed
    // by the same `next_step_time`).
    let mut step_events: Vec<Option<(f64, EventId)>> = vec![None; state.replicas.len()];
    // Pending retry backoffs: request id → cancellation token. Lookup
    // only, never iterated — determinism-safe.
    let mut retry_ids: HashMap<u64, EventId> = HashMap::new();
    let mut samples: Vec<(f64, usize)> = Vec::new();

    if !state.fault_events.is_empty() {
        el.schedule(state.fault_events[0].t_s, CLASS_FAULT, 0, Ev::Fault);
    }
    el.schedule(state.requests[0].arrival_s, CLASS_ARRIVAL, 0, Ev::Arrival);

    while let Some((key, ev)) = el.pop() {
        match ev {
            Ev::Fault => {
                state.handle_fault(sink);
                if state.next_fault < state.fault_events.len() {
                    el.schedule(
                        state.fault_events[state.next_fault].t_s,
                        CLASS_FAULT,
                        state.next_fault as u64,
                        Ev::Fault,
                    );
                }
            }
            Ev::Arrival => {
                state.handle_arrival(sink);
                if state.next_arrival < state.requests.len() {
                    el.schedule(
                        state.requests[state.next_arrival].arrival_s,
                        CLASS_ARRIVAL,
                        state.next_arrival as u64,
                        Ev::Arrival,
                    );
                }
            }
            Ev::Retry => {
                retry_ids.remove(&key.tie);
                debug_assert!(
                    state
                        .retries
                        .first()
                        .is_some_and(|r| r.retry_s == key.t && r.request.id == key.tie),
                    "retry event out of sync with the backoff queue"
                );
                state.handle_retry(sink);
            }
            Ev::Hedge => {
                debug_assert!(
                    state
                        .hedges
                        .first()
                        .is_some_and(|h| h.fire_s == key.t && h.request.id == key.tie),
                    "hedge event out of sync with the timer queue"
                );
                state.handle_hedge(sink);
            }
            Ev::Step => {
                let i = key.tie as usize;
                step_events[i] = None;
                debug_assert_eq!(
                    state.replicas[i].next_step_time(),
                    Some(key.t),
                    "step event out of sync with replica {i}"
                );
                state.handle_step(i, sink);
            }
        }

        // Reconcile the queue with what the handler changed: new retry
        // backoffs, cancelled retries (hedge winners), new hedge timers,
        // and the step times of every touched replica.
        for (t, id) in state.retry_added.drain(..) {
            retry_ids.insert(id, el.schedule(t, CLASS_RETRY, id, Ev::Retry));
        }
        for id in state.retry_removed.drain(..) {
            let eid = retry_ids.remove(&id).expect("cancelled retry was scheduled");
            el.cancel(eid).expect("cancelled retry token was live");
        }
        for (t, id) in state.hedge_added.drain(..) {
            el.schedule(t, CLASS_HEDGE, id, Ev::Hedge);
        }
        state.touched.sort_unstable();
        state.touched.dedup();
        for &i in &state.touched {
            let want = state.replicas[i].next_step_time();
            let have = step_events[i].map(|(t, _)| t);
            if want != have {
                if let Some((_, eid)) = step_events[i].take() {
                    el.cancel(eid);
                }
                if let Some(t) = want {
                    let eid = el.schedule(t, CLASS_STEP, i as u64, Ev::Step);
                    step_events[i] = Some((t, eid));
                }
            }
        }
        state.touched.clear();

        if state.events_processed % QUEUE_SAMPLE_EVERY == 1 {
            samples.push((key.t, el.len()));
        }
    }

    let mut report = state.finish(sink);
    report.event_queue_samples = samples;
    report
}
