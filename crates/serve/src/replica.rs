//! One replica: a [`CtaSystem`] pool with a priority queue and a
//! continuous-batching execution loop.
//!
//! Execution advances in *layer steps*: at every step the replica merges
//! the current-layer head tasks of all active requests into one
//! [`CtaSystem::step_layer_costed`] dispatch. Layer boundaries are the
//! batching points — queued requests join the active set there (up to
//! [`BatchPolicy::max_active_requests`]) and finished requests leave, so
//! a long request never blocks a short one for more than one layer.
//!
//! A step is the fleet's most frequent event, so in steady state it
//! allocates nothing: the replica keeps its merged-task, cost and
//! retirement buffers across steps, finished requests move out of the
//! active set instead of being cloned, and the LPT schedule runs on
//! stack arrays inside `cta-sim`.

use std::rc::Rc;

use cta_sim::{AttentionTask, CtaSystem, TaskCost};
use cta_telemetry::{Module, SpanClass, TraceSink, TrackId};

use crate::cost::remaining_from_layers_s;
use crate::{CostModel, FaultPlan, ServeRequest, SessionTurn};

/// Continuous-batching configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Maximum requests whose layers may be merged into one dispatch.
    /// `1` disables batching (strict one-request-at-a-time service).
    pub max_active_requests: usize,
}

impl BatchPolicy {
    /// No batching: one request in flight per replica at a time.
    pub fn off() -> Self {
        Self { max_active_requests: 1 }
    }

    /// Batch up to `n` concurrent requests per replica.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn up_to(n: usize) -> Self {
        assert!(n > 0, "batch width must be positive");
        Self { max_active_requests: n }
    }
}

/// A request waiting in a replica queue.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub request: ServeRequest,
    /// Solo service estimate, cached at admission for routing decisions.
    pub est_service_s: f64,
    /// Per-layer solo step times ([`CostModel::layer_times_s`]), priced
    /// once at admission and carried through batch joins and crash
    /// evictions so remaining-work estimates never re-price a layer.
    pub layer_s: Rc<[f64]>,
    /// Layer to resume from when the request joins a batch: `0` for fresh
    /// arrivals, the last completed layer for crash-evicted requeues
    /// (steps are atomic and the host retains per-layer activations, so
    /// completed layers survive a crash).
    pub resume_cursor: usize,
    /// Requeue attempts consumed so far (0 for fresh arrivals).
    pub attempt: u32,
    /// Session-state rebuild the replica must execute before this
    /// request's first layer (0 for non-session requests and for turns
    /// landing on the replica already holding their session state).
    /// Charged once, at the batch join, like the weight upload.
    pub re_prefill_s: f64,
}

impl Pending {
    /// A freshly admitted request (no crash history, no re-prefill debt).
    pub fn fresh(request: ServeRequest, est_service_s: f64, layer_s: Rc<[f64]>) -> Self {
        Self { request, est_service_s, layer_s, resume_cursor: 0, attempt: 0, re_prefill_s: 0.0 }
    }
}

/// A request being served (its next layer is `cursor`).
#[derive(Debug, Clone)]
pub(crate) struct Active {
    pub request: ServeRequest,
    pub cursor: usize,
    /// Per-layer solo step times, carried from the [`Pending`] entry.
    pub layer_s: Rc<[f64]>,
    /// When the request joined the active set (telemetry: end of its
    /// queued interval, start of its serving interval).
    pub joined_s: f64,
    /// Requeue attempts consumed so far.
    pub attempt: u32,
    /// Worst (highest) brownout accuracy loss any of this request's
    /// dispatched layers ran at, percent. 0 on the healthy path.
    pub loss_pct: f64,
}

/// Wall-clock anchors of one executed layer step, as handed to the
/// telemetry emitter: step start, the weight-upload interval ahead of
/// compute, and the session-state rebuild (0 on the healthy path).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepTiming {
    pub t0: f64,
    pub upload_s: f64,
    pub re_prefill_s: f64,
}

/// A finished request, as reported by the runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The request id.
    pub id: u64,
    /// Class name of the request.
    pub class: &'static str,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Completion time, seconds.
    pub finish_s: f64,
    /// Which replica served it.
    pub replica: usize,
    /// Whether the class deadline (if any) was met.
    pub deadline_met: Option<bool>,
    /// Crash-eviction requeues the request survived before finishing
    /// (0 on the healthy path).
    pub retries: u32,
    /// Worst brownout accuracy loss any of the request's layers was
    /// served at, percent (quality-loss attribution; 0.0 when the serving
    /// replicas stayed at the baseline operating point throughout).
    pub accuracy_loss_pct: f64,
    /// Owning tenant id (0 in single-tenant configurations).
    pub tenant: u32,
    /// Decode-session turn this completion closed (`None` for ordinary
    /// requests). Feeds inter-token latency and session-conservation
    /// accounting.
    pub session: Option<SessionTurn>,
}

impl Completion {
    /// End-to-end latency, seconds.
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }
}

/// One replica's mutable serving state.
#[derive(Debug, Clone)]
pub(crate) struct Replica {
    pub index: usize,
    pub system: CtaSystem,
    /// Time up to which the replica's schedule is committed.
    pub clock: f64,
    /// Total wall-clock time spent executing steps.
    pub busy_s: f64,
    /// Queue ordered by (priority desc, arrival asc, id asc). Private,
    /// like `active` and `resident_sessions`: every mutation goes through
    /// a method that invalidates the matching cached work term.
    queue: Vec<Pending>,
    active: Vec<Active>,
    pub completed: usize,
    /// Whether the replica is healthy. Down replicas hold no work, take
    /// no arrivals and schedule no steps.
    pub up: bool,
    /// When the current outage began (meaningful only while `!up`).
    pub down_since: f64,
    /// Total seconds spent down (for availability metrics).
    pub down_s: f64,
    /// Whether the host link to this replica is intact. A partitioned
    /// replica (`!reachable`) is *not* down: it holds its work stranded
    /// (no steps dispatch, nothing is evicted) until the link heals.
    pub reachable: bool,
    /// When the current partition began (meaningful only while
    /// `!reachable`).
    pub partition_since: f64,
    /// Current brownout ladder level (0 = baseline; only the overload
    /// controller moves it).
    pub level: u8,
    /// Cluster-budget scale of the current level (1.0 at baseline).
    pub level_scale: f64,
    /// Accuracy loss of the current level, percent (0.0 at baseline).
    pub level_loss_pct: f64,
    /// Static display name of the current level (for the trace lane).
    pub level_name: &'static str,
    /// Total step wall-clock executed while degraded, seconds.
    pub brownout_s: f64,
    /// Decode sessions whose compression state lives on this replica:
    /// `(session id, occupancy hold seconds)`. The hold — the cost of
    /// rebuilding the state elsewhere — is folded into
    /// [`outstanding_s`](Self::outstanding_s) so routing sees resident
    /// state as load. Empty on non-session fleets (bitwise-dormant).
    resident_sessions: Vec<(u64, f64)>,
    /// Cached terms of [`outstanding_s`](Self::outstanding_s): the summed
    /// remaining service of `active`, the summed estimates of `queue`,
    /// and the summed holds of `resident_sessions`. `None` means stale;
    /// each is cleared only by the methods that mutate its vector.
    active_work_s: Option<f64>,
    queued_work_s: Option<f64>,
    held_work_s: Option<f64>,
    /// Working buffers of [`execute_step`](Self::execute_step), kept so
    /// a steady-state step allocates nothing: the merged head tasks of
    /// the dispatch and their costs (refilled at every step), and the
    /// requests retiring at the step boundary (always empty between
    /// steps).
    merged: Vec<AttentionTask>,
    costs: Vec<TaskCost>,
    retired: Vec<Active>,
}

impl Replica {
    pub fn new(index: usize, system: CtaSystem) -> Self {
        Self {
            index,
            system,
            clock: 0.0,
            busy_s: 0.0,
            queue: Vec::new(),
            active: Vec::new(),
            completed: 0,
            up: true,
            down_since: 0.0,
            down_s: 0.0,
            reachable: true,
            partition_since: 0.0,
            level: 0,
            level_scale: 1.0,
            level_loss_pct: 0.0,
            level_name: crate::overload::LEVEL_NAMES[0],
            brownout_s: 0.0,
            resident_sessions: Vec::new(),
            active_work_s: None,
            queued_work_s: None,
            held_work_s: None,
            merged: Vec::new(),
            costs: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// Moves the replica to brownout `level` of `ladder` (controller
    /// action; does not touch in-flight work — the next layer step
    /// dispatches at the new operating point).
    pub fn set_level(&mut self, ladder: &crate::BrownoutLadder, level: usize) {
        let point = ladder.level(level);
        self.level = level as u8;
        self.level_scale = point.budget_scale;
        self.level_loss_pct = point.accuracy_loss_pct;
        self.level_name = ladder.level_name(level);
    }

    /// Removes every copy of request `id` from the queue and active set
    /// (hedge-loser cancellation; active copies are cancelled here, i.e.
    /// at a layer boundary — the runtime only calls this between steps).
    /// Returns how many copies were removed.
    pub fn cancel_request(&mut self, id: u64) -> usize {
        let before = self.queue.len() + self.active.len();
        self.queue.retain(|p| p.request.id != id);
        self.active.retain(|a| a.request.id != id);
        let removed = before - (self.queue.len() + self.active.len());
        if removed > 0 {
            self.queued_work_s = None;
            self.active_work_s = None;
        }
        removed
    }

    /// Records that `session`'s compression state now lives here, holding
    /// `hold_s` seconds of occupancy.
    pub fn hold_session(&mut self, session: u64, hold_s: f64) {
        self.resident_sessions.push((session, hold_s));
        self.held_work_s = None;
    }

    /// Releases `session`'s resident state, if held here.
    pub fn release_session(&mut self, session: u64) {
        self.resident_sessions.retain(|(s, _)| *s != session);
        self.held_work_s = None;
    }

    /// Drops every resident session (a crash wipes the replica's state),
    /// returning the evicted `(session id, hold)` entries.
    pub fn evict_sessions(&mut self) -> Vec<(u64, f64)> {
        self.held_work_s = None;
        std::mem::take(&mut self.resident_sessions)
    }

    /// Whether any copy of request `id` is queued or active here.
    pub fn holds_request(&self, id: u64) -> bool {
        self.queue.iter().any(|p| p.request.id == id)
            || self.active.iter().any(|a| a.request.id == id)
    }

    /// Requests queued but not yet running.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Requests queued or running.
    pub fn load(&self) -> usize {
        self.queue.len() + self.active.len()
    }

    /// Estimated seconds of work the replica still owes as of `now`:
    /// committed schedule beyond `now`, plus remaining layers of active
    /// requests, plus solo estimates of everything queued, plus resident
    /// session holds.
    ///
    /// Only `committed` depends on `now`; the other three terms are
    /// cached sums, recomputed from scratch (same values, same order, so
    /// the same bits) on the first call after a mutation cleared them:
    /// the active term by [`execute_step`](Self::execute_step),
    /// [`crash`](Self::crash) and [`cancel_request`](Self::cancel_request);
    /// the queued term by those plus [`enqueue`](Self::enqueue); the held
    /// term by the resident-session methods. Routing therefore costs
    /// O(1) per untouched replica.
    pub fn outstanding_s(&mut self, now: f64) -> f64 {
        let committed = (self.clock - now).max(0.0);
        let upload_s = self.system.weight_upload_s();
        let active = *self.active_work_s.get_or_insert_with(|| {
            self.active
                .iter()
                .map(|a| remaining_from_layers_s(upload_s, &a.layer_s, a.cursor))
                .sum()
        });
        let queued = *self
            .queued_work_s
            .get_or_insert_with(|| self.queue.iter().map(|p| p.est_service_s).sum());
        let mut total = committed + active + queued;
        // Resident session state occupies the replica (SRAM + the debt of
        // rebuilding it elsewhere); the guard keeps the non-session
        // fleet's arithmetic bit-for-bit the pre-session expression.
        if !self.resident_sessions.is_empty() {
            total += *self
                .held_work_s
                .get_or_insert_with(|| self.resident_sessions.iter().map(|(_, h)| h).sum());
        }
        total
    }

    /// Inserts into the queue keeping (priority desc, arrival asc, id asc)
    /// order.
    pub fn enqueue(&mut self, pending: Pending) {
        let key = |p: &Pending| {
            (core::cmp::Reverse(p.request.class.priority), p.request.arrival_s, p.request.id)
        };
        let pos = self
            .queue
            .binary_search_by(|probe| {
                let (ap, aa, ai) = key(probe);
                let (bp, ba, bi) = key(&pending);
                ap.cmp(&bp).then(aa.partial_cmp(&ba).expect("finite arrivals")).then(ai.cmp(&bi))
            })
            .unwrap_or_else(|e| e);
        self.queue.insert(pos, pending);
        self.queued_work_s = None;
    }

    /// Marks the replica down at `t`, draining its remaining work for the
    /// runtime to requeue or shed: mid-flight actives first (keeping their
    /// layer progress — steps are atomic, so every completed layer's
    /// activations already reached the host), then the queue in priority
    /// order.
    pub fn crash(&mut self, t: f64) -> Vec<Pending> {
        self.up = false;
        self.down_since = t;
        self.active_work_s = None;
        self.queued_work_s = None;
        let mut orphans: Vec<Pending> = self
            .active
            .drain(..)
            .map(|a| Pending {
                request: a.request,
                est_service_s: 0.0, // re-estimated at requeue
                layer_s: a.layer_s,
                resume_cursor: a.cursor,
                attempt: a.attempt,
                re_prefill_s: 0.0, // re-assessed when placed again
            })
            .collect();
        orphans.append(&mut self.queue);
        orphans
    }

    /// Brings the replica back at `t`. Its schedule resumes no earlier
    /// than the recovery instant.
    pub fn recover(&mut self, t: f64) {
        self.up = true;
        self.down_s += t - self.down_since;
        self.clock = self.clock.max(t);
    }

    /// Cuts the host link at `t`: queued and mid-flight work is stranded
    /// in place (steps pause at the next atomic layer boundary — the
    /// replica cannot stream activations back to the host), nothing is
    /// evicted.
    pub fn partition_start(&mut self, t: f64) {
        self.reachable = false;
        self.partition_since = t;
    }

    /// Heals the host link at `t`. The stranded schedule resumes no
    /// earlier than the heal instant.
    pub fn partition_heal(&mut self, t: f64) {
        self.reachable = true;
        self.clock = self.clock.max(t);
    }

    /// When the replica will next dispatch a layer step, or `None` if it
    /// has no work, is down, or is partitioned from the host.
    pub fn next_step_time(&self) -> Option<f64> {
        if !self.up || !self.reachable {
            return None;
        }
        if !self.active.is_empty() {
            return Some(self.clock);
        }
        self.queue
            .iter()
            .map(|p| p.request.arrival_s)
            .min_by(|a, b| a.partial_cmp(b).expect("finite arrivals"))
            .map(|earliest| self.clock.max(earliest))
    }

    /// Executes one layer step at its scheduled time, appending finished
    /// requests to `completions` and emitting telemetry to `sink`. Returns
    /// the step's start time.
    ///
    /// The sink is generic so the disabled implementation
    /// ([`cta_telemetry::NullSink`]) compiles away: with tracing off this
    /// is the exact pre-telemetry step function, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the replica has no work.
    pub fn execute_step<S: TraceSink>(
        &mut self,
        batch: &BatchPolicy,
        faults: &FaultPlan,
        cost: &mut CostModel,
        completions: &mut Vec<Completion>,
        sink: &mut S,
    ) -> f64 {
        let t0 = self.next_step_time().expect("execute_step needs work");
        let runtime = TrackId::new(self.index as u32, Module::Runtime);
        // Batch joins drain the queue and every cursor advances.
        self.active_work_s = None;
        self.queued_work_s = None;

        // Continuous batching: pull arrived queued requests into the
        // active set at this layer boundary, in queue (priority) order.
        let mut upload_s = 0.0;
        let mut re_prefill_s = 0.0;
        let mut i = 0;
        while self.active.len() < batch.max_active_requests && i < self.queue.len() {
            if self.queue[i].request.arrival_s <= t0 {
                let p = self.queue.remove(i);
                // Each joining request pays its one-time weight upload
                // before its first layer can run.
                upload_s += self.system.weight_upload_s();
                // A session turn landing on a replica that does not hold
                // its compression state additionally rebuilds the prefix
                // (charged once, like the upload; 0 on the sticky path).
                if p.re_prefill_s > 0.0 {
                    re_prefill_s += p.re_prefill_s;
                }
                if S::ENABLED {
                    // The request's queued interval ends at this batch
                    // join.
                    sink.async_span(runtime, "queued", p.request.id, p.request.arrival_s, t0);
                    sink.instant(runtime, "batch-join", t0);
                }
                self.active.push(Active {
                    request: p.request,
                    cursor: p.resume_cursor,
                    layer_s: p.layer_s,
                    joined_s: t0,
                    attempt: p.attempt,
                    loss_pct: 0.0,
                });
            } else {
                i += 1;
            }
        }
        // Host-link stall: uploads inside a stall window take longer. The
        // guard keeps the healthy path's arithmetic untouched.
        if upload_s > 0.0 {
            let link = faults.link_factor(self.index, t0);
            if link != 1.0 {
                upload_s *= link;
            }
        }
        assert!(!self.active.is_empty(), "step with an empty active set");
        if S::ENABLED {
            sink.counter(runtime, "queue_depth", t0, self.queue.len() as f64);
            sink.counter(runtime, "active_requests", t0, self.active.len() as f64);
        }

        // Merge every active request's current layer into one dispatch,
        // degraded to the replica's brownout operating point when the
        // controller has moved it off baseline. The `degraded` guard keeps
        // the baseline path's float arithmetic bit-for-bit the
        // pre-brownout expression (memo keys changed shape, values did
        // not).
        let degraded = self.level != 0;
        self.merged.clear();
        self.costs.clear();
        for a in &self.active {
            // Session turns price each layer as a decode segment (per-
            // token incremental compression at the resident prefix)
            // instead of a full prefill. Decode segments run at the
            // nominal operating point — brownout shrinks the *prefill*
            // cluster budget, which decode inherits through its prefix.
            let turn = a.request.session;
            for t in &a.request.layer_tasks[a.cursor] {
                if degraded {
                    self.merged.push(t.with_budget_scale(self.level_scale));
                } else {
                    self.merged.push(*t);
                }
                self.costs.push(match &turn {
                    Some(st) => cost.decode_head(&self.system, t, st),
                    None => cost.head_at(&self.system, self.level, self.level_scale, t),
                });
            }
        }
        let step = self.system.step_layer_costed(&self.merged, &self.costs);
        // Transient slowdown: steps starting inside a window stretch by
        // the plan's factor. Guarded so the healthy path's float
        // arithmetic is bit-for-bit the pre-fault expression.
        let mut step_elapsed = step.elapsed_s;
        let slow = faults.step_factor(self.index, t0);
        if slow != 1.0 {
            step_elapsed *= slow;
        }
        let mut elapsed = upload_s + step_elapsed;
        if re_prefill_s > 0.0 {
            elapsed += re_prefill_s;
        }
        self.clock = t0 + elapsed;
        self.busy_s += elapsed;
        if degraded {
            self.brownout_s += elapsed;
        }

        if S::ENABLED {
            let timing = StepTiming { t0, upload_s, re_prefill_s };
            self.trace_step(sink, cost, timing, &self.merged, &step);
            if degraded {
                // The whole degraded step lands on the brownout lane,
                // named after the operating point, so AggregateReport can
                // attribute time-in-brownout per replica and per level.
                let brownout = TrackId::new(self.index as u32, Module::Brownout);
                sink.span(brownout, self.level_name, t0, self.clock, SpanClass::Control, false);
            }
            // The stretch beyond the nominal step lands on the fault lane
            // as a bubble: time the replica was occupied but degraded.
            let extra = step_elapsed - step.elapsed_s;
            if extra > 0.0 {
                let fault = TrackId::new(self.index as u32, Module::Fault);
                sink.span(
                    fault,
                    "slowdown",
                    self.clock - extra,
                    self.clock,
                    SpanClass::Fault,
                    true,
                );
            }
        }

        // Advance cursors; retire finished requests at the step boundary.
        let level_loss = self.level_loss_pct;
        for a in &mut self.active {
            a.cursor += 1;
            if degraded && level_loss > a.loss_pct {
                a.loss_pct = level_loss;
            }
        }
        let finish = self.clock;
        let index = self.index;
        // Finished requests move out in active order, then complete in a
        // deterministic order at equal finish time: by id.
        self.retired
            .extend(self.active.extract_if(.., |a| a.request.remaining_layers(a.cursor) == 0));
        self.retired.sort_by_key(|a| a.request.id);
        for a in self.retired.drain(..) {
            let latency = finish - a.request.arrival_s;
            self.completed += 1;
            if S::ENABLED {
                sink.async_span(runtime, "serving", a.request.id, a.joined_s, finish);
                sink.instant(runtime, "complete", finish);
            }
            completions.push(Completion {
                id: a.request.id,
                class: a.request.class.name,
                arrival_s: a.request.arrival_s,
                finish_s: finish,
                replica: index,
                deadline_met: a.request.class.deadline_s.map(|d| latency <= d),
                retries: a.attempt,
                accuracy_loss_pct: a.loss_pct,
                tenant: a.request.tenant,
                session: a.request.session,
            });
        }
        t0
    }

    /// Emits the telemetry layout of one executed layer step: host-link
    /// upload/transfer spans, SA phase spans (compression → linear →
    /// attention, with the PAG-stall tail flagged as a bubble), and
    /// auxiliary-module overlays. Phase boundaries inside the step's
    /// critical path follow the merged tasks' memoised
    /// [`cta_sim::PhaseSplit`] proportions, so summed span seconds per
    /// class reconcile with `SystemRun` totals (the reconciliation
    /// integration test pins this).
    fn trace_step<S: TraceSink>(
        &self,
        sink: &mut S,
        cost: &mut CostModel,
        timing: StepTiming,
        merged: &[AttentionTask],
        step: &cta_sim::LayerStep,
    ) {
        let StepTiming { t0, upload_s, re_prefill_s } = timing;
        let replica = self.index as u32;
        let host = TrackId::new(replica, Module::Host);
        let sa = TrackId::new(replica, Module::Sa);
        let mut c0 = t0 + upload_s;
        // `self.clock` (already advanced past this step) lower-bounds the
        // next step's start time; capping span ends there absorbs the
        // 1-ulp float-associativity drift between `c0 + interval` and the
        // clock update `t0 + (upload + elapsed)`, keeping per-track spans
        // non-overlapping.
        let end_cap = self.clock;
        sink.span(host, "weight-upload", t0, c0, SpanClass::Upload, false);
        // A session-state rebuild runs between the upload and the layer's
        // compute; with no re-prefill this block emits nothing and `c0`
        // is bit-for-bit the pre-session expression.
        if re_prefill_s > 0.0 {
            let rp_end = (c0 + re_prefill_s).min(end_cap);
            sink.span(sa, "session-re-prefill", c0, rp_end, SpanClass::Compression, false);
            c0 = rp_end;
        }
        let transfer_end = (c0 + step.transfer_s).min(end_cap);
        sink.span(host, "activation-transfer", c0, transfer_end, SpanClass::Transfer, false);

        let mut comp = 0.0;
        let mut lin = 0.0;
        let mut att = 0.0;
        let mut stall = 0.0;
        for t in merged {
            // `merged` already holds the degraded shapes, so the split is
            // keyed at the *degraded* shape under the current level — it
            // can't alias the baseline entry for the same nominal shape.
            let ps = cost.phase_split_at(&self.system, self.level, 1.0, t);
            comp += ps.compression_s;
            lin += ps.linear_s;
            att += ps.attention_s;
            stall += ps.pag_stall_s;
        }
        let total = comp + lin + att;
        if total <= 0.0 || step.critical_s <= 0.0 {
            return;
        }
        // Scale the summed per-head phase seconds onto the LPT critical
        // path; the final boundary is forced exactly to the step end so
        // successive steps stay non-overlapping.
        let scale = step.critical_s / total;
        let end = (c0 + step.critical_s).min(end_cap);
        let comp_end = (c0 + comp * scale).min(end);
        let lin_end = (comp_end + lin * scale).min(end);
        let stall_s = (stall * scale).min(end - lin_end).max(0.0);
        let att_work_end = end - stall_s;
        sink.span(sa, "compression", c0, comp_end, SpanClass::Compression, false);
        sink.span(sa, "linear", comp_end, lin_end, SpanClass::Linear, false);
        sink.span(sa, "attention", lin_end, att_work_end, SpanClass::Attention, false);
        sink.span(sa, "pag-stall", att_work_end, end, SpanClass::Attention, true);
        // Auxiliary-module overlays (visual lanes; phase aggregation only
        // counts the SA track).
        let cim = TrackId::new(replica, Module::Cim);
        let cag = TrackId::new(replica, Module::Cag);
        let pag = TrackId::new(replica, Module::Pag);
        sink.span(cim, "cluster-index", c0, comp_end, SpanClass::Compression, false);
        sink.span(cag, "centroid-agg", c0, comp_end, SpanClass::Compression, false);
        sink.span(pag, "probability-agg", lin_end, end, SpanClass::Attention, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QosClass;
    use cta_sim::{AttentionTask, SystemConfig};

    fn task() -> AttentionTask {
        AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6)
    }

    fn replica() -> Replica {
        Replica::new(0, CtaSystem::new(SystemConfig::paper()))
    }

    /// Placeholder per-layer times for tests that never read the
    /// outstanding-work estimate.
    fn priced(layers: usize) -> Rc<[f64]> {
        vec![0.0; layers].into()
    }

    fn pending(id: u64, arrival: f64, class: QosClass) -> Pending {
        Pending::fresh(ServeRequest::uniform(id, arrival, class, task(), 2, 4), 0.0, priced(2))
    }

    #[test]
    fn queue_orders_priority_then_arrival_then_id() {
        let mut r = replica();
        r.enqueue(pending(3, 5.0, QosClass::batch()));
        r.enqueue(pending(1, 6.0, QosClass::interactive(1.0)));
        r.enqueue(pending(2, 4.0, QosClass::batch()));
        r.enqueue(pending(4, 4.0, QosClass::batch()));
        let ids: Vec<u64> = r.queue.iter().map(|p| p.request.id).collect();
        assert_eq!(ids, vec![1, 2, 4, 3]);
    }

    #[test]
    fn idle_replica_with_no_work_has_no_step() {
        assert_eq!(replica().next_step_time(), None);
    }

    #[test]
    fn step_time_waits_for_earliest_arrival() {
        let mut r = replica();
        r.enqueue(pending(1, 3.0, QosClass::batch()));
        r.enqueue(pending(0, 2.0, QosClass::batch()));
        assert_eq!(r.next_step_time(), Some(2.0));
        r.clock = 10.0;
        assert_eq!(r.next_step_time(), Some(10.0));
    }

    #[test]
    fn unbatched_steps_serve_one_request_to_completion_first() {
        let mut r = replica();
        let mut cost = CostModel::new();
        r.enqueue(pending(0, 0.0, QosClass::standard()));
        r.enqueue(pending(1, 0.0, QosClass::standard()));
        let mut done = Vec::new();
        // 2 layers per request; batching off: 4 steps total, first two
        // steps complete request 0.
        let batch = BatchPolicy::off();
        let faults = FaultPlan::none();
        r.execute_step(&batch, &faults, &mut cost, &mut done, &mut cta_telemetry::NullSink);
        r.execute_step(&batch, &faults, &mut cost, &mut done, &mut cta_telemetry::NullSink);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 0);
        r.execute_step(&batch, &faults, &mut cost, &mut done, &mut cta_telemetry::NullSink);
        r.execute_step(&batch, &faults, &mut cost, &mut done, &mut cta_telemetry::NullSink);
        assert_eq!(done.len(), 2);
        assert_eq!(done[1].id, 1);
        assert!(done[1].finish_s > done[0].finish_s);
    }

    #[test]
    fn batching_merges_layers_and_finishes_together() {
        let mut r = replica();
        let mut cost = CostModel::new();
        r.enqueue(pending(0, 0.0, QosClass::standard()));
        r.enqueue(pending(1, 0.0, QosClass::standard()));
        let mut done = Vec::new();
        let batch = BatchPolicy::up_to(4);
        let faults = FaultPlan::none();
        r.execute_step(&batch, &faults, &mut cost, &mut done, &mut cta_telemetry::NullSink);
        assert_eq!(r.active.len(), 2, "both requests batched");
        r.execute_step(&batch, &faults, &mut cost, &mut done, &mut cta_telemetry::NullSink);
        assert_eq!(done.len(), 2, "both finish at the final merged layer");
        assert_eq!(done[0].finish_s, done[1].finish_s);
        assert_eq!((done[0].id, done[1].id), (0, 1));
    }

    #[test]
    fn crash_evicts_actives_with_progress_then_queue() {
        let mut r = replica();
        let mut cost = CostModel::new();
        r.enqueue(pending(0, 0.0, QosClass::standard()));
        r.enqueue(pending(1, 0.0, QosClass::standard()));
        let mut done = Vec::new();
        // Batching off: one step runs request 0's first layer only.
        let batch = BatchPolicy::off();
        r.execute_step(
            &batch,
            &FaultPlan::none(),
            &mut cost,
            &mut done,
            &mut cta_telemetry::NullSink,
        );
        assert!(done.is_empty());
        let t = r.clock;
        let orphans = r.crash(t);
        assert!(!r.up);
        assert_eq!(r.next_step_time(), None, "down replica schedules nothing");
        assert_eq!(orphans.len(), 2);
        // Mid-flight request first, with its completed layer retained.
        assert_eq!(orphans[0].request.id, 0);
        assert_eq!(orphans[0].resume_cursor, 1);
        assert_eq!(orphans[1].request.id, 1);
        assert_eq!(orphans[1].resume_cursor, 0);
        r.recover(t + 1.0);
        assert!(r.up);
        assert!((r.down_s - 1.0).abs() < 1e-12, "down for ~1 s, got {}", r.down_s);
        assert!(r.clock >= t + 1.0);
    }

    #[test]
    fn batched_throughput_beats_fifo_on_small_head_counts() {
        // 4-head layers on 12 units: two requests' layers fit side by
        // side, so batching should finish the pair strictly earlier. The
        // task is compute-heavy (few queries, many keys) so the merged
        // step is critical-path-bound, not host-link-bound — a
        // transfer-bound step costs the same merged or not under the
        // paper config's overlapped transfers.
        let heavy = AttentionTask::from_counts(16, 512, 64, 8, 180, 40, 6);
        let run = |batch: BatchPolicy| {
            let mut r = replica();
            let mut cost = CostModel::new();
            for id in 0..2 {
                r.enqueue(Pending::fresh(
                    ServeRequest::uniform(id, 0.0, QosClass::standard(), heavy, 2, 4),
                    0.0,
                    priced(2),
                ));
            }
            let mut done = Vec::new();
            let faults = FaultPlan::none();
            while r.next_step_time().is_some() {
                r.execute_step(&batch, &faults, &mut cost, &mut done, &mut cta_telemetry::NullSink);
            }
            done.iter().map(|c| c.finish_s).fold(0.0, f64::max)
        };
        let fifo = run(BatchPolicy::off());
        let batched = run(BatchPolicy::up_to(2));
        assert!(batched < fifo, "batched {batched} vs fifo {fifo}");
    }

    /// The uncached estimate: every active request's remaining service
    /// re-priced through [`CostModel::remaining_service_s`], every queued
    /// estimate and every resident hold re-summed.
    fn reference_outstanding_s(r: &Replica, cost: &mut CostModel, now: f64) -> f64 {
        let committed = (r.clock - now).max(0.0);
        let active: f64 = r
            .active
            .iter()
            .map(|a| cost.remaining_service_s(&r.system, &a.request, a.cursor))
            .sum();
        let queued: f64 = r.queue.iter().map(|p| p.est_service_s).sum();
        let mut total = committed + active + queued;
        if !r.resident_sessions.is_empty() {
            total += r.resident_sessions.iter().map(|(_, h)| h).sum::<f64>();
        }
        total
    }

    #[test]
    fn cached_outstanding_work_matches_a_from_scratch_sum_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let shapes = [
            task(),
            AttentionTask::from_counts(16, 512, 64, 8, 180, 40, 6),
            AttentionTask::from_counts(64, 64, 64, 30, 25, 10, 6),
        ];
        let classes = [QosClass::standard(), QosClass::batch(), QosClass::interactive(1e-3)];
        let ladder = crate::BrownoutLadder::standard();
        for seed in 0..12 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut r = replica();
            let sys = r.system.clone();
            let mut cost = CostModel::new();
            let batch = BatchPolicy::up_to(rng.gen_range(1..5usize));
            let faults = FaultPlan::none();
            let mut done = Vec::new();
            let mut orphans: Vec<Pending> = Vec::new();
            let mut next_id = 0u64;
            let mut now = 0.0f64;
            for step in 0..300 {
                now += rng.gen_range(0.0..4e-6);
                match rng.gen_range(0..10u32) {
                    // A fresh admission, a third of them session turns
                    // (some paying a re-prefill, as off-replica turns do).
                    0..=2 => {
                        let layers = rng.gen_range(1..5usize);
                        let shape = shapes[rng.gen_range(0..shapes.len())];
                        let class = classes[rng.gen_range(0..classes.len())];
                        let heads = rng.gen_range(1..4usize);
                        let mut req =
                            ServeRequest::uniform(next_id, now, class, shape, layers, heads);
                        next_id += 1;
                        if rng.gen_range(0..3u32) == 0 {
                            req = req.with_session(SessionTurn {
                                session: rng.gen_range(0..6u64),
                                turn: rng.gen_range(0..4u32),
                                decode_tokens: rng.gen_range(1..8u32),
                                reclusters: rng.gen_range(0..2u32),
                                last: false,
                            });
                        }
                        let layer_s = cost.layer_times_s(&sys, &req);
                        let est = cost.request_service_s(&sys, &req);
                        let mut p = Pending::fresh(req, est, layer_s);
                        if p.request.session.is_some() && rng.gen::<bool>() {
                            p.re_prefill_s = cost.session_prefill_s(&sys, &p.request);
                            p.est_service_s += p.re_prefill_s;
                        }
                        r.enqueue(p);
                    }
                    // A crash orphan re-placed with its remaining work.
                    3 => {
                        if let Some(mut p) = orphans.pop() {
                            p.est_service_s =
                                cost.remaining_service_s(&sys, &p.request, p.resume_cursor);
                            r.enqueue(p);
                        }
                    }
                    4 | 5 => {
                        if r.next_step_time().is_some() {
                            r.execute_step(
                                &batch,
                                &faults,
                                &mut cost,
                                &mut done,
                                &mut cta_telemetry::NullSink,
                            );
                        }
                    }
                    6 => {
                        if r.up {
                            orphans.extend(r.crash(now));
                            r.evict_sessions();
                        } else {
                            r.recover(now);
                        }
                    }
                    7 => {
                        if next_id > 0 {
                            r.cancel_request(rng.gen_range(0..next_id));
                        }
                    }
                    8 => {
                        if rng.gen::<bool>() {
                            r.hold_session(rng.gen_range(0..6u64), rng.gen_range(0.0..1e-4));
                        } else {
                            r.release_session(rng.gen_range(0..6u64));
                        }
                    }
                    _ => r.set_level(&ladder, rng.gen_range(0..=ladder.max_level())),
                }
                // Probe before, at and past the committed schedule, twice
                // each so the second read comes from the cache.
                for _ in 0..2 {
                    let probe = match rng.gen_range(0..3u32) {
                        0 => now,
                        1 => r.clock,
                        _ => r.clock * rng.gen_range(0.5..1.5),
                    };
                    let want = reference_outstanding_s(&r, &mut cost, probe);
                    let got = r.outstanding_s(probe);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "seed {seed} step {step}: cached {got} vs from-scratch {want}"
                    );
                }
            }
            assert!(!done.is_empty(), "seed {seed}: the sequence must complete work");
        }
    }
}
