//! Memoised per-task cost estimation.
//!
//! Scheduling decisions (routing, admission, batch assembly) need task
//! costs *without* re-running the cycle-level simulator on every dispatch.
//! [`cta_sim::CtaSystem::head_cost`] depends only on the task shape, the
//! hardware configuration, and — since the brownout subsystem — the
//! operating point the dispatching replica runs at, so a fleet of
//! identical-configuration replicas can share one memo: each distinct
//! `(operating point, AttentionTask)` pair is simulated exactly once per
//! sweep, no matter how many requests, replicas, or layer dispatches
//! reference it.
//!
//! The key carries the operating-point *level* explicitly rather than the
//! degraded shape: two replicas at different brownout levels can dispatch
//! the same nominal shape and must never read each other's memo entry
//! (level 1's cheaper cost for level 0's dispatch would corrupt every
//! estimate downstream). Level 0 is always the undegraded baseline, so
//! the pre-brownout entry points delegate to it unchanged.
//!
//! Every layer step looks its heads up here, so the maps hash with the
//! crate's Fx hasher (`crate::fx`) rather than SipHash. Pricing a request
//! ([`CostModel::layer_times_s`]) leans on one more property: a layer
//! step is a pure function of its head tasks, so a run of identical
//! consecutive layers is priced once, with the same bits. The pricing
//! also tabulates the request's remaining work at every cursor and marks
//! which layers repeat the one before, so neither routing nor a
//! replica's step memo ever re-derives them.

use std::rc::Rc;

use cta_sim::{AttentionTask, CtaSystem, LayerStep, PhaseSplit, TaskCost};

use crate::fx::FxHashMap;
use crate::{ServeRequest, SessionTurn};

/// A memo of per-task costs for one hardware configuration.
///
/// All replicas in a [`FleetConfig`](crate::FleetConfig) share the same
/// [`cta_sim::SystemConfig`], so the cache is keyed by (brownout level,
/// task shape). `scale` is the level's cluster-budget scale; the memo
/// trusts the caller to pass the same scale for the same level (the
/// runtime derives both from one [`BrownoutLadder`](crate::BrownoutLadder)).
#[derive(Debug, Default, Clone)]
pub struct CostModel {
    cache: FxHashMap<(u8, AttentionTask), TaskCost>,
    /// Per-(level, shape) phase splits, filled lazily and only when
    /// telemetry asks for them (the untraced hot path never touches this
    /// map).
    phases: FxHashMap<(u8, AttentionTask), PhaseSplit>,
    /// Decode-segment costs, keyed by the full decode shape: the
    /// steady-state prefix task plus the segment's token and re-cluster
    /// counts. Only session-tagged requests touch this map.
    decode: FxHashMap<(AttentionTask, u32, u32), TaskCost>,
    /// Working buffers kept across calls so pricing allocates only the
    /// table it returns: one layer's head costs, and a request's layer
    /// prices before they are copied into their shared allocation.
    costs: Vec<TaskCost>,
    prices: Vec<LayerPrice>,
}

/// One cursor's entry of a [`LayerTimes`] table.
#[derive(Debug, Clone, Copy)]
struct LayerPrice {
    /// Solo step time of the layer at this cursor (0 at the finished
    /// cursor).
    step_s: f64,
    /// Remaining service from this cursor:
    /// `remaining_from_layers_s(upload, steps, cursor)`.
    remaining_s: f64,
    /// Whether this layer's head tasks equal the previous layer's.
    repeats: bool,
}

/// A request's admission pricing, in one shared allocation: every
/// layer's solo step time and whether its head tasks repeat the previous
/// layer's, plus the remaining work at every cursor `0..=layers`. Built
/// once by [`CostModel::layer_times_s`] and carried by the request
/// through queues, batch joins, crash evictions, retries and hedges.
#[derive(Debug, Clone)]
pub(crate) struct LayerTimes(Rc<[LayerPrice]>);

impl LayerTimes {
    /// A table over given step times, with no layer marked as repeating
    /// (tests that steer outstanding work without pricing tasks).
    #[cfg(test)]
    pub fn from_steps(upload_s: f64, steps: &[f64]) -> Self {
        let finished = LayerPrice { step_s: 0.0, remaining_s: 0.0, repeats: false };
        let mut prices: Vec<LayerPrice> = steps
            .iter()
            .map(|&step_s| LayerPrice { step_s, ..finished })
            .chain(std::iter::once(finished))
            .collect();
        fill_remaining(upload_s, &mut prices);
        Self(prices.into())
    }

    /// Number of layers priced.
    #[cfg(test)]
    pub fn layers(&self) -> usize {
        self.0.len() - 1
    }

    /// Solo step time of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= self.layers()`.
    #[cfg(test)]
    pub fn step_s(&self, layer: usize) -> f64 {
        self.0[..self.layers()][layer].step_s
    }

    /// Remaining service of the request once its first `cursor` layers
    /// have run: the weight upload (at `cursor == 0` only) plus the
    /// remaining layers' step times summed in layer order.
    pub fn remaining_s(&self, cursor: usize) -> f64 {
        self.0[cursor].remaining_s
    }

    /// Whether `layer`'s head tasks equal layer `layer - 1`'s (false for
    /// layer 0): a replica stepping every request of an unchanged batch
    /// onto a repeating layer dispatches the same tasks again.
    pub fn repeats(&self, layer: usize) -> bool {
        self.0[layer].repeats
    }
}

impl CostModel {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct (operating point, task shape) pairs simulated so
    /// far.
    pub fn distinct_shapes(&self) -> usize {
        self.cache.len()
    }

    /// The cost of one head task at the baseline operating point,
    /// simulating it on first sight.
    pub fn head(&mut self, system: &CtaSystem, task: &AttentionTask) -> TaskCost {
        self.head_at(system, 0, 1.0, task)
    }

    /// The cost of one head task at operating point `level` whose
    /// cluster-budget scale is `scale` (1.0 at level 0). The memo entry is
    /// keyed by `(level, *task)` — the *nominal* shape — so distinct
    /// operating points can never alias.
    pub fn head_at(
        &mut self,
        system: &CtaSystem,
        level: u8,
        scale: f64,
        task: &AttentionTask,
    ) -> TaskCost {
        *self.cache.entry((level, *task)).or_insert_with(|| {
            if scale == 1.0 {
                system.head_cost(task)
            } else {
                system.head_cost(&task.with_budget_scale(scale))
            }
        })
    }

    /// The wall-clock phase split of one head task at the baseline
    /// operating point, scheduling it on first sight. Used by telemetry to
    /// lay phase spans out inside a layer step; memoised separately from
    /// [`head`](Self::head) so untraced runs never pay for it.
    pub fn phase_split(&mut self, system: &CtaSystem, task: &AttentionTask) -> PhaseSplit {
        self.phase_split_at(system, 0, 1.0, task)
    }

    /// [`phase_split`](Self::phase_split) at operating point `level` /
    /// budget scale `scale`.
    pub fn phase_split_at(
        &mut self,
        system: &CtaSystem,
        level: u8,
        scale: f64,
        task: &AttentionTask,
    ) -> PhaseSplit {
        *self.phases.entry((level, *task)).or_insert_with(|| {
            if scale == 1.0 {
                system.head_phase_split(task)
            } else {
                system.head_phase_split(&task.with_budget_scale(scale))
            }
        })
    }

    /// The cost of one head's decode segment: `turn.decode_tokens`
    /// incremental steps plus `turn.reclusters` level-2 rebuilds at the
    /// steady-state prefix described by `task`
    /// ([`CtaSystem::decode_head_cost`]). Memoised by the full decode
    /// shape, so two turns of equal length at the same prefix simulate
    /// once.
    pub fn decode_head(
        &mut self,
        system: &CtaSystem,
        task: &AttentionTask,
        turn: &SessionTurn,
    ) -> TaskCost {
        *self.decode.entry((*task, turn.decode_tokens, turn.reclusters)).or_insert_with(|| {
            system.decode_head_cost(task, turn.decode_tokens as u64, turn.reclusters as u64)
        })
    }

    /// Executes one layer dispatch through
    /// [`CtaSystem::step_layer_costed`] using cached baseline head costs.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    pub fn step_layer(&mut self, system: &CtaSystem, tasks: &[AttentionTask]) -> LayerStep {
        self.step_priced(system, tasks, |memo, t| memo.head(system, t))
    }

    /// [`step_layer`](Self::step_layer) priced as a decode segment: every
    /// head advances `turn.decode_tokens` incremental tokens instead of
    /// recompressing its prefix.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    pub fn step_layer_decode(
        &mut self,
        system: &CtaSystem,
        tasks: &[AttentionTask],
        turn: &SessionTurn,
    ) -> LayerStep {
        self.step_priced(system, tasks, |memo, t| memo.decode_head(system, t, turn))
    }

    /// One layer dispatch over `tasks`, each head costed by `price`, with
    /// the costs gathered in the memo's kept buffer.
    fn step_priced(
        &mut self,
        system: &CtaSystem,
        tasks: &[AttentionTask],
        mut price: impl FnMut(&mut Self, &AttentionTask) -> TaskCost,
    ) -> LayerStep {
        let mut costs = std::mem::take(&mut self.costs);
        costs.clear();
        for t in tasks {
            costs.push(price(self, t));
        }
        let step = system.step_layer_costed(tasks, &costs);
        self.costs = costs;
        step
    }

    /// Seconds a replica needs to rebuild a session's compression state
    /// from scratch: the compression phase of every head of every layer
    /// (the linears and the query loop are not re-run by a re-prefill).
    /// This is what a crash-evicted or re-routed session pays before its
    /// next decode turn can run.
    pub fn session_prefill_s(&mut self, system: &CtaSystem, request: &ServeRequest) -> f64 {
        request
            .layer_tasks
            .iter()
            .flatten()
            .map(|t| self.phase_split(system, t).compression_s)
            .sum()
    }

    /// Every layer's solo step time for `request` at the baseline
    /// operating point, in layer order, with the remaining-work table and
    /// the layers that repeat their predecessor ([`LayerTimes`]): a decode
    /// segment per layer for session turns, a full prefill step otherwise.
    /// Every service estimate derives from this one pricing branch; the
    /// runtime computes it once at admission and carries it with the
    /// request, so later remaining-work estimates read the table instead
    /// of re-pricing layers.
    ///
    /// A layer step is a pure function of its head tasks (and of the
    /// turn, which is the same for every layer of a request), so a run of
    /// consecutive layers with identical tasks is priced once and the
    /// value repeated — the same bits as pricing each layer. Every
    /// in-tree request source builds its layers that way; a request whose
    /// layers differ pays one slice comparison per layer on top of the
    /// pricing.
    pub(crate) fn layer_times_s(
        &mut self,
        system: &CtaSystem,
        request: &ServeRequest,
    ) -> LayerTimes {
        let layers = &request.layer_tasks;
        let mut prices = std::mem::take(&mut self.prices);
        prices.clear();
        let mut run_s = 0.0;
        for (l, tasks) in layers.iter().enumerate() {
            let repeats = l > 0 && *tasks == layers[l - 1];
            if !repeats {
                run_s = match &request.session {
                    Some(turn) => self.step_layer_decode(system, tasks, turn).elapsed_s,
                    None => self.step_layer(system, tasks).elapsed_s,
                };
            }
            prices.push(LayerPrice { step_s: run_s, remaining_s: 0.0, repeats });
        }
        // The finished cursor.
        prices.push(LayerPrice { step_s: 0.0, remaining_s: 0.0, repeats: false });
        fill_remaining(system.weight_upload_s(), &mut prices);
        let times = LayerTimes(Rc::from(prices.as_slice()));
        self.prices = prices;
        times
    }

    /// Estimated *solo* service time of a request on an idle replica at
    /// the baseline operating point: the one-time weight upload plus every
    /// layer's step time, with no batching. Under continuous batching the
    /// realised service time can only be this or longer (merging head
    /// tasks never shortens a layer's critical path), so the estimate is a
    /// valid admissibility lower bound. Degraded replicas run *faster*
    /// than this, so the bound stays valid fleet-wide under brownout.
    pub fn request_service_s(&mut self, system: &CtaSystem, request: &ServeRequest) -> f64 {
        self.remaining_service_s(system, request, 0)
    }

    /// Estimated remaining service of a request whose first `cursor`
    /// layers have already been dispatched (weight upload counted only at
    /// `cursor == 0`).
    pub fn remaining_service_s(
        &mut self,
        system: &CtaSystem,
        request: &ServeRequest,
        cursor: usize,
    ) -> f64 {
        self.layer_times_s(system, request).remaining_s(cursor)
    }
}

/// Fills every entry's `remaining_s` (the last entry is the finished
/// cursor) with the remaining service from that cursor: `upload_s`
/// (charged only at cursor 0) plus the remaining layers' step times as a
/// left fold in layer order — the bits of
/// `upload + steps[cursor..].iter().sum::<f64>()`.
///
/// A left fold over k bit-equal values gives the same bits wherever it
/// starts, so over the trailing run of bit-equal step times (every layer
/// of a uniform request) the suffix sums are one running fold, O(layers)
/// for the whole table. Cursors before that run fold their own suffix.
fn fill_remaining(upload_s: f64, prices: &mut [LayerPrice]) {
    let n = prices.len() - 1;
    let tail_bits = n.checked_sub(1).map(|l| prices[l].step_s.to_bits());
    // An empty suffix sums to the fold's start value.
    let mut suffix: f64 = std::iter::empty::<f64>().sum();
    let mut in_tail = true;
    for c in (0..=n).rev() {
        let sum = if c == n {
            suffix
        } else if in_tail && Some(prices[c].step_s.to_bits()) == tail_bits {
            suffix += prices[c].step_s;
            suffix
        } else {
            in_tail = false;
            prices[c..n].iter().map(|p| p.step_s).sum()
        };
        let upload = if c == 0 { upload_s } else { 0.0 };
        prices[c].remaining_s = upload + sum;
    }
}

/// Remaining service of a request with per-layer step times `layer_s`
/// whose first `cursor` layers have been dispatched: `upload_s` (charged
/// only at `cursor == 0`) plus the remaining layers, summed in layer
/// order. The definition [`LayerTimes::remaining_s`] tabulates; the
/// tests pin the table against it bit for bit.
#[cfg(test)]
pub(crate) fn remaining_from_layers_s(upload_s: f64, layer_s: &[f64], cursor: usize) -> f64 {
    let upload = if cursor == 0 { upload_s } else { 0.0 };
    upload + layer_s[cursor..].iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QosClass;
    use cta_sim::SystemConfig;
    use proptest::prelude::*;

    fn system() -> CtaSystem {
        CtaSystem::new(SystemConfig::paper())
    }

    fn task() -> AttentionTask {
        AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6)
    }

    #[test]
    fn memo_simulates_each_shape_once() {
        let sys = system();
        let mut cost = CostModel::new();
        let r = ServeRequest::uniform(0, 0.0, QosClass::standard(), task(), 6, 16);
        let _ = cost.request_service_s(&sys, &r);
        assert_eq!(cost.distinct_shapes(), 1);
        let other = AttentionTask::from_counts(256, 256, 64, 80, 70, 30, 6);
        let _ = cost.head(&sys, &other);
        assert_eq!(cost.distinct_shapes(), 2);
    }

    #[test]
    fn cached_costs_match_direct_simulation() {
        let sys = system();
        let mut cost = CostModel::new();
        assert_eq!(cost.head(&sys, &task()), sys.head_cost(&task()));
        // Second lookup hits the memo and must agree.
        assert_eq!(cost.head(&sys, &task()), sys.head_cost(&task()));
    }

    #[test]
    fn operating_points_get_distinct_cache_entries() {
        // The satellite guarantee: the same nominal shape at two operating
        // points yields two distinct cached costs — a degraded replica can
        // never read (or poison) the baseline memo.
        let sys = system();
        let mut cost = CostModel::new();
        let t = task();
        let baseline = cost.head_at(&sys, 0, 1.0, &t);
        let degraded = cost.head_at(&sys, 2, 0.6, &t);
        assert_eq!(cost.distinct_shapes(), 2, "one entry per operating point");
        assert!(
            degraded.latency_s < baseline.latency_s,
            "smaller budgets must be cheaper: {} vs {}",
            degraded.latency_s,
            baseline.latency_s
        );
        // Both entries stay live and exact after interleaved lookups.
        assert_eq!(cost.head_at(&sys, 0, 1.0, &t), baseline);
        assert_eq!(cost.head_at(&sys, 2, 0.6, &t), degraded);
        assert_eq!(cost.head_at(&sys, 2, 0.6, &t), sys.head_cost(&t.with_budget_scale(0.6)));
        assert_eq!(cost.distinct_shapes(), 2, "lookups must hit the memo");
    }

    #[test]
    fn degraded_phase_splits_do_not_alias_baseline() {
        let sys = system();
        let mut cost = CostModel::new();
        let t = task();
        let base = cost.phase_split(&sys, &t);
        let deg = cost.phase_split_at(&sys, 1, 0.5, &t);
        assert_eq!(base, sys.head_phase_split(&t));
        assert_eq!(deg, sys.head_phase_split(&t.with_budget_scale(0.5)));
    }

    #[test]
    fn solo_estimate_equals_run_layers_total() {
        let sys = system();
        let mut cost = CostModel::new();
        let r = ServeRequest::uniform(0, 0.0, QosClass::standard(), task(), 4, 12);
        let est = cost.request_service_s(&sys, &r);
        let run = sys.run_layers(&r.layer_tasks);
        assert!((est - run.total_s).abs() < 1e-15, "est {est} vs run {}", run.total_s);
    }

    #[test]
    fn decode_turns_are_cheaper_than_prefill_and_memoise() {
        let sys = system();
        let mut cost = CostModel::new();
        let turn =
            SessionTurn { session: 0, turn: 1, decode_tokens: 4, reclusters: 0, last: false };
        // Compute-heavy shape (few queries, many keys): the layer step is
        // critical-path-bound, so the decode discount is visible in
        // elapsed time (a transfer-bound shape would tie — transfers are
        // identical either way under the paper config's overlap). The turn
        // is short and re-cluster-free: each incremental token still pays
        // a PAG pass over the whole 512-token prefix, so long segments —
        // and any level-2 rebuild — legitimately exceed one prefill.
        let heavy = AttentionTask::from_counts(16, 512, 64, 8, 180, 40, 6);
        let prefill = ServeRequest::uniform(0, 0.0, QosClass::standard(), heavy, 4, 8);
        let decode = prefill.clone().with_session(turn);
        let full = cost.request_service_s(&sys, &prefill);
        let inc = cost.request_service_s(&sys, &decode);
        assert!(inc < full, "decode {inc} must undercut prefill {full}");
        // The decode memo holds exactly one entry and agrees with the
        // direct simulation.
        assert_eq!(cost.decode_head(&sys, &task(), &turn), sys.decode_head_cost(&task(), 4, 0));
        // Cursor math matches the batch path's.
        assert_eq!(cost.remaining_service_s(&sys, &decode, 0), inc);
        assert_eq!(cost.remaining_service_s(&sys, &decode, 4), 0.0);
        assert!(cost.remaining_service_s(&sys, &decode, 2) < inc);
    }

    #[test]
    fn session_prefill_is_the_compression_share_of_the_model() {
        let sys = system();
        let mut cost = CostModel::new();
        let r = ServeRequest::uniform(0, 0.0, QosClass::standard(), task(), 3, 4);
        let prefill = cost.session_prefill_s(&sys, &r);
        let per_head = sys.head_phase_split(&task()).compression_s;
        assert!((prefill - 12.0 * per_head).abs() < 1e-15);
        assert!(prefill > 0.0);
        assert!(prefill < cost.request_service_s(&sys, &r), "re-prefill skips linears + queries");
    }

    #[test]
    fn remaining_service_decreases_with_cursor() {
        let sys = system();
        let mut cost = CostModel::new();
        let r = ServeRequest::uniform(0, 0.0, QosClass::standard(), task(), 4, 12);
        let full = cost.remaining_service_s(&sys, &r, 0);
        let half = cost.remaining_service_s(&sys, &r, 2);
        let none = cost.remaining_service_s(&sys, &r, 4);
        assert!(full > half && half > none);
        assert_eq!(none, 0.0);
        assert_eq!(full, cost.request_service_s(&sys, &r));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Run-length pricing is invisible: every layer time equals that
        /// layer's own step priced from scratch, bit for bit — a prefill
        /// `step_layer`, or the same step over the heads' decode-segment
        /// costs for a session turn. Layer shapes come in four patterns:
        /// every layer alike, alternating A/B, runs of random length, and
        /// an independent draw per layer (heads within a layer may differ).
        #[test]
        fn run_length_layer_times_match_per_layer_steps_bitwise(
            pattern in 0u8..4,
            layers in 1usize..13,
            heads in 1usize..4,
            decode in 0u8..2,
            seed in 0u64..1_000_000,
        ) {
            let sys = system();
            let shapes = [
                task(),
                AttentionTask::from_counts(256, 256, 64, 80, 70, 30, 6),
                AttentionTask::from_counts(16, 512, 64, 8, 180, 40, 6),
            ];
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as usize
            };
            let uniform = |s: AttentionTask| vec![s; heads];
            let mut run_shape = shapes[0];
            let layer_tasks: Vec<Vec<AttentionTask>> = (0..layers)
                .map(|l| match pattern {
                    0 => uniform(shapes[0]),
                    1 => uniform(shapes[l % 2]),
                    2 => {
                        if next() % 3 == 0 {
                            run_shape = shapes[next() % shapes.len()];
                        }
                        uniform(run_shape)
                    }
                    _ => (0..heads).map(|_| shapes[next() % shapes.len()]).collect(),
                })
                .collect();
            let mut request = ServeRequest::new(0, 0.0, QosClass::standard(), layer_tasks);
            let turn = SessionTurn { session: 0, turn: 1, decode_tokens: 3, reclusters: 1, last: false };
            if decode == 1 {
                request = request.with_session(turn);
            }
            let times = CostModel::new().layer_times_s(&sys, &request);
            prop_assert_eq!(times.layers(), layers);
            let mut steps = Vec::with_capacity(layers);
            for (l, tasks) in request.layer_tasks.iter().enumerate() {
                let step = if decode == 1 {
                    let costs: Vec<TaskCost> =
                        tasks.iter().map(|t| sys.decode_head_cost(t, 3, 1)).collect();
                    sys.step_layer_costed(tasks, &costs)
                } else {
                    sys.step_layer(tasks)
                };
                prop_assert_eq!(times.step_s(l).to_bits(), step.elapsed_s.to_bits(), "layer {}", l);
                let repeats = l > 0 && *tasks == request.layer_tasks[l - 1];
                prop_assert_eq!(times.repeats(l), repeats, "layer {}", l);
                steps.push(step.elapsed_s);
            }
            // The remaining-work table equals the per-cursor fold at every
            // cursor, the finished one included.
            let upload = sys.weight_upload_s();
            for c in 0..=layers {
                let want = remaining_from_layers_s(upload, &steps, c);
                prop_assert_eq!(times.remaining_s(c).to_bits(), want.to_bits(), "cursor {}", c);
            }
        }
    }
}
