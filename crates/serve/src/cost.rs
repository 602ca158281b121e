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
//! Every layer step looks its heads up here, so the lookup is kept
//! cheap: the maps hash with an in-crate Fx-style multiply-rotate rather
//! than SipHash. They are lookup-only — never iterated, so no hash order
//! can reach a result — and their keys are shapes the program builds
//! itself, so SipHash's flood resistance has nothing to defend. Pricing
//! a request ([`CostModel::layer_times_s`]) leans on one more property:
//! a layer step is a pure function of its head tasks, so a run of
//! identical consecutive layers is priced once, with the same bits.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use cta_sim::{AttentionTask, CtaSystem, LayerStep, PhaseSplit, TaskCost};

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
    cache: HashMap<(u8, AttentionTask), TaskCost, FxBuild>,
    /// Per-(level, shape) phase splits, filled lazily and only when
    /// telemetry asks for them (the untraced hot path never touches this
    /// map).
    phases: HashMap<(u8, AttentionTask), PhaseSplit, FxBuild>,
    /// Decode-segment costs, keyed by the full decode shape: the
    /// steady-state prefix task plus the segment's token and re-cluster
    /// counts. Only session-tagged requests touch this map.
    decode: HashMap<(AttentionTask, u32, u32), TaskCost, FxBuild>,
}

/// The memo maps' hasher: an Fx-style multiply-rotate over machine words
/// with fixed constants, so a key hashes the same way on every run (the
/// module docs say why SipHash is not needed here).
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher {
    hash: u64,
}

type FxBuild = BuildHasherDefault<FxHasher>;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's well-mixed high bits rotated down to where the
    /// table takes its bucket index.
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
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
        let costs: Vec<TaskCost> = tasks.iter().map(|t| self.head(system, t)).collect();
        system.step_layer_costed(tasks, &costs)
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
        let costs: Vec<TaskCost> =
            tasks.iter().map(|t| self.decode_head(system, t, turn)).collect();
        system.step_layer_costed(tasks, &costs)
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
    /// operating point, in layer order: a decode segment per layer for
    /// session turns, a full prefill step otherwise. Every service
    /// estimate derives from this one pricing branch; the runtime computes
    /// it once at admission and carries it with the request, so later
    /// remaining-work estimates re-sum these values
    /// (`remaining_from_layers_s`) instead of re-pricing layers.
    ///
    /// A layer step is a pure function of its head tasks (and of the
    /// turn, which is the same for every layer of a request), so a run of
    /// consecutive layers with identical tasks is priced once and the
    /// value repeated — the same bits as pricing each layer. Every
    /// in-tree request source builds its layers that way; a request whose
    /// layers differ pays one slice comparison per layer on top of the
    /// pricing.
    pub fn layer_times_s(&mut self, system: &CtaSystem, request: &ServeRequest) -> Rc<[f64]> {
        let layers = &request.layer_tasks;
        let mut run_s = 0.0;
        (0..layers.len())
            .map(|l| {
                if l == 0 || layers[l] != layers[l - 1] {
                    run_s = match &request.session {
                        Some(turn) => self.step_layer_decode(system, &layers[l], turn).elapsed_s,
                        None => self.step_layer(system, &layers[l]).elapsed_s,
                    };
                }
                run_s
            })
            .collect()
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
        let layer_s = self.layer_times_s(system, request);
        remaining_from_layers_s(system.weight_upload_s(), &layer_s, cursor)
    }
}

/// Remaining service of a request with per-layer step times `layer_s`
/// whose first `cursor` layers have been dispatched: `upload_s` (charged
/// only at `cursor == 0`) plus the remaining layers, summed in layer
/// order. The one remaining-work formula: [`CostModel::remaining_service_s`]
/// applies it to freshly priced layers, the runtime to the times a request
/// carries, so both give the same bits.
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
            prop_assert_eq!(times.len(), layers);
            for (l, tasks) in request.layer_tasks.iter().enumerate() {
                let step = if decode == 1 {
                    let costs: Vec<TaskCost> =
                        tasks.iter().map(|t| sys.decode_head_cost(t, 3, 1)).collect();
                    sys.step_layer_costed(tasks, &costs)
                } else {
                    sys.step_layer(tasks)
                };
                prop_assert_eq!(times[l].to_bits(), step.elapsed_s.to_bits(), "layer {}", l);
            }
        }
    }
}
