//! Operating-point search: finding the CTA-0 / CTA-0.5 / CTA-1
//! configurations of paper §VI-B.
//!
//! The paper sweeps compression aggressiveness per test case and labels the
//! operating points by their average accuracy loss (0%, 0.5%, 1%). We do
//! the same with the LSH bucket width as the knob: wider buckets compress
//! harder; the search walks from the most aggressive width down and keeps
//! the first (most compressed) configuration whose proxy accuracy loss
//! meets the class budget. Every candidate is scored against one
//! [`CaseReference`] (the exact attention is computed once per case), and
//! the three classes share one walk of the grid. [`OperatingTable`] runs
//! that walk for a list of cases; every figure and the CLI read it.

use cta_attention::CtaConfig;
use cta_parallel::{par_map, Parallelism};
use cta_sim::AttentionTask;

use crate::{CaseEvaluation, CaseReference, TestCase};

/// The paper's three accuracy classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtaClass {
    /// No measurable accuracy loss ("CTA-0").
    Cta0,
    /// ~0.5% average accuracy loss.
    Cta05,
    /// ~1% average accuracy loss.
    Cta1,
}

impl CtaClass {
    /// All three classes in paper order.
    pub fn all() -> [CtaClass; 3] {
        [CtaClass::Cta0, CtaClass::Cta05, CtaClass::Cta1]
    }

    /// The accuracy-loss budget in percent.
    pub fn target_loss_pct(self) -> f64 {
        match self {
            CtaClass::Cta0 => 0.1, // "no accuracy loss" within sampling noise
            CtaClass::Cta05 => 0.5,
            CtaClass::Cta1 => 1.0,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CtaClass::Cta0 => "CTA-0",
            CtaClass::Cta05 => "CTA-0.5",
            CtaClass::Cta1 => "CTA-1",
        }
    }
}

/// A found operating point: the configuration, its measured evaluation,
/// and the derived simulator task.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// The accuracy class this point satisfies.
    pub class: CtaClass,
    /// The chosen CTA configuration.
    pub config: CtaConfig,
    /// Its measured evaluation.
    pub evaluation: CaseEvaluation,
}

impl OperatingPoint {
    /// The accelerator task at this point's mean cluster counts.
    pub fn task(&self, case: &TestCase) -> AttentionTask {
        let dims = case.dims();
        AttentionTask::from_counts(
            dims.num_queries,
            dims.num_keys,
            dims.head_dim,
            (self.evaluation.mean_k0.round() as usize).clamp(1, dims.num_queries),
            (self.evaluation.mean_k1.round() as usize).clamp(1, dims.num_keys),
            (self.evaluation.mean_k2.round() as usize).clamp(1, dims.num_keys),
            self.config.hash_length,
        )
    }
}

/// The width grid the search walks, most aggressive (widest) first.
fn width_grid() -> Vec<f32> {
    let mut widths = Vec::new();
    let mut w = 48.0f32;
    while w > 0.08 {
        widths.push(w);
        w /= 1.3;
    }
    widths
}

/// Finds all three operating points of a case in one walk of the width
/// grid against one [`CaseReference`], each candidate evaluated over
/// `samples` sequences: each class takes the first width that meets its
/// budget, or the finest width if none does (the evaluation carries the
/// measured loss either way). Figures read these points from an
/// [`OperatingTable`].
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn find_all_operating_points(case: &TestCase, samples: usize) -> [OperatingPoint; 3] {
    walk_width_grid(case, samples, &width_grid())
}

/// Walks `widths` in order until every class has met its budget; a class
/// that never does takes the last width.
fn walk_width_grid(case: &TestCase, samples: usize, widths: &[f32]) -> [OperatingPoint; 3] {
    let classes = CtaClass::all();
    let reference = CaseReference::new(case, samples);
    let mut found: [Option<OperatingPoint>; 3] = Default::default();
    let mut last = None;
    for &w in widths {
        let config = CtaConfig::uniform(w, case.seed());
        let evaluation = reference.evaluate(&config);
        for (slot, &class) in found.iter_mut().zip(&classes) {
            if slot.is_none() && evaluation.accuracy_loss_pct <= class.target_loss_pct() {
                *slot = Some(OperatingPoint { class, config, evaluation: evaluation.clone() });
            }
        }
        last = Some((config, evaluation));
        if found.iter().all(Option::is_some) {
            break;
        }
    }
    let (config, evaluation) = last.expect("a non-empty width grid");
    std::array::from_fn(|i| {
        found[i].take().unwrap_or_else(|| OperatingPoint {
            class: classes[i],
            config,
            evaluation: evaluation.clone(),
        })
    })
}

/// Generated sequences per candidate: two halve single-sequence sampling
/// noise; above 1024 tokens one keeps a long case's exact attention
/// affordable. The one place the sample count is written.
fn samples(case: &TestCase) -> usize {
    if case.dataset.seq_len > 1024 {
        1
    } else {
        2
    }
}

/// The CTA-0 / CTA-0.5 / CTA-1 points of a list of cases, one
/// [`find_all_operating_points`] walk per case on the `cta-parallel`
/// pool. The reduction is ordered: rows come back in build order, the
/// same at any worker count.
#[derive(Debug, Clone)]
pub struct OperatingTable {
    rows: Vec<(TestCase, [OperatingPoint; 3])>,
}

impl OperatingTable {
    /// Searches every case of `cases`, one case per pool task.
    pub fn build(cases: &[TestCase], jobs: Parallelism) -> Self {
        let rows =
            par_map(jobs, cases, |case| (*case, find_all_operating_points(case, samples(case))));
        Self { rows }
    }

    /// The `(case, [CTA-0, CTA-0.5, CTA-1])` rows, in build order.
    pub fn rows(&self) -> &[(TestCase, [OperatingPoint; 3])] {
        &self.rows
    }

    /// The reference a table scores `case` against, for sweeps of a knob
    /// the width grid does not cover (the hash length, say).
    pub fn reference(case: &TestCase) -> CaseReference {
        CaseReference::new(case, samples(case))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::tests::evaluation_bits;
    use crate::{evaluate_case, mini_case};

    #[test]
    fn class_budgets_ordered() {
        assert!(CtaClass::Cta0.target_loss_pct() < CtaClass::Cta05.target_loss_pct());
        assert!(CtaClass::Cta05.target_loss_pct() < CtaClass::Cta1.target_loss_pct());
        assert_eq!(CtaClass::Cta1.label(), "CTA-1");
    }

    #[test]
    fn found_point_meets_its_budget() {
        let case = mini_case();
        let [.., op] = find_all_operating_points(&case, 2);
        assert!(
            op.evaluation.accuracy_loss_pct <= CtaClass::Cta1.target_loss_pct() + 1e-9,
            "loss {}",
            op.evaluation.accuracy_loss_pct
        );
    }

    #[test]
    fn looser_budget_never_compresses_less() {
        let case = mini_case();
        let [tight, _, loose] = find_all_operating_points(&case, 2);
        assert!(
            loose.config.kv_bucket_width >= tight.config.kv_bucket_width,
            "loose w {} < tight w {}",
            loose.config.kv_bucket_width,
            tight.config.kv_bucket_width
        );
        assert!(loose.evaluation.complexity.ra <= tight.evaluation.complexity.ra + 1e-9);
    }

    /// One class's search spelled as its own walk, with a fresh
    /// `evaluate_case` per candidate: the oracle of the shared walk.
    fn walk_alone(
        case: &TestCase,
        samples: usize,
        widths: &[f32],
        class: CtaClass,
    ) -> (CtaConfig, String) {
        let mut last = None;
        for &w in widths {
            let config = CtaConfig::uniform(w, case.seed());
            let evaluation = evaluate_case(case, &config, samples);
            let ok = evaluation.accuracy_loss_pct <= class.target_loss_pct();
            last = Some((config, evaluation_bits(&evaluation)));
            if ok {
                break;
            }
        }
        last.expect("width grid is non-empty")
    }

    fn config_bits(c: &CtaConfig) -> (usize, [u32; 3], u64) {
        let widths = [c.query_bucket_width, c.kv_bucket_width, c.residual_bucket_width];
        (c.hash_length, widths.map(f32::to_bits), c.seed)
    }

    /// `points` field for field, floats as bit patterns.
    fn points_bits(points: &[OperatingPoint; 3]) -> Vec<String> {
        points
            .iter()
            .map(|p| {
                let config = config_bits(&p.config);
                format!("{:?} {config:?} {}", p.class, evaluation_bits(&p.evaluation))
            })
            .collect()
    }

    #[test]
    fn one_walk_finds_what_three_walks_find() {
        let case = mini_case();
        for samples in [1, 2] {
            let all = find_all_operating_points(&case, samples);
            for (point, class) in all.iter().zip(CtaClass::all()) {
                let (config, evaluation) = walk_alone(&case, samples, &width_grid(), class);
                assert_eq!(point.class, class);
                assert_eq!(config_bits(&point.config), config_bits(&config), "{class:?}");
                assert_eq!(evaluation_bits(&point.evaluation), evaluation, "{class:?}");
            }
        }
    }

    #[test]
    fn classes_that_miss_their_budget_take_the_last_width_as_alone() {
        // The six widest widths: CTA-0 meets its budget on none of them,
        // so it falls back to the last, as its own walk does.
        let case = mini_case();
        let widths = &width_grid()[..6];
        let all = walk_width_grid(&case, 2, widths);
        assert!(all[0].evaluation.accuracy_loss_pct > CtaClass::Cta0.target_loss_pct());
        assert_eq!(all[0].config.kv_bucket_width, widths[5]);
        for (point, class) in all.iter().zip(CtaClass::all()) {
            let (config, evaluation) = walk_alone(&case, 2, widths, class);
            assert_eq!(config_bits(&point.config), config_bits(&config), "{class:?}");
            assert_eq!(evaluation_bits(&point.evaluation), evaluation, "{class:?}");
        }
    }

    #[test]
    fn table_rows_are_the_per_case_walks_in_build_order() {
        // Two small cases of different lengths (and so different seeds),
        // in an order that is not the order a sort would give.
        let mini = mini_case();
        let short = TestCase::new(mini.model, mini.dataset.with_seq_len(48));
        let cases = [mini, short];
        let want: Vec<_> =
            cases.iter().map(|c| points_bits(&find_all_operating_points(c, samples(c)))).collect();
        for jobs in [Parallelism::serial(), Parallelism::jobs(2)] {
            let table = OperatingTable::build(&cases, jobs);
            let rows = table.rows();
            assert_eq!(rows.len(), cases.len(), "{jobs}");
            for ((case, points), (want_case, want_points)) in
                rows.iter().zip(cases.iter().zip(&want))
            {
                assert_eq!(case, want_case, "{jobs}");
                assert_eq!(&points_bits(points), want_points, "{jobs} {}", case.name());
            }
        }
    }

    #[test]
    fn sample_rule_is_two_up_to_1024_tokens_and_one_above() {
        // Reads the rule only: no case is generated or evaluated.
        let at =
            |n| samples(&TestCase::new(mini_case().model, mini_case().dataset.with_seq_len(n)));
        for n in [1, 64, 512, 1024] {
            assert_eq!(at(n), 2, "n = {n}");
        }
        for n in [1025, 2048, 1 << 20] {
            assert_eq!(at(n), 1, "n = {n}");
        }
    }

    #[test]
    fn task_respects_dims() {
        let case = mini_case();
        let [.., op] = find_all_operating_points(&case, 1);
        let task = op.task(&case);
        assert_eq!(task.num_keys, case.dataset.seq_len);
        assert!(task.k0 <= task.num_queries);
    }

    #[test]
    fn width_grid_is_descending_and_covers_range() {
        let g = width_grid();
        assert!(g.windows(2).all(|w| w[0] > w[1]));
        assert!(*g.first().unwrap() > 40.0 && *g.last().unwrap() < 0.2);
    }
}
