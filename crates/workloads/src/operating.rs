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
//! the three classes share one walk of the grid.

use cta_attention::CtaConfig;
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

/// Finds the most-compressed configuration meeting `class`'s accuracy
/// budget on `case`, evaluating each candidate over `samples` sequences.
///
/// Falls back to the finest grid width if even that exceeds the budget
/// (the returned evaluation carries the measured loss either way).
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn find_operating_point(case: &TestCase, class: CtaClass, samples: usize) -> OperatingPoint {
    let [point] = walk_width_grid(case, samples, &width_grid(), [class]);
    point
}

/// Finds all three operating points of a case in one walk of the width
/// grid against one [`CaseReference`]: each class takes the first width
/// that meets its budget, or the finest width, exactly as three
/// [`find_operating_point`] calls would. (CTA-0 ⊂ CTA-0.5 ⊂ CTA-1
/// ordering is asserted by tests, not by construction.)
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn find_all_operating_points(case: &TestCase, samples: usize) -> [OperatingPoint; 3] {
    walk_width_grid(case, samples, &width_grid(), CtaClass::all())
}

/// Walks `widths` in order until every class has met its budget; a class
/// that never does takes the last width.
fn walk_width_grid<const N: usize>(
    case: &TestCase,
    samples: usize,
    widths: &[f32],
    classes: [CtaClass; N],
) -> [OperatingPoint; N] {
    let reference = CaseReference::new(case, samples);
    let mut found: [Option<OperatingPoint>; N] = std::array::from_fn(|_| None);
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
        let op = find_operating_point(&case, CtaClass::Cta1, 2);
        assert!(
            op.evaluation.accuracy_loss_pct <= CtaClass::Cta1.target_loss_pct() + 1e-9,
            "loss {}",
            op.evaluation.accuracy_loss_pct
        );
    }

    #[test]
    fn looser_budget_never_compresses_less() {
        let case = mini_case();
        let tight = find_operating_point(&case, CtaClass::Cta0, 2);
        let loose = find_operating_point(&case, CtaClass::Cta1, 2);
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

    #[test]
    fn one_walk_finds_what_three_walks_find() {
        let case = mini_case();
        for samples in [1, 2] {
            let all = find_all_operating_points(&case, samples);
            for (point, class) in all.iter().zip(CtaClass::all()) {
                let (config, evaluation) = walk_alone(&case, samples, &width_grid(), class);
                let alone = find_operating_point(&case, class, samples);
                for p in [point, &alone] {
                    assert_eq!(p.class, class);
                    assert_eq!(config_bits(&p.config), config_bits(&config), "{class:?}");
                    assert_eq!(evaluation_bits(&p.evaluation), evaluation, "{class:?}");
                }
            }
        }
    }

    #[test]
    fn classes_that_miss_their_budget_take_the_last_width_as_alone() {
        // The six widest widths: CTA-0 meets its budget on none of them,
        // so it falls back to the last, as its own walk does.
        let case = mini_case();
        let widths = &width_grid()[..6];
        let all = walk_width_grid(&case, 2, widths, CtaClass::all());
        assert!(all[0].evaluation.accuracy_loss_pct > CtaClass::Cta0.target_loss_pct());
        assert_eq!(all[0].config.kv_bucket_width, widths[5]);
        for (point, class) in all.iter().zip(CtaClass::all()) {
            let (config, evaluation) = walk_alone(&case, 2, widths, class);
            assert_eq!(config_bits(&point.config), config_bits(&config), "{class:?}");
            assert_eq!(evaluation_bits(&point.evaluation), evaluation, "{class:?}");
        }
    }

    #[test]
    fn task_respects_dims() {
        let case = mini_case();
        let op = find_operating_point(&case, CtaClass::Cta1, 1);
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
