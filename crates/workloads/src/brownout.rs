//! Brownout-ladder calibration: measuring what each degraded operating
//! point costs in accuracy and saves in compute.
//!
//! The serving fleet's overload controller (in `cta-serve`) walks a ladder
//! of operating points, each scaling the cluster budgets `k₀,k₁,k₂` down
//! from the baseline. The ladder's per-rung numbers — how much accuracy a
//! rung loses and how much compression it buys — come from here: each rung
//! widens the LSH bucket widths by a factor (wider buckets ⇒ coarser
//! clustering ⇒ fewer clusters, the paper's §VI-B dial), re-measures the
//! proxy accuracy loss against one [`CaseReference`], and reads the achieved
//! budget scale off the measured mean cluster counts.

use cta_attention::CtaConfig;

use crate::{CaseEvaluation, CaseReference, TestCase};

/// One calibrated rung of the brownout ladder.
#[derive(Debug, Clone)]
pub struct BrownoutRung {
    /// Width multiplier applied to the baseline config (1.0 = baseline).
    pub width_factor: f32,
    /// Achieved cluster-budget scale relative to the baseline rung: the
    /// mean of the three `kᵢ` ratios, clamped to `(0, 1]`. This is the
    /// number `AttentionTask::with_budget_scale` consumes fleet-side.
    pub budget_scale: f64,
    /// Measured proxy accuracy loss at this rung, percent (absolute, not
    /// relative to the baseline rung).
    pub accuracy_loss_pct: f64,
    /// The full evaluation behind the two summary numbers.
    pub evaluation: CaseEvaluation,
}

/// A calibrated ladder: rung 0 is the baseline operating point.
#[derive(Debug, Clone)]
pub struct BrownoutCalibration {
    /// `"model/dataset"` of the calibrated case.
    pub case_name: String,
    /// Rungs in ladder order (baseline first, most degraded last).
    pub rungs: Vec<BrownoutRung>,
}

impl BrownoutCalibration {
    /// The `(budget_scale, accuracy_loss_pct)` pairs the serve-side ladder
    /// wants, in ladder order.
    pub fn ladder_points(&self) -> Vec<(f64, f64)> {
        self.rungs.iter().map(|r| (r.budget_scale, r.accuracy_loss_pct)).collect()
    }
}

/// Calibrates a brownout ladder on `case`: for each width factor in
/// `factors` (≥ 1.0, ascending — wider is more degraded), evaluates the
/// baseline config with all bucket widths scaled by the factor, over
/// `samples` generated sequences per rung.
///
/// The first factor should be `1.0` so rung 0 is the baseline the budget
/// scales are measured against; the function inserts it if missing.
///
/// # Panics
///
/// Panics if `samples == 0`, `factors` is empty, or any factor is below
/// 1.0 or not ascending.
pub fn calibrate_brownout_ladder(
    case: &TestCase,
    base: &CtaConfig,
    factors: &[f32],
    samples: usize,
) -> BrownoutCalibration {
    assert!(samples > 0, "at least one sample");
    assert!(!factors.is_empty(), "at least one width factor");
    assert!(factors.iter().all(|&f| f >= 1.0), "width factors must be ≥ 1.0");
    assert!(factors.windows(2).all(|w| w[0] < w[1]), "width factors must ascend");

    let mut all = Vec::with_capacity(factors.len() + 1);
    if factors[0] != 1.0 {
        all.push(1.0);
    }
    all.extend_from_slice(factors);

    let reference = CaseReference::new(case, samples);
    let mut rungs: Vec<BrownoutRung> = Vec::with_capacity(all.len());
    let mut baseline_ks: Option<(f64, f64, f64)> = None;
    for &factor in &all {
        let config = base.scaled_widths(factor);
        let evaluation = reference.evaluate(&config);
        let ks = (evaluation.mean_k0, evaluation.mean_k1, evaluation.mean_k2);
        let (b0, b1, b2) = *baseline_ks.get_or_insert(ks);
        let ratio = |k: f64, b: f64| if b > 0.0 { (k / b).min(1.0) } else { 1.0 };
        let budget_scale =
            ((ratio(ks.0, b0) + ratio(ks.1, b1) + ratio(ks.2, b2)) / 3.0).max(f64::MIN_POSITIVE);
        rungs.push(BrownoutRung {
            width_factor: factor,
            budget_scale,
            accuracy_loss_pct: evaluation.accuracy_loss_pct,
            evaluation,
        });
    }
    BrownoutCalibration { case_name: rungs[0].evaluation.case_name.clone(), rungs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mini_case;

    #[test]
    fn ladder_baseline_rung_is_scale_one() {
        let case = mini_case();
        let base = CtaConfig::uniform(2.0, case.seed());
        let cal = calibrate_brownout_ladder(&case, &base, &[1.0, 2.0, 4.0], 2);
        assert_eq!(cal.rungs.len(), 3);
        assert_eq!(cal.rungs[0].budget_scale, 1.0);
        assert_eq!(cal.rungs[0].width_factor, 1.0);
        assert_eq!(cal.ladder_points().len(), 3);
    }

    #[test]
    fn wider_rungs_shrink_the_budget() {
        let case = mini_case();
        let base = CtaConfig::uniform(1.0, case.seed());
        let cal = calibrate_brownout_ladder(&case, &base, &[1.0, 3.0, 9.0], 2);
        let scales: Vec<f64> = cal.rungs.iter().map(|r| r.budget_scale).collect();
        assert!(
            scales.windows(2).all(|w| w[1] <= w[0] + 1e-12),
            "budget scales must not grow with width: {scales:?}"
        );
        assert!(scales.last().unwrap() < &1.0, "the widest rung must actually compress harder");
    }

    #[test]
    fn missing_baseline_factor_is_inserted() {
        let case = mini_case();
        let base = CtaConfig::uniform(2.0, case.seed());
        let cal = calibrate_brownout_ladder(&case, &base, &[2.0], 1);
        assert_eq!(cal.rungs.len(), 2);
        assert_eq!(cal.rungs[0].width_factor, 1.0);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn factors_must_ascend() {
        let case = mini_case();
        let base = CtaConfig::uniform(2.0, case.seed());
        let _ = calibrate_brownout_ladder(&case, &base, &[2.0, 1.5], 1);
    }
}
