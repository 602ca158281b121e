#![deny(missing_docs)]

//! Shared harness utilities for the per-figure benchmark binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md`
//! for recorded paper-vs-measured results):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig02_effective_relations` | Fig. 2 |
//! | `fig11_accuracy_compression` | Fig. 11 |
//! | `fig12_throughput_latency` | Fig. 12 |
//! | `fig13_dse` | Fig. 13 |
//! | `fig14_energy` | Fig. 14 |
//! | `fig15_area` | Fig. 15 |
//! | `fig16_memory_access` | Fig. 16 |
//! | `table1_mapping_trace` | Table I |
//! | `end_to_end` | §VI-C end-to-end performance |
//! | `ablation_*` | design-choice ablations (DESIGN.md §5) |

pub mod cli;
mod report;
mod sidecar;

pub use cli::{cli_main, parse_num, usage, usage_flags, Flag, Flags, PARALLEL_FLAGS};
pub use report::{CsvTable, JsonReport, JsonValue, SCHEMA_VERSION};
pub use sidecar::{parse_json, BenchSidecar};

use cta_sim::{AttentionTask, CtaAccelerator, HwConfig, SimReport};
use cta_workloads::{find_operating_point, CtaClass, OperatingPoint, TestCase};

/// Number of generated sequences per accuracy evaluation. Two keeps the
/// full 10-case × 3-class sweep under ~2 minutes in release builds while
/// halving single-sequence sampling noise.
pub const DEFAULT_SAMPLES: usize = 2;

/// Number of parallel CTA units in the paper's system comparison (12×CTA
/// vs 12×ELSA, iso-area).
pub const UNITS: usize = 12;

/// Prints a figure banner.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

/// A printed-and-recorded table: rows go to stdout (aligned) and into a
/// [`CsvTable`] that `save()` writes under `results/`.
pub struct Table {
    csv: CsvTable,
}

impl Table {
    /// Starts a table, printing the header row.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        row(&columns.iter().map(|c| c.to_string()).collect::<Vec<_>>());
        Self { csv: CsvTable::new(name, columns) }
    }

    /// Prints and records one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row(&mut self, cells: &[String]) {
        row(cells);
        self.csv.push(cells);
    }

    /// Writes the recorded rows to `results/<name>.csv`.
    pub fn save(self) {
        self.csv.save();
    }
}

/// Prints one aligned table row from string cells.
pub fn row(cells: &[String]) {
    let mut line = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i == 0 {
            line.push_str(&format!("{c:<26}"));
        } else {
            line.push_str(&format!("{c:>12}"));
        }
    }
    println!("{line}");
}

/// The three operating points of a case, found at the default sample
/// count.
pub fn case_operating_points(case: &TestCase) -> [OperatingPoint; 3] {
    [
        find_operating_point(case, CtaClass::Cta0, DEFAULT_SAMPLES),
        find_operating_point(case, CtaClass::Cta05, DEFAULT_SAMPLES),
        find_operating_point(case, CtaClass::Cta1, DEFAULT_SAMPLES),
    ]
}

/// Simulates one head of a task on the paper-configuration accelerator.
pub fn simulate(task: &AttentionTask) -> SimReport {
    CtaAccelerator::new(HwConfig::paper()).simulate_head(task)
}

/// Geometric mean (re-exported for harness binaries).
pub fn geomean(xs: &[f64]) -> f64 {
    cta_tensor::geometric_mean(xs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_workloads::mini_case;

    #[test]
    fn operating_points_are_ordered_by_budget() {
        let pts = case_operating_points(&mini_case());
        assert!(pts[2].config.kv_bucket_width >= pts[0].config.kv_bucket_width);
    }

    #[test]
    fn simulate_runs_paper_config() {
        let r = simulate(&AttentionTask::from_counts(512, 512, 64, 100, 80, 40, 6));
        assert!(r.cycles > 0);
    }
}
