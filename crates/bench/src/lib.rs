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
//!
//! Results are written as CSV ([`CsvTable`]) and JSON ([`JsonReport`]).
//! A report's values are [`cta_telemetry::JsonValue`]s, the workspace's
//! one JSON value type; [`cta_telemetry::parse_json`], its one reader,
//! reads them back.

pub mod cli;
mod report;

pub use cli::{cli_main, parse_num, usage, usage_flags, Flag, Flags, PARALLEL_FLAGS};
pub use report::{CsvTable, JsonReport, SCHEMA_VERSION};

use cta_sim::{AttentionTask, CtaAccelerator, HwConfig, SimReport};

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
    println!("{}", format_row(cells));
}

/// One aligned table row: the first cell left-aligned in 26 columns, the
/// rest right-aligned in 12. A later cell of 12 or more characters gets
/// one space before it unless the line already ends in one, so cells
/// never touch and a row whose cells fit their columns keeps its layout.
fn format_row(cells: &[String]) -> String {
    let mut line = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i == 0 {
            line.push_str(&format!("{c:<26}"));
        } else {
            if c.chars().count() >= 12 && !line.ends_with(' ') {
                line.push(' ');
            }
            line.push_str(&format!("{c:>12}"));
        }
    }
    line
}

/// Simulates one head of a task on the paper-configuration accelerator.
pub fn simulate(task: &AttentionTask) -> SimReport {
    CtaAccelerator::new(HwConfig::paper()).simulate_head(task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_parallel::Parallelism;
    use cta_workloads::{mini_case, OperatingTable};

    #[test]
    fn operating_points_are_ordered_by_budget() {
        let table = OperatingTable::build(&[mini_case()], Parallelism::serial());
        let (_, pts) = &table.rows()[0];
        assert!(pts[2].config.kv_bucket_width >= pts[0].config.kv_bucket_width);
    }

    #[test]
    fn row_cells_never_touch() {
        let cells = |cs: &[&str]| cs.iter().map(|c| c.to_string()).collect::<Vec<_>>();
        // Cells that fit their columns keep the fixed layout.
        assert_eq!(
            format_row(&cells(&["case", "1.00", "x"])),
            format!("{:<26}{:>12}{:>12}", "case", "1.00", "x")
        );
        // A full first cell followed by a short one is already apart.
        let first = "a".repeat(26);
        assert_eq!(format_row(&cells(&[&first, "1.0"])), format!("{first}{:>12}", "1.0"));
        // Full cells after full cells get one space.
        let wide = "elsa_over_cta";
        assert_eq!(format_row(&cells(&["op", wide, wide])), format!("{:<26}{wide} {wide}", "op"));
        assert_eq!(
            format_row(&cells(&[&first, "b".repeat(12).as_str()])),
            format!("{first} {}", "b".repeat(12))
        );
    }

    #[test]
    fn simulate_runs_paper_config() {
        let r = simulate(&AttentionTask::from_counts(512, 512, 64, 100, 80, 40, 6));
        assert!(r.cycles > 0);
    }
}
