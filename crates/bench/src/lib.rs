#![deny(missing_docs)]

//! The paper's evaluation as data, and the harness plumbing the serving
//! sweeps share.
//!
//! [`figures`] holds one function per table or figure of the paper, plus
//! ablations, extensions and analyses (the registry
//! [`figures::FIGURES`]; `DESIGN.md` §4 maps each to the paper and
//! `EXPERIMENTS.md` records paper-vs-measured results). Each returns a
//! [`Figure`] — its printed text and its tables — and the `paper` binary
//! prints any of them through the one printer, [`emit`].
//!
//! Results are written as CSV ([`CsvTable`]) and JSON ([`JsonReport`]).
//! A report's values are [`cta_telemetry::JsonValue`]s, the workspace's
//! one JSON value type; [`cta_telemetry::parse_json`], its one reader,
//! reads them back.

pub mod cli;
pub mod figures;
mod report;

use std::path::{Path, PathBuf};

pub use cli::{cli_main, parse_num, usage, usage_flags, Flag, Flags, PARALLEL_FLAGS};
pub use report::{CsvTable, JsonReport, SCHEMA_VERSION};

use cta_sim::{AttentionTask, CtaAccelerator, HwConfig, SimReport};

/// Number of parallel CTA units in the paper's system comparison (12×CTA
/// vs 12×ELSA, iso-area).
pub const UNITS: usize = 12;

/// The directory [`emit`] writes saved tables under.
const RESULTS: &str = "results";

/// Text, or where a table is saved and its `[saved …]` line printed.
#[derive(Debug)]
enum Part {
    Text(String),
    Saved(usize),
}

/// One figure or table of the paper: its printed text and its tables, in
/// the order they are printed.
///
/// ```
/// use cta_bench::Figure;
/// let mut fig = Figure::new("Demo");
/// fig.table("demo", &["n", "speedup"]);
/// fig.row(&["512".into(), "23.0x".into()]);
/// fig.save();
/// assert_eq!(fig.tables()[0].rows()[0][1], "23.0x");
/// assert!(fig.stdout().ends_with("23.0x\n[saved results/demo.csv]\n"));
/// ```
#[derive(Debug)]
pub struct Figure {
    parts: Vec<Part>,
    tables: Vec<CsvTable>,
}

impl Figure {
    /// A figure opening with the banner `title` (see [`Figure::banner`]).
    pub fn new(title: &str) -> Self {
        let mut figure = Self { parts: Vec::new(), tables: Vec::new() };
        figure.banner(title);
        figure
    }

    /// Appends raw text.
    pub fn text(&mut self, text: &str) {
        self.parts.push(Part::Text(text.to_string()));
    }

    /// Appends one line of text.
    pub fn line(&mut self, text: impl AsRef<str>) {
        self.text(&format!("{}\n", text.as_ref()));
    }

    /// Appends a banner: `=== title ===` between blank lines.
    pub fn banner(&mut self, title: &str) {
        self.line(format!("\n=== {title} ===\n"));
    }

    /// Starts a table, printing its header row; later [`Figure::row`]s
    /// go to it. Panics if `columns` is empty.
    pub fn table(&mut self, name: &str, columns: &[&str]) {
        self.tables.push(CsvTable::new(name, columns));
        self.line(format_row(columns));
    }

    /// Prints and records one row of the last table started. Panics if
    /// there is none, or if the cell count differs from its column count.
    pub fn row(&mut self, cells: &[String]) {
        self.tables.last_mut().expect("internal: a row before any table").push(cells);
        self.line(format_row(cells));
    }

    /// Marks the last table started to be written to
    /// `results/<name>.csv` here, where its `[saved …]` line is printed.
    /// Panics if no table was started.
    pub fn save(&mut self) {
        assert!(!self.tables.is_empty(), "internal: save before any table");
        self.parts.push(Part::Saved(self.tables.len() - 1));
    }

    /// Every table, in the order started.
    pub fn tables(&self) -> &[CsvTable] {
        &self.tables
    }

    /// The tables [`emit`] writes under `results/`, in the order saved.
    pub fn saved(&self) -> impl Iterator<Item = &CsvTable> {
        self.parts.iter().filter_map(|part| match part {
            Part::Saved(i) => Some(&self.tables[*i]),
            Part::Text(_) => None,
        })
    }

    /// The stdout [`emit`] writes when every save succeeds.
    pub fn stdout(&self) -> String {
        self.render(|table| Some(table.path_under(Path::new(RESULTS))))
    }

    /// The text, with `[saved <path>]` where `save` wrote a saved table.
    fn render(&self, mut save: impl FnMut(&CsvTable) -> Option<PathBuf>) -> String {
        let saved = |path: PathBuf| format!("[saved {}]\n", path.display());
        self.parts
            .iter()
            .map(|part| match part {
                Part::Text(text) => text.clone(),
                Part::Saved(i) => save(&self.tables[*i]).map(saved).unwrap_or_default(),
            })
            .collect()
    }
}

/// The one printer: writes each saved table of `figure` to `results/` and
/// prints [`Figure::stdout`]. A table it cannot write is reported on
/// stderr, and its `[saved …]` line left out.
pub fn emit(figure: &Figure) {
    print!(
        "{}",
        figure.render(|table| match table.write_under(Path::new(RESULTS)) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("[could not save {RESULTS}/{}.csv: {e}]", table.name());
                None
            }
        })
    );
}

/// One aligned table row: the first cell left-aligned in 26 columns, the
/// rest right-aligned in 12. A later cell of 12 or more characters gets
/// one space before it unless the line already ends in one, so cells
/// never touch and a row whose cells fit their columns keeps its layout.
fn format_row(cells: &[impl AsRef<str>]) -> String {
    let mut line = String::new();
    for (i, c) in cells.iter().map(AsRef::as_ref).enumerate() {
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
    use cta_workloads::{find_all_operating_points, mini_case};

    #[test]
    fn operating_points_are_ordered_by_budget() {
        let pts = find_all_operating_points(&mini_case(), 2);
        assert!(pts[2].config.kv_bucket_width >= pts[0].config.kv_bucket_width);
    }

    #[test]
    fn row_cells_never_touch() {
        // Cells that fit their columns keep the fixed layout.
        assert_eq!(
            format_row(&["case", "1.00", "x"]),
            format!("{:<26}{:>12}{:>12}", "case", "1.00", "x")
        );
        // A full first cell followed by a short one is already apart.
        let first = "a".repeat(26);
        assert_eq!(format_row(&[first.as_str(), "1.0"]), format!("{first}{:>12}", "1.0"));
        // Full cells after full cells get one space.
        let wide = "elsa_over_cta";
        assert_eq!(format_row(&["op", wide, wide]), format!("{:<26}{wide} {wide}", "op"));
        assert_eq!(
            format_row(&[first.clone(), "b".repeat(12)]),
            format!("{first} {}", "b".repeat(12))
        );
    }

    #[test]
    fn stdout_interleaves_text_rows_and_saved_lines() {
        let mut fig = Figure::new("T");
        fig.table("t", &["a", "b"]);
        fig.row(&["1".into(), "2".into()]);
        fig.save();
        fig.line("");
        fig.table("u", &["c"]);
        fig.row(&["3".into()]);
        let (header, row) = (format_row(&["a", "b"]), format_row(&["1", "2"]));
        let (c, three) = (format!("{:<26}", "c"), format!("{:<26}", "3"));
        assert_eq!(
            fig.stdout(),
            format!("\n=== T ===\n\n{header}\n{row}\n[saved results/t.csv]\n\n{c}\n{three}\n")
        );
        assert_eq!(fig.saved().map(CsvTable::name).collect::<Vec<_>>(), ["t"]);
        assert_eq!(fig.tables().len(), 2);
        assert_eq!(fig.tables()[1].to_csv(), "c\n3\n");
    }

    #[test]
    #[should_panic(expected = "a row before any table")]
    fn a_row_needs_a_table() {
        Figure::new("T").row(&["x".into()]);
    }

    #[test]
    fn simulate_runs_paper_config() {
        let r = simulate(&AttentionTask::from_counts(512, 512, 64, 100, 80, 40, 6));
        assert!(r.cycles > 0);
    }
}
