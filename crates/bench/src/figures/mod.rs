//! Every table and figure of the paper's evaluation, plus the studies
//! around it, as functions that return a [`Figure`]. Each [`Spec`] of
//! [`FIGURES`] names a figure, declares the cases whose operating points
//! it reads, and renders it from [`Inputs`]. A [`Paper`] run searches the
//! union of its figures' cases once, in one `OperatingTable`, and renders
//! every figure from it, byte-identical at any worker count.

mod ablation;
mod paper;
mod studies;

use cta_parallel::Parallelism;
use cta_workloads::{paper_cases, OperatingPoint, OperatingTable, TestCase};

use ablation::*;
use paper::*;
use studies::*;

use crate::cli::{usage, wrap, Flags, PARALLEL_FLAGS};
use crate::Figure;

/// What a figure reads: the worker pool and the operating points of the
/// cases it declared.
#[derive(Debug)]
pub struct Inputs<'a> {
    /// The worker pool.
    pub jobs: Parallelism,
    table: &'a OperatingTable,
}

impl Inputs<'_> {
    /// The CTA-0 / CTA-0.5 / CTA-1 points of `case`. Panics if `case` is
    /// not among the figure's declared cases.
    pub fn points(&self, case: &TestCase) -> &[OperatingPoint; 3] {
        self.table
            .rows()
            .iter()
            .find_map(|(c, points)| (c == case).then_some(points))
            .unwrap_or_else(|| panic!("internal: {} is not a declared case", case.name()))
    }
}

/// One registered figure.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The figure's name: its `paper` argument, function and golden stem.
    pub name: &'static str,
    /// The cases whose operating points the figure reads.
    pub cases: fn() -> Vec<TestCase>,
    /// Renders the figure.
    pub run: fn(&Inputs) -> Figure,
}

/// `spec!(function[, cases])`: the registry entry named after `function`.
macro_rules! spec {
    ($run:ident) => {
        spec!($run, Vec::new)
    };
    ($run:ident, $cases:expr) => {
        Spec { name: stringify!($run), cases: $cases, run: $run }
    };
}

/// Every figure, sorted by name: the order `paper all` prints them in.
pub const FIGURES: [Spec; 27] = [
    spec!(ablation_bubble_removal, bubble_removal_cases),
    spec!(ablation_clustering_quality),
    spec!(ablation_depth),
    spec!(ablation_hash_length),
    spec!(ablation_memory_opts, probe_case),
    spec!(ablation_quantization),
    spec!(ablation_residual),
    spec!(analysis_error_bound),
    spec!(analysis_layerwise),
    spec!(analysis_stack_accuracy),
    spec!(baseline_a3),
    spec!(baseline_elsa_accuracy),
    spec!(end_to_end, end_to_end_cases),
    spec!(extension_adaptive),
    spec!(extension_causal),
    spec!(extension_ffn, extension_ffn_cases),
    spec!(fig01_demo),
    spec!(fig02_effective_relations, fig02_cases),
    spec!(fig11_accuracy_compression, paper_cases),
    spec!(fig12_throughput_latency, paper_cases),
    spec!(fig13_dse, probe_case),
    spec!(fig14_energy, paper_cases),
    spec!(fig15_area),
    spec!(fig16_memory_access, fig16_cases),
    spec!(sensitivity_models),
    spec!(table1_mapping_trace, probe_case),
    spec!(workload_validation),
];

/// A parsed `paper <figure>...|all [--jobs N]` invocation: the figures to
/// render, in order, and the pool that searches their operating points.
#[derive(Debug)]
pub struct Paper {
    figures: Vec<&'static Spec>,
    jobs: Parallelism,
}

impl Paper {
    /// Parses `argv` (without the program name): figure names or `all`,
    /// and `--jobs N` (default `CTA_JOBS`, then available cores).
    ///
    /// # Errors
    ///
    /// An unknown flag or figure name, a malformed `--jobs`, or no figure.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (flags, names) = Flags::parse_with_operands(&PARALLEL_FLAGS, argv)?;
        let jobs = flags.parallelism()?;
        let mut figures = Vec::new();
        for name in names {
            match FIGURES.iter().find(|spec| spec.name == name) {
                Some(spec) => figures.push(spec),
                None if name == "all" => figures.extend(&FIGURES),
                None => return Err(format!("unknown figure {name:?}")),
            }
        }
        if figures.is_empty() {
            return Err("no figure given".into());
        }
        Ok(Self { figures, jobs })
    }

    /// The union of the figures' cases, each once, in first-declared order.
    pub fn cases(&self) -> Vec<TestCase> {
        let mut cases: Vec<TestCase> = Vec::new();
        for case in self.figures.iter().flat_map(|spec| (spec.cases)()) {
            if !cases.contains(&case) {
                cases.push(case);
            }
        }
        cases
    }

    /// Searches [`Paper::cases`] in one operating table, then renders each
    /// figure from it and hands it to `each`, in order.
    pub fn run(&self, mut each: impl FnMut(&Spec, Figure)) {
        let table = OperatingTable::build(&self.cases(), self.jobs);
        let inputs = Inputs { jobs: self.jobs, table: &table };
        for spec in &self.figures {
            each(spec, (spec.run)(&inputs));
        }
    }
}

/// The `paper` usage text: the flag table, then every figure name.
pub fn paper_usage() -> String {
    let names = FIGURES.iter().map(|spec| spec.name.to_string());
    usage("usage: paper <figure>...|all", &PARALLEL_FLAGS) + "\n" + &wrap("figures:", names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Paper, String> {
        Paper::parse(list.iter().map(|s| s.to_string()))
    }

    fn names(paper: &Paper) -> Vec<&str> {
        paper.figures.iter().map(|spec| spec.name).collect()
    }

    #[test]
    fn names_are_unique_and_all_expands_in_registry_order() {
        let all = parse(&["all"]).unwrap();
        let registry: Vec<_> = FIGURES.iter().map(|spec| spec.name).collect();
        assert_eq!(names(&all), registry);
        let mut sorted = registry.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), FIGURES.len());
        let some = parse(&["fig15_area", "--jobs", "2", "fig01_demo"]).unwrap();
        assert_eq!(names(&some), ["fig15_area", "fig01_demo"]);
        assert_eq!(some.jobs.get(), 2);
    }

    #[test]
    fn bad_invocations_are_typed_errors() {
        assert_eq!(parse(&[]).unwrap_err(), "no figure given");
        assert_eq!(parse(&["fig99"]).unwrap_err(), "unknown figure \"fig99\"");
        assert_eq!(parse(&["all", "--bogus"]).unwrap_err(), "unknown flag \"--bogus\"");
        assert_eq!(
            parse(&["all", "--jobs", "0"]).unwrap_err(),
            "--jobs takes a positive integer, got \"0\""
        );
    }

    #[test]
    fn usage_lists_every_figure() {
        let text = paper_usage();
        assert!(text.starts_with("usage: paper <figure>...|all [--jobs N]\nfigures: "), "{text}");
        for spec in &FIGURES {
            assert!(text.split_whitespace().any(|w| w == spec.name), "{} missing", spec.name);
        }
        assert!(text.lines().all(|line| line.chars().count() <= 80), "{text}");
    }
}
