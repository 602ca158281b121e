//! The redesigned sweep-harness API: one [`SweepSpec`] builder and one
//! [`Harness`] runner shared by every sweep binary.
//!
//! The harness owns the plumbing every sweep shares — flag parsing and
//! usage text, error-to-stderr/non-zero-exit handling, an aligned stdout
//! table, CSV and JSON writers, a Chrome-trace export pass — and
//! **parallel grid evaluation** on the `cta-parallel` work-stealing pool.
//!
//! A sweep binary consists of four pieces:
//!
//! 1. a static flag table (`&[Flag]`, see [`cta_bench::cli`]) declaring
//!    only the sweep's own axes and their defaults — the harness appends
//!    the shared `--jobs N` / `--kernels P` / `--pool-trace <path>`
//!    entries and generates the usage text from the whole table;
//! 2. a [`SweepSpec`] naming the experiment, that table and its
//!    CSV/stdout columns;
//! 3. a function reading the parsed [`Flags`] into the binary's own
//!    argument struct through the typed getters, and range-checking it;
//! 4. an `eval` closure mapping one grid point to its table rows and
//!    JSON points ([`PointOutput`]).
//!
//! # Determinism contract
//!
//! [`Harness::run_grid`] fans the grid across the pool but performs an
//! **ordered reduction**: `par_map` returns per-point outputs in
//! submission order, and rows/points are emitted from that ordered
//! vector. Because every sweep point seeds its own RNGs from the CLI
//! seed (never from run order or thread identity), the CSV, JSON, stdout
//! table and trace bytes are identical at any `--jobs` value — the
//! golden-file pins from the overload-control era pass unchanged under
//! full parallelism. Wall-clock pool occupancy (`--pool-trace`) is the
//! only nondeterministic output, and it is written to its own file.

use std::process::ExitCode;

use cta_bench::{banner, cli_main, Flag, Flags, JsonReport, JsonValue, Table, PARALLEL_FLAGS};
use cta_parallel::{Parallelism, ThreadPool};
use cta_telemetry::{
    chrome_trace_json, pool_occupancy_events, validate_chrome_trace, AggregateReport,
    RingBufferSink,
};
use cta_tensor::KernelPolicy;

/// Ring capacity for `--trace` exports: ~262k events (~15 MB
/// preallocated); longer runs overwrite the oldest window and report the
/// drop count.
pub const TRACE_CAPACITY: usize = 1 << 18;

/// The flags every sweep accepts on top of its own table: the
/// [`PARALLEL_FLAGS`] plus `--pool-trace <path.json>`.
const SHARED_FLAGS: [Flag; 3] =
    [PARALLEL_FLAGS[0], PARALLEL_FLAGS[1], Flag::optional("--pool-trace", "<path.json>")];

/// Declarative description of one sweep experiment: its name (which
/// doubles as the `results/<name>.{csv,json}` stem), flag table, and
/// CSV/stdout column layout.
///
/// Build it fluently, then hand control to [`SweepSpec::main`]:
///
/// ```no_run
/// use cta_bench::Flag;
/// use cta_serve::harness::{PointOutput, SweepSpec};
///
/// const FLAGS: &[Flag] = &[Flag::value("--n", "3")];
///
/// SweepSpec::new("demo_sweep")
///     .flags(FLAGS)
///     .columns(&["x", "y"])
///     .main(std::env::args().skip(1), |f| f.num::<u64>("--n", "an integer"), |h| {
///         let grid: Vec<u64> = (1..=*h.args()).collect();
///         h.run_grid("Demo", &grid, |&x| {
///             let mut out = PointOutput::new();
///             out.row(vec![x.to_string(), (x * x).to_string()]);
///             out
///         }, |_json| {});
///     });
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    name: &'static str,
    flags: &'static [Flag],
    columns: &'static [&'static str],
}

impl SweepSpec {
    /// Starts a spec for the experiment `name`.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        Self { name, flags: &[], columns: &[] }
    }

    /// Sets the sweep's own flag table; the shared `--jobs`, `--kernels`
    /// and `--pool-trace` entries are appended to it.
    #[must_use]
    pub fn flags(mut self, flags: &'static [Flag]) -> Self {
        self.flags = flags;
        self
    }

    /// Sets the CSV/stdout column layout.
    #[must_use]
    pub fn columns(mut self, columns: &'static [&'static str]) -> Self {
        self.columns = columns;
        self
    }

    /// The experiment name (and `results/` file stem).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The full flag table: the sweep's own flags, then the shared ones.
    fn table(&self) -> Vec<Flag> {
        self.flags.iter().chain(&SHARED_FLAGS).copied().collect()
    }

    /// The full binary entry point. Parses `argv` against the full flag
    /// table, reads the shared flags, hands the parsed [`Flags`] to
    /// `parse` for the binary's own arguments, and on success installs
    /// the requested kernel policy (if any) and runs `run` with the
    /// assembled [`Harness`]. Any parse error is printed as `error: …`
    /// plus the generated usage text to stderr, and the process exits
    /// non-zero.
    pub fn main<A>(
        self,
        argv: impl Iterator<Item = String>,
        parse: impl FnOnce(&Flags) -> Result<A, String>,
        run: impl FnOnce(&Harness<A>),
    ) -> ExitCode {
        let table = self.table();
        cli_main(self.name, &table, argv, |flags| {
            let harness = self.harness(flags, parse)?;
            // Install only here, not in `parse`: tests parse specs
            // in-process and must not flip the process-wide policy.
            if let Some(policy) = harness.kernels {
                policy.install();
            }
            run(&harness);
            Ok(())
        })
    }

    /// [`SweepSpec::main`] without the process plumbing: parses `argv`
    /// into a [`Harness`] or returns the error message the binary would
    /// print.
    ///
    /// # Errors
    ///
    /// Returns the first malformed-flag message, either from the walk,
    /// the shared `--jobs` / `--kernels` / `--pool-trace` handling or
    /// from `parse`.
    pub fn parse<A>(
        self,
        argv: impl Iterator<Item = String>,
        parse: impl FnOnce(&Flags) -> Result<A, String>,
    ) -> Result<Harness<A>, String> {
        let table = self.table();
        let flags = Flags::parse(&table, argv)?;
        self.harness(&flags, parse)
    }

    fn harness<A>(
        self,
        flags: &Flags,
        parse: impl FnOnce(&Flags) -> Result<A, String>,
    ) -> Result<Harness<A>, String> {
        let (jobs, kernels) = flags.parallelism()?;
        let pool_trace = flags.opt_text("--pool-trace");
        let args = parse(flags)?;
        Ok(Harness { spec: self, jobs, kernels, pool_trace, args })
    }
}

/// What one evaluated grid point contributes to the report: zero or more
/// table rows (printed and written to CSV in grid order) and zero or
/// more JSON points (appended to the report's `points` array in the same
/// order).
#[derive(Debug, Default)]
pub struct PointOutput {
    rows: Vec<Vec<String>>,
    points: Vec<JsonValue>,
}

impl PointOutput {
    /// An empty contribution.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one table/CSV row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Appends one JSON point.
    pub fn point(&mut self, value: JsonValue) {
        self.points.push(value);
    }
}

/// A parsed sweep invocation: the spec, the shared parallelism knobs,
/// and the binary's own arguments.
#[derive(Debug)]
pub struct Harness<A> {
    spec: SweepSpec,
    jobs: Parallelism,
    kernels: Option<KernelPolicy>,
    pool_trace: Option<String>,
    args: A,
}

impl<A> Harness<A> {
    /// The binary-specific arguments `parse` produced.
    pub fn args(&self) -> &A {
        &self.args
    }

    /// The worker count for grid evaluation (`--jobs`, `CTA_JOBS`, or
    /// available cores).
    pub fn jobs(&self) -> Parallelism {
        self.jobs
    }

    /// The `--kernels` policy of this invocation, if one was given.
    /// [`SweepSpec::main`] installs it process-wide before running;
    /// `None` leaves the `CTA_KERNELS`/auto default in force.
    pub fn kernels(&self) -> Option<KernelPolicy> {
        self.kernels
    }

    /// Evaluates `grid` on the pool and emits the full report: banner,
    /// aligned stdout table, `results/<name>.csv`, and
    /// `results/<name>.json` (metadata fields from `meta`, then the
    /// collected `points` array).
    ///
    /// `eval` runs once per grid point, possibly concurrently; the
    /// reduction is ordered (see the module docs), so output bytes do
    /// not depend on the worker count. With `--pool-trace <path>` the
    /// per-task wall-clock spans are additionally exported as a
    /// validated Chrome trace of pool occupancy.
    pub fn run_grid<P, F>(
        &self,
        banner_text: &str,
        grid: &[P],
        eval: F,
        meta: impl FnOnce(&mut JsonReport),
    ) where
        P: Sync,
        F: Fn(&P) -> PointOutput + Sync,
    {
        banner(banner_text);
        let mut table = Table::new(self.spec.name, self.spec.columns);
        let (outputs, spans) = ThreadPool::new(self.jobs).par_map_timed(grid, &eval);
        let mut points = Vec::new();
        for output in outputs {
            for cells in &output.rows {
                table.row(cells);
            }
            points.extend(output.points);
        }
        table.save();

        let mut json = JsonReport::new(self.spec.name);
        meta(&mut json);
        json.set("points", JsonValue::Arr(points));
        json.save();

        if let Some(path) = &self.pool_trace {
            let events = pool_occupancy_events(&spans);
            let trace = chrome_trace_json(&events);
            validate_chrome_trace(&trace)
                .unwrap_or_else(|e| panic!("internal: pool occupancy trace invalid: {e}"));
            std::fs::write(path, &trace).unwrap_or_else(|e| panic!("{path}: {e}"));
            println!("pool occupancy — {} tasks over {} workers -> {path}", grid.len(), self.jobs);
        }
    }
}

/// The shared telemetry pass: runs `record` against a preallocated ring
/// buffer, validates the exported Chrome trace, writes it to `path`, and
/// prints the aggregate report under `banner_text` (plus a drop note if
/// the ring wrapped). All three sweeps used to inline this block.
pub fn export_trace(path: &str, banner_text: &str, record: impl FnOnce(&mut RingBufferSink)) {
    let mut sink = RingBufferSink::with_capacity(TRACE_CAPACITY);
    record(&mut sink);
    let events = sink.events();
    let json = chrome_trace_json(&events);
    validate_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("internal: exported trace invalid: {e}"));
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("{path}: {e}"));

    banner(banner_text);
    print!("{}", AggregateReport::from_events(&events).render(None));
    if sink.dropped() > 0 {
        println!(
            "note: ring buffer wrapped — {} oldest events dropped (capacity {})",
            sink.dropped(),
            sink.capacity()
        );
    }
    println!("open in chrome://tracing or https://ui.perfetto.dev");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(list: &[&str]) -> impl Iterator<Item = String> + use<> {
        list.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter()
    }

    const X: &[Flag] = &[Flag::value("--x", "0")];

    #[test]
    fn spec_reads_shared_flags_next_to_the_binary_table() {
        let h = SweepSpec::new("t")
            .flags(X)
            .parse(words(&["--jobs", "3", "--x", "7", "--pool-trace", "p.json"]), |flags| {
                flags.num::<usize>("--x", "an integer")
            })
            .expect("valid");
        assert_eq!(h.jobs().get(), 3);
        assert_eq!(*h.args(), 7);
        assert_eq!(h.pool_trace.as_deref(), Some("p.json"));
    }

    #[test]
    fn shared_flag_errors_use_the_common_wording() {
        let parse = |list: &[&str]| SweepSpec::new("t").parse(words(list), |_| Ok(()));
        assert!(parse(&["--jobs"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--pool-trace"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--kernels"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--kernels", "turbo"])
            .unwrap_err()
            .contains("--kernels takes scalar|blocked|simd"));
    }

    #[test]
    fn kernels_flag_is_recorded_without_installing() {
        let h =
            SweepSpec::new("t").parse(words(&["--kernels", "blocked"]), |_| Ok(())).expect("valid");
        // Recorded on the harness; installation is main()'s job so that
        // in-process parses stay side-effect-free.
        assert_eq!(h.kernels(), Some(KernelPolicy::Blocked));
        let h = SweepSpec::new("t").parse(words(&[]), |_| Ok(())).expect("valid");
        assert_eq!(h.kernels(), None);
    }

    #[test]
    fn binary_errors_pass_through() {
        let parse = |list: &[&str]| {
            SweepSpec::new("t")
                .flags(X)
                .parse(words(list), |flags| flags.num::<usize>("--x", "an integer"))
        };
        assert!(parse(&["--frob"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--x", "y"]).unwrap_err().contains("--x takes an integer"));
    }

    #[test]
    fn the_table_ends_with_the_shared_flags() {
        let spec = SweepSpec::new("demo").flags(X).columns(&["a"]);
        assert_eq!(spec.name(), "demo");
        let names: Vec<_> = spec.table().iter().map(|f| f.name).collect();
        assert_eq!(names, ["--x", "--jobs", "--kernels", "--pool-trace"]);
    }
}
