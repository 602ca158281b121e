//! Figure binaries against their goldens, and the flag contract of every
//! binary.
//!
//! `tests/golden/` pins the stdout and `results/*.csv` of every
//! `cta-bench` binary; CI's figure-golden job reruns all of them in
//! release. The binaries below finish within seconds in a debug build,
//! so the test suite reruns them too, each in its own directory, and
//! compares both outputs byte for byte. The rest (the Fig. 11-14 and
//! end-to-end sweeps among them) take minutes unoptimised and are left
//! to the release job.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The committed goldens.
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// An empty directory under the target tree for one binary's run
/// (`results/` lands inside it).
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_in(dir: &Path, exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

/// Names of the CSV files `dir/results` holds, sorted (none when the
/// binary wrote no table).
fn csv_names(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir.join("results")) else {
        return vec![];
    };
    let mut names: Vec<String> =
        entries.map(|e| e.expect("results entry").file_name().to_string_lossy().into()).collect();
    names.sort();
    names
}

fn assert_same_bytes(what: &str, got: &[u8], golden: &Path) {
    let want =
        std::fs::read(golden).unwrap_or_else(|e| panic!("read golden {}: {e}", golden.display()));
    assert!(
        got == want.as_slice(),
        "{what} differs from {}:\n--- got ---\n{}\n--- golden ---\n{}",
        golden.display(),
        String::from_utf8_lossy(got),
        String::from_utf8_lossy(&want)
    );
}

/// Runs binary `name` at its default flags and compares its stdout and
/// the CSV files it writes (exactly `csvs`) with the goldens.
fn assert_matches_golden(name: &str, exe: &str, csvs: &[&str]) {
    let dir = scratch(name);
    let out = run_in(&dir, exe, &[]);
    assert!(out.status.success(), "{name} failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_same_bytes(
        &format!("{name} stdout"),
        &out.stdout,
        &golden_dir().join(format!("{name}.stdout")),
    );
    assert_eq!(csv_names(&dir), csvs, "{name} wrote an unexpected set of results/ files");
    for csv in csvs {
        let got = std::fs::read(dir.join("results").join(csv)).expect("read results CSV");
        assert_same_bytes(&format!("{name} {csv}"), &got, &golden_dir().join("results").join(csv));
    }
}

macro_rules! golden {
    ($name:ident $(, $csv:literal)*) => {
        #[test]
        fn $name() {
            assert_matches_golden(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                &[$($csv),*],
            );
        }
    };
}

golden!(ablation_hash_length);
golden!(ablation_quantization);
golden!(ablation_residual);
golden!(analysis_error_bound);
golden!(analysis_layerwise, "analysis_layerwise.csv");
golden!(baseline_a3);
golden!(baseline_elsa_accuracy);
golden!(extension_adaptive);
golden!(extension_causal);
golden!(fig01_demo);
golden!(fig15_area);
golden!(sensitivity_models);
golden!(workload_validation, "workload_validation.csv");

/// An unknown flag, or a malformed `--jobs` where the binary takes one,
/// prints `error:` and the usage line generated from the binary's flag
/// table to stderr and exits 1, before the binary prints or writes
/// anything. A binary without `--jobs` rejects it as an unknown flag.
fn assert_rejects_malformed_flags(name: &str, exe: &str, takes_jobs: bool) {
    let dir = scratch(&format!("{name}-flags"));
    let jobs_error = |e: &'static str| if takes_jobs { e } else { "unknown flag \"--jobs\"" };
    let usage =
        if takes_jobs { format!("usage: {name} [--jobs N]\n") } else { format!("usage: {name}\n") };
    for (args, expect) in [
        (&["--bogus"][..], "unknown flag \"--bogus\""),
        (&["--jobs"][..], jobs_error("--jobs needs a value")),
        (&["--jobs", "0"][..], jobs_error("--jobs takes a positive integer, got \"0\"")),
        (&["--jobs", "x"][..], jobs_error("--jobs takes a positive integer, got \"x\"")),
    ] {
        let out = run_in(&dir, exe, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {stderr}");
        assert!(stderr.contains(&format!("error: {expect}")), "{name} {args:?}: {stderr}");
        assert!(stderr.contains(&usage), "{name} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name} {args:?} must not panic: {stderr}");
        assert!(out.stdout.is_empty(), "{name} {args:?} printed before failing");
    }
    assert_eq!(csv_names(&dir), Vec::<String>::new(), "{name} wrote results before failing");
}

/// `flag_contract!(test, binary, takes_jobs)`: every binary is listed,
/// and `takes_jobs` marks fig11-fig14, the four that size their pool
/// with `--jobs`. The other operating-table readers take `CTA_JOBS`
/// (or run serially, over one case) and no flags.
macro_rules! flag_contract {
    ($test:ident, $name:ident, $takes_jobs:literal) => {
        #[test]
        fn $test() {
            assert_rejects_malformed_flags(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                $takes_jobs,
            );
        }
    };
}

flag_contract!(fig02_rejects_malformed_flags, fig02_effective_relations, false);
flag_contract!(fig11_rejects_malformed_flags, fig11_accuracy_compression, true);
flag_contract!(fig12_rejects_malformed_flags, fig12_throughput_latency, true);
flag_contract!(fig13_rejects_malformed_flags, fig13_dse, true);
flag_contract!(fig14_rejects_malformed_flags, fig14_energy, true);
flag_contract!(fig16_rejects_malformed_flags, fig16_memory_access, false);
flag_contract!(table1_rejects_malformed_flags, table1_mapping_trace, false);
flag_contract!(end_to_end_rejects_malformed_flags, end_to_end, false);
flag_contract!(extension_ffn_rejects_malformed_flags, extension_ffn, false);
flag_contract!(ablation_bubble_removal_rejects_malformed_flags, ablation_bubble_removal, false);
flag_contract!(ablation_memory_opts_rejects_malformed_flags, ablation_memory_opts, false);
flag_contract!(fig01_rejects_malformed_flags, fig01_demo, false);
flag_contract!(fig15_rejects_malformed_flags, fig15_area, false);
flag_contract!(
    ablation_clustering_quality_rejects_malformed_flags,
    ablation_clustering_quality,
    false
);
flag_contract!(ablation_depth_rejects_malformed_flags, ablation_depth, false);
flag_contract!(ablation_hash_length_rejects_malformed_flags, ablation_hash_length, false);
flag_contract!(ablation_quantization_rejects_malformed_flags, ablation_quantization, false);
flag_contract!(ablation_residual_rejects_malformed_flags, ablation_residual, false);
flag_contract!(analysis_error_bound_rejects_malformed_flags, analysis_error_bound, false);
flag_contract!(analysis_layerwise_rejects_malformed_flags, analysis_layerwise, false);
flag_contract!(analysis_stack_accuracy_rejects_malformed_flags, analysis_stack_accuracy, false);
flag_contract!(baseline_a3_rejects_malformed_flags, baseline_a3, false);
flag_contract!(baseline_elsa_accuracy_rejects_malformed_flags, baseline_elsa_accuracy, false);
flag_contract!(extension_adaptive_rejects_malformed_flags, extension_adaptive, false);
flag_contract!(extension_causal_rejects_malformed_flags, extension_causal, false);
flag_contract!(sensitivity_models_rejects_malformed_flags, sensitivity_models, false);
flag_contract!(workload_validation_rejects_malformed_flags, workload_validation, false);
