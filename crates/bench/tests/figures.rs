//! Every figure against its golden, and the `paper` driver's
//! command-line contract.
//!
//! `tests/golden/` pins the stdout and `results/*.csv` of every figure in
//! the `cta_bench::figures` registry. The figures below finish within
//! seconds in a debug build, so the test suite renders them in-process
//! and compares both outputs byte for byte. The rest (the Fig. 11-14 and
//! end-to-end sweeps among them) take minutes unoptimised and are
//! `#[ignore]`d; CI runs them in release, together with every figure
//! that reads the pool alone at 1 and 4 workers and all of them from one
//! shared table.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use cta_bench::figures::{paper_usage, Paper, FIGURES};

/// The committed goldens.
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn words(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Names of the files in `dir` with extension `ext`, without it, sorted.
fn stems(dir: &Path, ext: &str) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return vec![];
    };
    let mut names: Vec<String> = entries
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .map(|p| p.file_stem().expect("file stem").to_string_lossy().into())
        .collect();
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

/// Renders the figures of `paper <argv>` in-process, from the one table
/// the run builds, and compares each figure's stdout and saved CSVs with
/// the goldens. Returns the names of the CSVs saved.
fn assert_matches_goldens(argv: &[&str]) -> Vec<String> {
    let paper = Paper::parse(words(argv)).expect("valid invocation");
    let mut saved = Vec::new();
    paper.run(|spec, figure| {
        let golden = golden_dir().join(format!("{}.stdout", spec.name));
        assert_same_bytes(&format!("{} stdout", spec.name), figure.stdout().as_bytes(), &golden);
        for table in figure.saved() {
            let golden = golden_dir().join("results").join(format!("{}.csv", table.name()));
            assert_same_bytes(
                &format!("{} {}", spec.name, table.name()),
                table.to_csv().as_bytes(),
                &golden,
            );
            saved.push(table.name().to_string());
        }
    });
    saved.sort();
    saved
}

macro_rules! golden {
    ($name:ident) => {
        #[test]
        fn $name() {
            assert_matches_goldens(&[stringify!($name)]);
        }
    };
    (slow $name:ident) => {
        #[test]
        #[ignore = "minutes unoptimised; CI runs it in release"]
        fn $name() {
            assert_matches_goldens(&[stringify!($name)]);
        }
    };
}

golden!(ablation_hash_length);
golden!(ablation_quantization);
golden!(ablation_residual);
golden!(analysis_error_bound);
golden!(analysis_layerwise);
golden!(baseline_a3);
golden!(baseline_elsa_accuracy);
golden!(extension_adaptive);
golden!(extension_causal);
golden!(fig01_demo);
golden!(fig15_area);
golden!(sensitivity_models);
golden!(workload_validation);

golden!(slow ablation_bubble_removal);
golden!(slow ablation_clustering_quality);
golden!(slow ablation_depth);
golden!(slow ablation_memory_opts);
golden!(slow analysis_stack_accuracy);
golden!(slow end_to_end);
golden!(slow extension_ffn);
golden!(slow fig02_effective_relations);
golden!(slow fig11_accuracy_compression);
golden!(slow fig12_throughput_latency);
golden!(slow fig13_dse);
golden!(slow fig14_energy);
golden!(slow fig16_memory_access);
golden!(slow table1_mapping_trace);

/// Each figure that declares cases, from a table of its own cases, on a
/// 1- and a 4-worker pool. The others read nothing from the pool (Fig.
/// 13's sweep, the one other pool reader, declares its probe case).
#[test]
#[ignore = "minutes unoptimised; CI runs it in release"]
fn every_pooled_figure_alone_at_1_and_4_workers() {
    for jobs in ["1", "4"] {
        for spec in FIGURES.iter().filter(|spec| !(spec.cases)().is_empty()) {
            assert_matches_goldens(&[spec.name, "--jobs", jobs]);
        }
    }
}

/// Every figure from the one table `paper all` builds; together they save
/// exactly the golden CSVs.
#[test]
#[ignore = "minutes unoptimised; CI runs it in release"]
fn every_figure_from_one_shared_table() {
    let saved = assert_matches_goldens(&["all"]);
    assert_eq!(saved, stems(&golden_dir().join("results"), "csv"));
}

/// The registry holds one figure per golden `*.stdout`, in sorted order,
/// so `paper all` prints the goldens concatenated in file-name order.
#[test]
fn the_registry_is_the_sorted_golden_stems() {
    let names: Vec<String> = FIGURES.iter().map(|spec| spec.name.to_string()).collect();
    assert_eq!(names, stems(&golden_dir(), "stdout"));
}

/// The driver searches each case of the union once, and the union holds
/// every case any figure declares.
#[test]
fn the_case_union_holds_every_declared_case_once() {
    let cases = Paper::parse(words(&["all"])).expect("valid").cases();
    for (i, case) in cases.iter().enumerate() {
        assert!(!cases[..i].contains(case), "{} searched twice", case.name());
    }
    for spec in &FIGURES {
        for case in (spec.cases)() {
            assert!(cases.contains(&case), "{}: {} not searched", spec.name, case.name());
        }
    }
    // Fig. 11's ten cases hold the BERT-large/IMDB probe of fig13.
    let shared = Paper::parse(words(&["fig11_accuracy_compression", "fig13_dse"])).expect("valid");
    assert_eq!(shared.cases(), cta_workloads::paper_cases());
}

/// The malformed flags every figure name must reject, and their errors.
const MALFORMED: [(&[&str], &str); 4] = [
    (&["--bogus"], "unknown flag \"--bogus\""),
    (&["--jobs"], "--jobs needs a value"),
    (&["--jobs", "0"], "--jobs takes a positive integer, got \"0\""),
    (&["--jobs", "x"], "--jobs takes a positive integer, got \"x\""),
];

/// `paper <name>` parses, and `paper <name>` plus a malformed flag is a
/// typed error. Every former figure binary's name is checked.
fn assert_rejects_malformed_flags(name: &str) {
    assert!(Paper::parse(words(&[name])).is_ok(), "{name} is not a figure");
    for (flags, expect) in MALFORMED {
        let argv = std::iter::once(name).chain(flags.iter().copied()).map(String::from);
        assert_eq!(Paper::parse(argv).unwrap_err(), expect, "{name} {flags:?}");
    }
}

macro_rules! flag_contract {
    ($test:ident, $name:ident) => {
        #[test]
        fn $test() {
            assert_rejects_malformed_flags(stringify!($name));
        }
    };
}

flag_contract!(fig01_rejects_malformed_flags, fig01_demo);
flag_contract!(fig02_rejects_malformed_flags, fig02_effective_relations);
flag_contract!(fig11_rejects_malformed_flags, fig11_accuracy_compression);
flag_contract!(fig12_rejects_malformed_flags, fig12_throughput_latency);
flag_contract!(fig13_rejects_malformed_flags, fig13_dse);
flag_contract!(fig14_rejects_malformed_flags, fig14_energy);
flag_contract!(fig15_rejects_malformed_flags, fig15_area);
flag_contract!(fig16_rejects_malformed_flags, fig16_memory_access);
flag_contract!(table1_rejects_malformed_flags, table1_mapping_trace);
flag_contract!(end_to_end_rejects_malformed_flags, end_to_end);
flag_contract!(ablation_bubble_removal_rejects_malformed_flags, ablation_bubble_removal);
flag_contract!(ablation_clustering_quality_rejects_malformed_flags, ablation_clustering_quality);
flag_contract!(ablation_depth_rejects_malformed_flags, ablation_depth);
flag_contract!(ablation_hash_length_rejects_malformed_flags, ablation_hash_length);
flag_contract!(ablation_memory_opts_rejects_malformed_flags, ablation_memory_opts);
flag_contract!(ablation_quantization_rejects_malformed_flags, ablation_quantization);
flag_contract!(ablation_residual_rejects_malformed_flags, ablation_residual);
flag_contract!(analysis_error_bound_rejects_malformed_flags, analysis_error_bound);
flag_contract!(analysis_layerwise_rejects_malformed_flags, analysis_layerwise);
flag_contract!(analysis_stack_accuracy_rejects_malformed_flags, analysis_stack_accuracy);
flag_contract!(baseline_a3_rejects_malformed_flags, baseline_a3);
flag_contract!(baseline_elsa_accuracy_rejects_malformed_flags, baseline_elsa_accuracy);
flag_contract!(extension_adaptive_rejects_malformed_flags, extension_adaptive);
flag_contract!(extension_causal_rejects_malformed_flags, extension_causal);
flag_contract!(extension_ffn_rejects_malformed_flags, extension_ffn);
flag_contract!(sensitivity_models_rejects_malformed_flags, sensitivity_models);
flag_contract!(workload_validation_rejects_malformed_flags, workload_validation);

/// An empty directory under the target tree for one run of `paper`
/// (`results/` lands inside it).
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn paper(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn paper: {e}"))
}

/// The binary: a bad invocation prints `error:` and the generated usage
/// to stderr and exits 1 before printing or writing anything; a good one
/// prints the figures' goldens in order and writes their golden CSVs.
#[test]
fn paper_prints_goldens_and_rejects_bad_invocations() {
    let dir = scratch("paper-contract");
    let bad = MALFORMED
        .iter()
        .map(|(flags, expect)| ([&["fig15_area"][..], flags].concat(), *expect))
        .chain([(vec!["fig99"], "unknown figure \"fig99\""), (vec![], "no figure given")]);
    for (args, expect) in bad {
        let out = paper(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr, format!("error: {expect}\n{}\n", paper_usage()), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }
    assert!(!dir.join("results").exists(), "a failed run wrote results/");

    let out = paper(&dir, &["fig15_area", "workload_validation"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut want = std::fs::read(golden_dir().join("fig15_area.stdout")).expect("golden");
    want.extend(std::fs::read(golden_dir().join("workload_validation.stdout")).expect("golden"));
    assert!(out.stdout == want, "stdout:\n{}", String::from_utf8_lossy(&out.stdout));
    assert_eq!(stems(&dir.join("results"), "csv"), ["workload_validation"]);
    let got = std::fs::read(dir.join("results/workload_validation.csv")).expect("results CSV");
    assert_same_bytes(
        "workload_validation.csv",
        &got,
        &golden_dir().join("results/workload_validation.csv"),
    );
}
