//! The harness determinism contract, end to end: a sweep binary's output
//! bytes must not depend on the worker count.
//!
//! `tests/golden.rs` pins the results files at the implicit default
//! parallelism; this suite drives the `--jobs` flag (and the `CTA_JOBS`
//! env var) explicitly and byte-compares entire scratch directories, so a
//! nondeterministic reduction, a shared-RNG leak, or an out-of-order row
//! emission fails loudly rather than flaking.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `bin` with `args` (plus optional `CTA_JOBS`) in a fresh scratch
/// directory, keeps its stdout there as `stdout.txt`, and returns that
/// directory.
fn run_in_scratch(label: &str, bin: &str, args: &[&str], env_jobs: Option<&str>) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cta-jobs-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut cmd = Command::new(bin);
    cmd.args(args).current_dir(&dir);
    match env_jobs {
        Some(n) => cmd.env("CTA_JOBS", n),
        None => cmd.env_remove("CTA_JOBS"),
    };
    let out = cmd.output().expect("spawn binary");
    assert!(
        out.status.success(),
        "{label}: {bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::write(dir.join("stdout.txt"), &out.stdout).expect("write stdout");
    dir
}

fn read(dir: &Path, rel: &str) -> Vec<u8> {
    std::fs::read(dir.join(rel)).unwrap_or_else(|e| panic!("{rel} in {}: {e}", dir.display()))
}

/// `serve_sweep --jobs 1` and `--jobs 4` must produce byte-identical
/// results files — the ordered reduction makes worker count unobservable.
#[test]
fn serve_sweep_results_are_identical_across_jobs() {
    let args = ["--replicas", "2", "--loads", "0.5,1.2", "--requests", "40", "--seed", "7"];
    let serial = run_in_scratch(
        "serve-j1",
        env!("CARGO_BIN_EXE_serve_sweep"),
        &[&args[..], &["--jobs", "1"]].concat(),
        None,
    );
    let parallel = run_in_scratch(
        "serve-j4",
        env!("CARGO_BIN_EXE_serve_sweep"),
        &[&args[..], &["--jobs", "4"]].concat(),
        None,
    );
    for rel in ["results/serve_sweep.csv", "results/serve_sweep.json"] {
        assert_eq!(
            read(&serial, rel),
            read(&parallel, rel),
            "{rel} differs between --jobs 1 and --jobs 4"
        );
    }
}

/// The `CTA_JOBS` env var is the same knob as `--jobs`: running under
/// `CTA_JOBS=4` reproduces the `--jobs 1` bytes too.
#[test]
fn degradation_sweep_respects_cta_jobs_env() {
    let args = ["--replicas", "3", "--requests", "60", "--seed", "7", "--mtbf-factors", "2,0.5"];
    let serial = run_in_scratch(
        "degr-j1",
        env!("CARGO_BIN_EXE_degradation_sweep"),
        &[&args[..], &["--jobs", "1"]].concat(),
        None,
    );
    let env4 =
        run_in_scratch("degr-env4", env!("CARGO_BIN_EXE_degradation_sweep"), &args, Some("4"));
    for rel in ["results/degradation_sweep.csv", "results/degradation_sweep.json"] {
        assert_eq!(read(&serial, rel), read(&env4, rel), "{rel} differs under CTA_JOBS=4");
    }
}

/// The grid-paired sweep (two simulations per point, interleaved off/on
/// rows) keeps its row interleaving at any worker count.
#[test]
fn brownout_sweep_row_interleaving_survives_parallelism() {
    let args = [
        "--replicas",
        "2",
        "--loads",
        "0.9,1.6",
        "--requests",
        "60",
        "--seed",
        "7",
        "--mtbf-factors",
        "inf,0.6",
    ];
    let serial = run_in_scratch(
        "brown-j1",
        env!("CARGO_BIN_EXE_brownout_sweep"),
        &[&args[..], &["--jobs", "1"]].concat(),
        None,
    );
    let parallel = run_in_scratch(
        "brown-j3",
        env!("CARGO_BIN_EXE_brownout_sweep"),
        &[&args[..], &["--jobs", "3"]].concat(),
        None,
    );
    for rel in ["results/brownout_sweep.csv", "results/brownout_sweep.json"] {
        assert_eq!(
            read(&serial, rel),
            read(&parallel, rel),
            "{rel} differs between --jobs 1 and --jobs 3"
        );
    }
}

/// `--pool-trace` writes a separate, well-formed Chrome trace without
/// perturbing the deterministic results files.
#[test]
fn pool_trace_rides_along_without_touching_results() {
    let args = ["--replicas", "2", "--loads", "0.5,1.2", "--requests", "40", "--seed", "7"];
    let plain = run_in_scratch(
        "pool-off",
        env!("CARGO_BIN_EXE_serve_sweep"),
        &[&args[..], &["--jobs", "2"]].concat(),
        None,
    );
    let traced = run_in_scratch(
        "pool-on",
        env!("CARGO_BIN_EXE_serve_sweep"),
        &[&args[..], &["--jobs", "2", "--pool-trace", "pool.json"]].concat(),
        None,
    );
    for rel in ["results/serve_sweep.csv", "results/serve_sweep.json"] {
        assert_eq!(read(&plain, rel), read(&traced, rel), "{rel} perturbed by --pool-trace");
    }
    let trace = String::from_utf8(read(&traced, "pool.json")).expect("utf-8 trace");
    assert!(trace.contains("\"traceEvents\""), "pool trace is a Chrome trace envelope");
    assert!(trace.contains("worker"), "pool trace names worker lanes");
}

/// Runs sweep `name` at `--jobs 1` and `--jobs <jobs>` and requires the
/// same stdout and the same `results/`, which holds exactly the sweep's
/// CSV and JSON report and nothing else.
fn assert_unmoved_by_jobs(name: &str, bin: &str, args: &[&str], jobs: &str) {
    let serial =
        run_in_scratch(&format!("{name}-j1"), bin, &[args, &["--jobs", "1"]].concat(), None);
    let parallel =
        run_in_scratch(&format!("{name}-j{jobs}"), bin, &[args, &["--jobs", jobs]].concat(), None);
    assert_eq!(
        String::from_utf8(read(&serial, "stdout.txt")).expect("utf-8 stdout"),
        String::from_utf8(read(&parallel, "stdout.txt")).expect("utf-8 stdout"),
        "{name} stdout differs between --jobs 1 and --jobs {jobs}"
    );
    let files = |dir: &Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir.join("results"))
            .expect("results dir")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let expected = [format!("{name}.csv"), format!("{name}.json")];
    for dir in [&serial, &parallel] {
        assert_eq!(files(dir), expected, "{name} wrote other files under results/");
    }
    for file in &expected {
        let rel = format!("results/{file}");
        assert_eq!(read(&serial, &rel), read(&parallel, &rel), "{rel} differs across --jobs");
    }
}

#[test]
fn tenant_sweep_output_is_unmoved_by_jobs() {
    let args = ["--tenants", "3", "--skew", "0,1", "--scheduler", "fifo,drr", "--requests", "60"];
    assert_unmoved_by_jobs("tenant_sweep", env!("CARGO_BIN_EXE_tenant_sweep"), &args, "3");
}

#[test]
fn planet_sweep_output_is_unmoved_by_jobs() {
    let args = ["--replicas", "4,8", "--requests-per-replica", "2"];
    assert_unmoved_by_jobs("planet_sweep", env!("CARGO_BIN_EXE_planet_sweep"), &args, "2");
}

#[test]
fn decode_sweep_output_is_unmoved_by_jobs() {
    let args = ["--sessions", "4,6", "--turns", "2", "--thresholds", "0.25,1.0"];
    assert_unmoved_by_jobs("decode_sweep", env!("CARGO_BIN_EXE_decode_sweep"), &args, "3");
}
