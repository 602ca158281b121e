//! CLI robustness and output-contract tests for `chaos_sweep`:
//! malformed invocations must print an error plus the usage text to
//! stderr and exit non-zero — never panic — and well-formed runs must
//! write the deterministic result files.

use std::process::{Command, Output};

use cta_chaos::{ChaosParams, ChaosScenario, MAX_REPLICAS, MAX_REQUESTS};

const CHAOS_SWEEP: &str = env!("CARGO_BIN_EXE_chaos_sweep");

fn run_in(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(CHAOS_SWEEP)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn chaos_sweep: {e}"))
}

fn run(args: &[&str]) -> Output {
    run_in(std::path::Path::new("."), args)
}

fn assert_graceful_failure(args: &[&str], expect: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} must exit non-zero, got {:?}", out.status);
    assert!(stderr.contains("error:"), "{args:?} stderr missing error line: {stderr}");
    assert!(stderr.contains(expect), "{args:?} stderr missing {expect:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?} stderr missing usage text: {stderr}");
    assert!(!stderr.contains("panicked at"), "{args:?} must not panic: {stderr}");
}

/// A scratch directory under the target tree (results/ lands inside it).
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn rejects_unknown_flags_and_missing_values() {
    assert_graceful_failure(&["--frobnicate"], "unknown flag");
    assert_graceful_failure(&["--seeds"], "needs a value");
    assert_graceful_failure(&["--replay"], "needs a value");
}

#[test]
fn rejects_bad_numbers_and_bounds() {
    assert_graceful_failure(&["--seeds", "many"], "--seeds");
    assert_graceful_failure(&["--seeds", "0"], "--seeds must be positive");
    assert_graceful_failure(&["--replicas-max", "1"], "--replicas-max must be at least 2");
    assert_graceful_failure(&["--requests-max", "4"], "--requests-max must be at least 16");
    assert_graceful_failure(
        &["--replicas-max", "4097"],
        "--replicas-max must be at least 2 and at most 4096",
    );
    assert_graceful_failure(&["--requests-max", "1048577"], "at most 1048576");
    assert_graceful_failure(&["--gray-severity", "0"], "--gray-severity must be positive");
    assert_graceful_failure(&["--gray-severity", "hot"], "--gray-severity");
}

#[test]
fn rejects_unknown_modes() {
    assert_graceful_failure(&["--detector", "sometimes"], "unknown detector mode");
    assert_graceful_failure(&["--chaos-tenancy", "many"], "unknown tenancy mode");
    assert_graceful_failure(&["--chaos-brownout", "dim"], "unknown brownout mode");
    assert_graceful_failure(&["--chaos-faults", "meteor"], "unknown fault class");
    assert_graceful_failure(&["--chaos-sessions", "maybe"], "unknown sessions mode");
}

#[test]
fn rejects_the_retired_kernels_flag() {
    // The kernels have one SIMD path: there is no policy to pick.
    assert_graceful_failure(&["--kernels", "simd"], "unknown flag \"--kernels\"");
}

#[test]
fn every_value_flag_needs_a_value_and_usage_lists_the_shared_flags() {
    let stderr = String::from_utf8_lossy(&run(&["--frobnicate"]).stderr).into_owned();
    let usage = &stderr[stderr.find("usage:").expect("usage text")..];
    let flags = cta_bench::usage_flags(usage);
    for shared in ["--jobs", "--pool-trace"] {
        assert!(flags.contains(&(shared, true)), "usage lacks {shared}: {usage}");
    }
    assert!(flags.contains(&("--inject-bug", false)), "{usage}");
    for (flag, _) in flags.iter().filter(|(_, takes_value)| *takes_value) {
        assert_graceful_failure(&[flag], "needs a value");
    }
}

#[test]
fn replay_of_a_missing_file_fails_gracefully() {
    let out = run(&["--replay", "/nonexistent/chaos_repro.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("error:"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked at"), "must not panic: {stderr}");
}

#[test]
fn replay_of_deeply_nested_json_fails_gracefully() {
    // 100 000 unclosed arrays: a parser recursing once per `[` would
    // overflow the main thread's stack and abort.
    let dir = scratch("chaos_cli_nested");
    let path = dir.join("nested.json");
    std::fs::write(&path, "[".repeat(100_000)).expect("write nested json");
    let out = run_in(&dir, &["--replay", path.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("error:") && stderr.contains("nesting deeper than"), "{stderr}");
    assert!(!stderr.contains("panicked at"), "must not panic: {stderr}");
}

#[test]
fn replay_of_an_oversized_fleet_names_the_field() {
    // A repro whose sizes parse as integers but exceed the replay caps
    // must be refused by name before any fleet is built.
    let dir = scratch("chaos_cli_oversized");
    let sc = ChaosScenario::sample(1, &ChaosParams::default());
    let text = sc.to_json().to_json();
    for (key, value, cap) in
        [("replicas", sc.replicas, MAX_REPLICAS), ("requests", sc.requests, MAX_REQUESTS)]
    {
        let from = format!("\"{key}\":{value}");
        assert!(text.contains(&from), "{text}");
        for claim in [cap + 1, 1 << 62] {
            let path = dir.join(format!("{key}_{claim}.json"));
            let edited = text.replacen(&from, &format!("\"{key}\":{claim}"), 1);
            std::fs::write(&path, edited).expect("write repro");
            let out = run_in(&dir, &["--replay", path.to_str().expect("utf-8 path")]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{key}={claim}: {stderr}");
            assert!(
                stderr.contains("error:") && stderr.contains(&format!("field \"{key}\"")),
                "{stderr}"
            );
            assert!(!stderr.contains("panicked at"), "must not panic: {stderr}");
        }
    }
}

#[test]
fn small_run_writes_the_result_files_and_passes() {
    let dir = scratch("chaos_cli_ok");
    let out = run_in(&dir, &["--seeds", "6", "--jobs", "2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("all 6 seeds passed"), "stdout: {stdout}");
    for file in ["chaos_sweep.csv", "chaos_sweep.json"] {
        assert!(dir.join("results").join(file).is_file(), "missing results/{file}");
    }
}

#[test]
fn reports_record_that_every_seed_ran_both_drivers() {
    // Each seed runs the fleet driver and cross-checks it against the
    // reference scan, so the report says `both`.
    let dir = scratch("chaos_cli_engine_key");
    let out = run_in(&dir, &["--seeds", "2", "--jobs", "1"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(dir.join("results/chaos_sweep.json")).expect("report");
    assert!(json.contains(r#""engine":"both""#), "{json}");
}

#[test]
fn csv_is_identical_across_jobs() {
    let a = scratch("chaos_cli_j1");
    let b = scratch("chaos_cli_j4");
    assert!(run_in(&a, &["--seeds", "8", "--jobs", "1"]).status.success());
    assert!(run_in(&b, &["--seeds", "8", "--jobs", "4"]).status.success());
    let csv_a = std::fs::read(a.join("results/chaos_sweep.csv")).expect("csv a");
    let csv_b = std::fs::read(b.join("results/chaos_sweep.csv")).expect("csv b");
    assert_eq!(csv_a, csv_b, "CSV must be byte-identical across --jobs");
}

#[test]
fn stdout_is_identical_across_jobs() {
    // The summary reports simulated work only, never wall-clock time, so
    // the whole of stdout is as deterministic as the CSV.
    let a = scratch("chaos_cli_stdout_j1");
    let b = scratch("chaos_cli_stdout_j3");
    let out_a = run_in(&a, &["--seeds", "6", "--jobs", "1"]);
    let out_b = run_in(&b, &["--seeds", "6", "--jobs", "3"]);
    assert!(out_a.status.success() && out_b.status.success());
    let stdout = |out: &Output| String::from_utf8(out.stdout.clone()).expect("utf-8 stdout");
    assert_eq!(stdout(&out_a), stdout(&out_b), "stdout must be byte-identical across --jobs");
}

#[test]
fn inject_bug_self_test_catches_and_writes_a_repro() {
    let dir = scratch("chaos_cli_inject");
    let out = run_in(&dir, &["--seeds", "12", "--inject-bug", "--jobs", "2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("self-test OK"), "stdout: {stdout}");
    let repro = dir.join("results/chaos_repro.json");
    assert!(repro.is_file(), "self-test must write the minimized repro");

    // The written repro replays: still failing with the injected bug,
    // clean without it.
    let repro_str = repro.to_str().expect("utf-8 path");
    let bad = run_in(&dir, &["--replay", repro_str, "--inject-bug"]);
    assert!(!bad.status.success(), "minimized repro must still fail under injection");
    assert!(String::from_utf8_lossy(&bad.stderr).contains("violation"));
    let good = run_in(&dir, &["--replay", repro_str]);
    assert!(
        good.status.success(),
        "honest replay must pass: {}",
        String::from_utf8_lossy(&good.stderr)
    );
}

#[test]
fn trace_flag_writes_a_chrome_trace() {
    let dir = scratch("chaos_cli_trace");
    let out = run_in(&dir, &["--seeds", "3", "--trace", "chaos_trace.json"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let trace = std::fs::read_to_string(dir.join("chaos_trace.json")).expect("trace file");
    assert!(
        trace.contains("\"traceEvents\""),
        "not a chrome trace: {}",
        &trace[..trace.len().min(200)]
    );
}

#[test]
fn trace_with_a_partition_overlapping_a_crash_validates() {
    // Seed 799 heals a partition after a crash window on the same
    // replica has closed: the partition interval must not break the
    // order of that replica's fault-lane spans.
    let dir = scratch("chaos_cli_trace_overlap");
    let out = run_in(&dir, &["--seeds", "1", "--seed0", "799", "--trace", "t.json"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let trace = std::fs::read_to_string(dir.join("t.json")).expect("trace file");
    assert!(trace.contains("\"name\":\"partition\""), "seed 799 has no partition interval");
    cta_telemetry::validate_chrome_trace(&trace).expect("a valid Chrome trace");
}
