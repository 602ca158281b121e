//! CLI robustness tests: malformed invocations of the six sweep
//! binaries must print an error plus the usage text to stderr and exit
//! non-zero — never panic (no `RUST_BACKTRACE` hint, no `panicked at`).

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn assert_graceful_failure(bin: &str, args: &[&str], expect: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} must exit non-zero, got {:?}", out.status);
    assert!(stderr.contains("error:"), "{args:?} stderr missing error line: {stderr}");
    assert!(stderr.contains(expect), "{args:?} stderr missing {expect:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?} stderr missing usage text: {stderr}");
    assert!(!stderr.contains("panicked at"), "{args:?} must not panic: {stderr}");
}

const SERVE_SWEEP: &str = env!("CARGO_BIN_EXE_serve_sweep");
const DEGRADATION_SWEEP: &str = env!("CARGO_BIN_EXE_degradation_sweep");
const BROWNOUT_SWEEP: &str = env!("CARGO_BIN_EXE_brownout_sweep");
const TENANT_SWEEP: &str = env!("CARGO_BIN_EXE_tenant_sweep");
const DECODE_SWEEP: &str = env!("CARGO_BIN_EXE_decode_sweep");
const PLANET_SWEEP: &str = env!("CARGO_BIN_EXE_planet_sweep");

/// Every sweep binary, for the table-driven checks.
const SWEEPS: [&str; 6] =
    [SERVE_SWEEP, DEGRADATION_SWEEP, BROWNOUT_SWEEP, TENANT_SWEEP, DECODE_SWEEP, PLANET_SWEEP];

#[test]
fn serve_sweep_rejects_unknown_flags() {
    assert_graceful_failure(SERVE_SWEEP, &["--frobnicate"], "unknown flag");
    // No kernel-policy flag: the kernels have one SIMD path.
    assert_graceful_failure(SERVE_SWEEP, &["--kernels", "simd"], "unknown flag \"--kernels\"");
}

#[test]
fn serve_sweep_rejects_missing_values() {
    assert_graceful_failure(SERVE_SWEEP, &["--replicas"], "needs a value");
    assert_graceful_failure(SERVE_SWEEP, &["--seed", "1", "--loads"], "needs a value");
}

#[test]
fn serve_sweep_rejects_unknown_routing_policies() {
    assert_graceful_failure(SERVE_SWEEP, &["--routing", "chaotic"], "unknown routing policy");
}

#[test]
fn serve_sweep_rejects_unparseable_numbers() {
    assert_graceful_failure(SERVE_SWEEP, &["--requests", "many"], "--requests");
    assert_graceful_failure(SERVE_SWEEP, &["--loads", "0.5,oops"], "--loads");
}

#[test]
fn serve_sweep_rejects_malformed_fault_specs() {
    assert_graceful_failure(SERVE_SWEEP, &["--faults", "5"], "mtbf");
    assert_graceful_failure(SERVE_SWEEP, &["--faults", "abc:1"], "number");
    assert_graceful_failure(SERVE_SWEEP, &["--faults", "0:1"], "positive");
    assert_graceful_failure(SERVE_SWEEP, &["--faults", "bogus"], "mtbf");
}

#[test]
fn serve_sweep_brownout_is_a_bare_switch() {
    // `--brownout` takes no value, mirroring how `--faults off` is the
    // only way to spell the default: a stray operand is an unknown flag.
    assert_graceful_failure(SERVE_SWEEP, &["--brownout", "yes"], "unknown flag");
}

#[test]
fn brownout_sweep_rejects_malformed_invocations() {
    assert_graceful_failure(BROWNOUT_SWEEP, &["--frobnicate"], "unknown flag");
    assert_graceful_failure(BROWNOUT_SWEEP, &["--control"], "needs a value");
    assert_graceful_failure(BROWNOUT_SWEEP, &["--control", "chaos"], "unknown control mode");
    assert_graceful_failure(BROWNOUT_SWEEP, &["--control", "bogus"], "unknown control mode");
    assert_graceful_failure(BROWNOUT_SWEEP, &["--routing", "x"], "unknown routing policy");
    assert_graceful_failure(BROWNOUT_SWEEP, &["--loads", "0.5,oops"], "--loads");
    assert_graceful_failure(BROWNOUT_SWEEP, &["--mtbf-factors", "-1"], "positive");
    assert_graceful_failure(BROWNOUT_SWEEP, &["--deadline-factor", "nan"], "positive");
    assert_graceful_failure(BROWNOUT_SWEEP, &["--link-gbs", "0"], "positive");
}

#[test]
fn degradation_sweep_rejects_malformed_invocations() {
    assert_graceful_failure(DEGRADATION_SWEEP, &["--frobnicate"], "unknown flag");
    assert_graceful_failure(DEGRADATION_SWEEP, &["--load"], "needs a value");
    assert_graceful_failure(DEGRADATION_SWEEP, &["--routing", "x"], "unknown routing policy");
    assert_graceful_failure(DEGRADATION_SWEEP, &["--mtbf-factors", "-1"], "positive");
}

#[test]
fn serve_sweep_rejects_malformed_tenancy_flags() {
    assert_graceful_failure(SERVE_SWEEP, &["--tenants", "many"], "--tenants");
    assert_graceful_failure(SERVE_SWEEP, &["--tenants", "0"], "positive");
    assert_graceful_failure(SERVE_SWEEP, &["--tenants"], "needs a value");
    assert_graceful_failure(SERVE_SWEEP, &["--scheduler", "chaos"], "unknown scheduler");
}

#[test]
fn tenant_sweep_rejects_malformed_invocations() {
    assert_graceful_failure(TENANT_SWEEP, &["--frobnicate"], "unknown flag");
    assert_graceful_failure(TENANT_SWEEP, &["--tenants", "0"], "positive");
    assert_graceful_failure(TENANT_SWEEP, &["--tenants", "many"], "--tenants");
    assert_graceful_failure(TENANT_SWEEP, &["--skew", "-1"], "non-negative");
    assert_graceful_failure(TENANT_SWEEP, &["--skew", "0,oops"], "--skew");
    assert_graceful_failure(TENANT_SWEEP, &["--scheduler", "chaos"], "unknown scheduler");
    assert_graceful_failure(TENANT_SWEEP, &["--scheduler", "bogus"], "unknown scheduler");
    assert_graceful_failure(TENANT_SWEEP, &["--scheduler"], "needs a value");
    assert_graceful_failure(TENANT_SWEEP, &["--autoscale", "wild"], "unknown autoscale policy");
    assert_graceful_failure(TENANT_SWEEP, &["--quota", "100"], "<rps>:<burst>");
    assert_graceful_failure(TENANT_SWEEP, &["--quota", "0:4"], "positive");
    assert_graceful_failure(TENANT_SWEEP, &["--deadline-factor", "0"], "positive");
    assert_graceful_failure(TENANT_SWEEP, &["--load", "-2"], "positive");
}

#[test]
fn serve_sweep_rejects_non_positive_loads() {
    for bad in ["0", "-1", "nan"] {
        assert_graceful_failure(
            SERVE_SWEEP,
            &["--loads", bad],
            "--loads must be a non-empty list of positive numbers",
        );
    }
}

#[test]
fn decode_sweep_rejects_malformed_invocations() {
    let cases: [(&[&str], &str); 12] = [
        (&["--frobnicate"], "unknown flag"),
        (&["--policy", "half"], "unknown policy"),
        (&["--sessions", "0"], "positive"),
        (&["--turns", "0"], ">= 1"),
        (&["--thresholds", "nope"], "--thresholds"),
        (&["--arrival-rate", "0"], "positive"),
        (&["--think-ms", "-1"], "positive"),
        (&["--drift", "-0.1"], "non-negative"),
        (&["--replicas", "0"], "positive"),
        (&["--mtbf-factor", "0"], "positive"),
        (&["--mttr-factor", "0"], "positive"),
        (&["--seed", "x"], "--seed"),
    ];
    for (args, expect) in cases {
        assert_graceful_failure(DECODE_SWEEP, args, expect);
    }
}

/// The usage text a binary prints for an unknown flag.
fn printed_usage(bin: &str) -> String {
    let stderr = String::from_utf8_lossy(&run(bin, &["--frobnicate"]).stderr).into_owned();
    let at = stderr.find("usage:").unwrap_or_else(|| panic!("{bin}: no usage in {stderr}"));
    stderr[at..].to_string()
}

#[test]
fn every_sweep_rejects_the_retired_kernels_flag() {
    // The kernels have one SIMD path, so no sweep takes a policy flag.
    for bin in SWEEPS {
        assert_graceful_failure(bin, &["--kernels", "simd"], "unknown flag \"--kernels\"");
        let usage = printed_usage(bin);
        assert!(!usage.contains("--kernels"), "{bin} usage still lists --kernels: {usage}");
    }
}

#[test]
fn every_value_flag_of_every_sweep_needs_a_value() {
    for bin in SWEEPS {
        let usage = printed_usage(bin);
        let flags = cta_bench::usage_flags(&usage);
        for shared in ["--jobs", "--pool-trace"] {
            assert!(flags.contains(&(shared, true)), "{bin} usage lacks {shared}: {usage}");
        }
        for (flag, _) in flags.iter().filter(|(_, takes_value)| *takes_value) {
            assert_graceful_failure(bin, &[flag], "needs a value");
        }
    }
}
