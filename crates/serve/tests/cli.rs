//! CLI robustness tests: malformed `serve_sweep` / `degradation_sweep` /
//! `brownout_sweep` / `tenant_sweep` / `kernel_sweep` invocations must print an error
//! plus the usage text to stderr and exit non-zero — never panic (no
//! `RUST_BACKTRACE` hint, no `panicked at`).

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
const KERNEL_SWEEP: &str = env!("CARGO_BIN_EXE_kernel_sweep");

#[test]
fn serve_sweep_rejects_unknown_flags() {
    assert_graceful_failure(SERVE_SWEEP, &["--frobnicate"], "unknown flag");
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
fn sweeps_reject_malformed_kernels_flag() {
    // The shared --kernels flag is strict: an unknown spelling is an
    // error on every sweep binary (only the CTA_KERNELS *env default*
    // is forgiving).
    assert_graceful_failure(SERVE_SWEEP, &["--kernels", "turbo"], "scalar|blocked|simd");
    assert_graceful_failure(SERVE_SWEEP, &["--kernels"], "needs a value");
    assert_graceful_failure(KERNEL_SWEEP, &["--kernels", "SIMD"], "scalar|blocked|simd");
    assert_graceful_failure(TENANT_SWEEP, &["--kernels", ""], "scalar|blocked|simd");
}

#[test]
fn kernel_sweep_rejects_malformed_invocations() {
    assert_graceful_failure(KERNEL_SWEEP, &["--frobnicate"], "unknown flag");
    assert_graceful_failure(KERNEL_SWEEP, &["--seed", "many"], "--seed");
    assert_graceful_failure(KERNEL_SWEEP, &["--reps", "0"], "positive");
    assert_graceful_failure(KERNEL_SWEEP, &["--reps"], "needs a value");
}

#[test]
fn tenant_sweep_rejects_malformed_invocations() {
    assert_graceful_failure(TENANT_SWEEP, &["--frobnicate"], "unknown flag");
    assert_graceful_failure(TENANT_SWEEP, &["--tenants", "0"], "positive");
    assert_graceful_failure(TENANT_SWEEP, &["--tenants", "many"], "--tenants");
    assert_graceful_failure(TENANT_SWEEP, &["--skew", "-1"], "non-negative");
    assert_graceful_failure(TENANT_SWEEP, &["--skew", "0,oops"], "--skew");
    assert_graceful_failure(TENANT_SWEEP, &["--scheduler", "chaos"], "unknown scheduler");
    assert_graceful_failure(TENANT_SWEEP, &["--scheduler"], "needs a value");
    assert_graceful_failure(TENANT_SWEEP, &["--autoscale", "wild"], "unknown autoscale policy");
    assert_graceful_failure(TENANT_SWEEP, &["--quota", "100"], "<rps>:<burst>");
    assert_graceful_failure(TENANT_SWEEP, &["--quota", "0:4"], "positive");
    assert_graceful_failure(TENANT_SWEEP, &["--deadline-factor", "0"], "positive");
    assert_graceful_failure(TENANT_SWEEP, &["--load", "-2"], "positive");
}
