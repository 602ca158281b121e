//! Golden-file pinning for the sweep binaries.
//!
//! Every test here runs a real binary (via `CARGO_BIN_EXE_*`) in a
//! scratch directory and compares its output **byte for byte** against
//! files committed under `tests/golden/`. This is the enforcement arm of
//! the overload-control contract: with `OverloadControl::off()` (the
//! default for `serve_sweep` / `degradation_sweep`, and the `off` half of
//! every `brownout_sweep` pair) the fleet must reproduce the pre-change
//! output bitwise — traced and untraced. Chrome traces are large, so they
//! are pinned by SHA-256 (`tests/support/sha256.rs`; the workspace takes
//! no crypto dependency) against `tests/golden/traced.sha256`.
//!
//! The session and tenancy pins cover what the driver-vs-reference
//! equivalence suites cannot: both drivers share the event handlers, so
//! only a fixed output catches a handler that changed behaviour.
//!
//! If one of these tests fails after an intentional behaviour change,
//! regenerate the goldens with the invocations named in each test and
//! audit the diff before committing it.

use std::path::{Path, PathBuf};
use std::process::Command;

#[path = "support/sha256.rs"]
mod sha256;

use sha256::sha256_hex;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The pinned digest for `name` from `tests/golden/traced.sha256`.
fn pinned_digest(name: &str) -> String {
    sha256::pinned_digest(&golden_dir().join("traced.sha256"), name)
}

/// Runs `bin` with `args` in a fresh scratch directory and returns that
/// directory (the caller reads `results/…` and trace files out of it).
fn run_in_scratch(label: &str, bin: &str, args: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cta-golden-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{label}: {bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

fn assert_bytes_match_golden(dir: &Path, rel: &str, golden_name: &str) {
    let got = std::fs::read(dir.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    let want = std::fs::read(golden_dir().join(golden_name))
        .unwrap_or_else(|e| panic!("golden {golden_name}: {e}"));
    assert!(
        got == want,
        "{rel} drifted from tests/golden/{golden_name} ({} vs {} bytes) — \
         pinned runs must stay bitwise stable",
        got.len(),
        want.len()
    );
}

fn assert_trace_matches_pin(dir: &Path, trace_name: &str) {
    let bytes = std::fs::read(dir.join(trace_name)).unwrap_or_else(|e| panic!("{trace_name}: {e}"));
    assert_eq!(
        sha256_hex(&bytes),
        pinned_digest(trace_name),
        "{trace_name} drifted from its pinned digest — traced runs must stay bitwise stable"
    );
}

// ---------------------------------------------------------------------------
// The pins
// ---------------------------------------------------------------------------

/// `serve_sweep` ships with overload control off; its untraced output is
/// the canonical pre-overload-control fleet, byte for byte.
#[test]
fn serve_sweep_untraced_output_is_bitwise_pinned() {
    let dir = run_in_scratch(
        "serve-untraced",
        env!("CARGO_BIN_EXE_serve_sweep"),
        &["--replicas", "2", "--loads", "0.5,1.2", "--requests", "40", "--seed", "7"],
    );
    assert_bytes_match_golden(&dir, "results/serve_sweep.csv", "serve_sweep.csv");
    assert_bytes_match_golden(&dir, "results/serve_sweep.json", "serve_sweep.json");
}

/// Tracing must observe, never perturb: the traced run reproduces the
/// same results files and a pinned trace.
#[test]
fn serve_sweep_traced_run_is_bitwise_pinned() {
    let dir = run_in_scratch(
        "serve-traced",
        env!("CARGO_BIN_EXE_serve_sweep"),
        &[
            "--replicas",
            "2",
            "--loads",
            "0.5,1.2",
            "--requests",
            "40",
            "--seed",
            "7",
            "--trace",
            "serve_trace.json",
        ],
    );
    assert_bytes_match_golden(&dir, "results/serve_sweep.csv", "serve_sweep.csv");
    assert_bytes_match_golden(&dir, "results/serve_sweep.json", "serve_sweep.json");
    assert_trace_matches_pin(&dir, "serve_trace.json");
}

#[test]
fn degradation_sweep_untraced_output_is_bitwise_pinned() {
    let dir = run_in_scratch(
        "degradation-untraced",
        env!("CARGO_BIN_EXE_degradation_sweep"),
        &["--replicas", "3", "--requests", "60", "--seed", "7", "--mtbf-factors", "2,0.5"],
    );
    assert_bytes_match_golden(&dir, "results/degradation_sweep.csv", "degradation_sweep.csv");
    assert_bytes_match_golden(&dir, "results/degradation_sweep.json", "degradation_sweep.json");
}

#[test]
fn degradation_sweep_traced_run_is_bitwise_pinned() {
    let dir = run_in_scratch(
        "degradation-traced",
        env!("CARGO_BIN_EXE_degradation_sweep"),
        &[
            "--replicas",
            "3",
            "--requests",
            "60",
            "--seed",
            "7",
            "--mtbf-factors",
            "2,0.5",
            "--trace",
            "degradation_trace.json",
        ],
    );
    assert_bytes_match_golden(&dir, "results/degradation_sweep.csv", "degradation_sweep.csv");
    assert_bytes_match_golden(&dir, "results/degradation_sweep.json", "degradation_sweep.json");
    assert_trace_matches_pin(&dir, "degradation_trace.json");
}

/// `brownout_sweep` interleaves controller-off and controller-on rows; the
/// whole table (including the off rows, which must equal the plain fleet)
/// is pinned, as is the controlled trace.
#[test]
fn brownout_sweep_output_is_bitwise_pinned() {
    let dir = run_in_scratch(
        "brownout",
        env!("CARGO_BIN_EXE_brownout_sweep"),
        &[
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
            "--trace",
            "brownout_trace.json",
        ],
    );
    assert_bytes_match_golden(&dir, "results/brownout_sweep.csv", "brownout_sweep.csv");
    assert_bytes_match_golden(&dir, "results/brownout_sweep.json", "brownout_sweep.json");
    assert_trace_matches_pin(&dir, "brownout_trace.json");
}

/// Sticky decode sessions under crash faults: crash eviction, re-prefill
/// on the survivor and session release on the last turn.
#[test]
fn decode_sweep_with_crash_eviction_is_bitwise_pinned() {
    let dir = run_in_scratch(
        "decode-crash",
        env!("CARGO_BIN_EXE_decode_sweep"),
        &["--mtbf-factor", "0.5"],
    );
    assert_bytes_match_golden(&dir, "results/decode_sweep.csv", "decode_sweep_crash.csv");
    assert_bytes_match_golden(&dir, "results/decode_sweep.json", "decode_sweep_crash.json");
}

/// Non-sticky sessions: every turn routes by policy and re-prefills
/// wherever it lands off its resident replica.
#[test]
fn decode_sweep_stateless_policy_is_bitwise_pinned() {
    let dir = run_in_scratch(
        "decode-stateless",
        env!("CARGO_BIN_EXE_decode_sweep"),
        &["--policy", "stateless"],
    );
    assert_bytes_match_golden(&dir, "results/decode_sweep.csv", "decode_sweep_stateless.csv");
    assert_bytes_match_golden(&dir, "results/decode_sweep.json", "decode_sweep_stateless.json");
}

/// The tenancy front door at work: DRR under Hold backpressure, per-tenant
/// quota sheds, and the reactive autoscaler next to a fixed fleet.
#[test]
fn tenant_sweep_hold_quota_and_autoscale_are_bitwise_pinned() {
    let dir = run_in_scratch(
        "tenant",
        env!("CARGO_BIN_EXE_tenant_sweep"),
        &["--skew", "1", "--scheduler", "drr", "--autoscale", "none,reactive", "--quota", "3000:4"],
    );
    assert_bytes_match_golden(&dir, "results/tenant_sweep.csv", "tenant_sweep.csv");
    assert_bytes_match_golden(&dir, "results/tenant_sweep.json", "tenant_sweep.json");
}

#[test]
fn serve_sweep_single_tenant_drr_reproduces_the_pins() {
    // `--scheduler drr` alone enables the tenancy front end with one
    // equal-weight tenant — the configuration contractually pinned
    // bitwise against the tenancy-off fleet. CSV, JSON and trace bytes
    // must all match the goldens exactly.
    let dir = run_in_scratch(
        "serve-tenancy",
        env!("CARGO_BIN_EXE_serve_sweep"),
        &[
            "--replicas",
            "2",
            "--loads",
            "0.5,1.2",
            "--requests",
            "40",
            "--seed",
            "7",
            "--scheduler",
            "drr",
            "--trace",
            "serve_trace.json",
        ],
    );
    assert_bytes_match_golden(&dir, "results/serve_sweep.csv", "serve_sweep.csv");
    assert_bytes_match_golden(&dir, "results/serve_sweep.json", "serve_sweep.json");
    assert_trace_matches_pin(&dir, "serve_trace.json");
}

// ---------------------------------------------------------------------------
// Schema snapshots
// ---------------------------------------------------------------------------

#[test]
fn decode_sweep_reports_record_the_event_driver() {
    // The `engine` key outlived the driver choice: it keeps the one value
    // a run can now have, so the report's field set is unchanged.
    let dir = run_in_scratch(
        "decode-engine-key",
        env!("CARGO_BIN_EXE_decode_sweep"),
        &["--sessions", "4", "--turns", "2", "--thresholds", "1.0"],
    );
    let json = std::fs::read_to_string(dir.join("results/decode_sweep.json")).expect("report");
    assert!(json.contains(r#""engine":"event""#), "{json}");
}

/// Collects every distinct `"key":` in first-appearance order. The report
/// writer serialises objects in insertion order and no string value in
/// these reports embeds a `":`, so a lexical scan is exact enough for a
/// schema snapshot.
fn json_keys(json: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let bytes = json.as_bytes();
    let mut i = 0;
    while let Some(open) = json[i..].find('"') {
        let start = i + open + 1;
        let Some(close) = json[start..].find('"') else { break };
        let end = start + close;
        if bytes.get(end + 1) == Some(&b':') {
            let key = &json[start..end];
            if !keys.iter().any(|k| k == key) {
                keys.push(key.to_string());
            }
            i = end + 2;
        } else {
            // A string value, not a key — skip past it.
            i = end + 1;
        }
    }
    keys
}

/// The schema snapshot for both fault-era sweep binaries: CSV header and
/// JSON field set, pinned exactly. Extending a report is fine — update the
/// snapshot here and bump nothing; *renaming or removing* a field is a
/// breaking change and must bump [`cta_bench::SCHEMA_VERSION`].
#[test]
fn sweep_reports_snapshot_their_schema() {
    let golden = golden_dir();
    let csv_header = |name: &str| {
        let text = std::fs::read_to_string(golden.join(name)).unwrap();
        text.lines().next().unwrap().to_string()
    };
    assert_eq!(
        csv_header("degradation_sweep.csv"),
        "mtbf_factor,crashes_per_replica,completed,shed_lost,shed_other,retried,retry_events,\
         goodput_rps,p50_ms,p99_ms,min_avail,schema_version",
    );
    assert_eq!(
        csv_header("brownout_sweep.csv"),
        "load,mtbf_factor,control,completed,shed,goodput_rps,p50_ms,p99_ms,loss_pct,\
         brownout_s,transitions,hedged,breaker_opens,schema_version",
    );

    let keys = |name: &str| json_keys(&std::fs::read_to_string(golden.join(name)).unwrap());
    assert_eq!(
        keys("degradation_sweep.json"),
        [
            "schema_version",
            "experiment",
            "case",
            "replicas",
            "load",
            "offered_rps",
            "trace_span_s",
            "mttr_factor",
            "routing",
            "batch",
            "queue_depth",
            "requests",
            "seed",
            "points",
            "mtbf_factor",
            "crashes_per_replica",
            "completed",
            "shed",
            "shed_replica_lost",
            "retried",
            "retry_events",
            "goodput_rps",
            "p50_s",
            "p99_s",
            "min_availability",
            "makespan_s",
        ],
        "degradation_sweep JSON schema drifted"
    );
    assert_eq!(
        keys("brownout_sweep.json"),
        [
            "schema_version",
            "experiment",
            "case",
            "replicas",
            "link_gbs",
            "solo_service_s",
            "deadline_s",
            "deadline_factor",
            "mttr_factor",
            "control",
            "routing",
            "batch",
            "queue_depth",
            "requests_per_point",
            "seed",
            "points",
            "load",
            "mtbf_factor",
            "completed",
            "shed",
            "shed_rate",
            "goodput_rps",
            "p50_s",
            "p99_s",
            "mean_accuracy_loss_pct",
            "max_accuracy_loss_pct",
            "brownout_s",
            "brownout_transitions",
            "hedged",
            "hedge_wins",
            "hedge_cancelled",
            "breaker_opens",
            "makespan_s",
        ],
        "brownout_sweep JSON schema drifted"
    );
}
