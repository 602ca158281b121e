//! Golden-file pinning for the sweep binaries.
//!
//! Every test here runs a real binary (via `CARGO_BIN_EXE_*`) in a
//! scratch directory and compares its output **byte for byte** against
//! files committed under `tests/golden/`. This is the enforcement arm of
//! the overload-control contract: with `OverloadControl::off()` (the
//! default for `serve_sweep` / `degradation_sweep`, and the `off` half of
//! every `brownout_sweep` pair) the fleet must reproduce the pre-change
//! output bitwise — traced and untraced. Chrome traces are large, so they
//! are pinned by SHA-256 (implemented inline below; the workspace takes
//! no crypto dependency) against `tests/golden/traced.sha256`.
//!
//! If one of these tests fails after an intentional behaviour change,
//! regenerate the goldens with the invocations named in each test and
//! audit the diff before committing it.

use std::path::{Path, PathBuf};
use std::process::Command;

// ---------------------------------------------------------------------------
// Minimal SHA-256 (FIPS 180-4), enough to check the pinned trace digests.
// ---------------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

fn sha256_hex(data: &[u8]) -> String {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());
    for block in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    h.iter().map(|v| format!("{v:08x}")).collect()
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The pinned digest for `name` from `tests/golden/traced.sha256`.
fn pinned_digest(name: &str) -> String {
    let listing = std::fs::read_to_string(golden_dir().join("traced.sha256"))
        .expect("tests/golden/traced.sha256");
    for line in listing.lines() {
        if let Some((digest, file)) = line.split_once("  ") {
            if file.trim() == name {
                return digest.to_string();
            }
        }
    }
    panic!("{name} not pinned in traced.sha256");
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
         the controller-disabled path must stay bitwise stable",
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
