//! Golden-file pin for `chaos_sweep`.
//!
//! The `Equivalence` invariant compares the fleet driver with the
//! reference scan, and both run the same event handlers, so it cannot see
//! a handler that changed behaviour. This pin can: a 200-seed sweep over
//! every fault class, tenancy, brownout, detector and session mix must
//! reproduce its CSV byte for byte and its JSON by SHA-256 (pinned in
//! `tests/golden/traced.sha256`).
//!
//! After an intentional behaviour change, regenerate with
//! `chaos_sweep --seeds 200` and audit the diff before committing it.

use std::path::{Path, PathBuf};
use std::process::Command;

#[path = "../../serve/tests/support/sha256.rs"]
mod sha256;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn chaos_sweep_200_seeds_is_bitwise_pinned() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos-golden");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_chaos_sweep"))
        .args(["--seeds", "200"])
        .current_dir(&dir)
        .output()
        .expect("spawn chaos_sweep");
    assert!(out.status.success(), "chaos_sweep failed: {}", String::from_utf8_lossy(&out.stderr));
    let csv = std::fs::read(dir.join("results/chaos_sweep.csv")).expect("results/chaos_sweep.csv");
    let want = std::fs::read(golden_dir().join("chaos_sweep.csv")).expect("golden CSV");
    assert!(csv == want, "chaos_sweep.csv drifted from tests/golden/chaos_sweep.csv");
    let json =
        std::fs::read(dir.join("results/chaos_sweep.json")).expect("results/chaos_sweep.json");
    assert_eq!(
        sha256::sha256_hex(&json),
        sha256::pinned_digest(&golden_dir().join("traced.sha256"), "results/chaos_sweep.json"),
        "chaos_sweep.json drifted from its pinned digest"
    );
}
