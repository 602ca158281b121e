//! Kernel microbenchmark sweep: wall-clock for every hot inner loop
//! under each [`KernelPolicy`], with a built-in bitwise cross-check.
//!
//! Seven kernels — the quantized matmul / transposed matmul / saturating
//! subtract from `cta-fixed`, the f32 matmul pair from `cta-tensor`, the
//! batched LSH hash from `cta-lsh` and the PAG probability aggregation
//! from `cta-attention` — are each run at the paper's three workload
//! shapes (SQuAD `n=384`, IMDb `n=512`, and a long-sequence `n=1024`
//! point, all at `d=64`) under **all three** kernel policies. Every
//! point asserts that scalar, blocked and SIMD outputs are
//! bit-for-bit identical before any timing is reported, so the sweep is
//! simultaneously the end-to-end pin of the kernel-equivalence contract
//! and its performance ledger.
//!
//! The flags and their defaults are declared once, in the `FLAGS` table
//! below; the usage text printed on a malformed invocation is generated
//! from it.
//!
//! **Outputs.** The stdout table and `results/kernel_sweep.{csv,json}`
//! carry one row per (kernel, shape) with an FNV-1a digest of the
//! output bits — deterministic for a fixed `--seed` at any `--jobs` or
//! `--kernels` value (the sweep exercises each policy explicitly, so
//! the installed process-wide policy cannot change its bytes; CI
//! byte-compares the CSV across all three `--kernels` spellings).
//! Wall-clock is *not* deterministic and goes to
//! `results/BENCH_kernels.json` instead: one entry per (kernel, shape,
//! policy) with the best-of-`--reps` milliseconds, merged as a per-PR
//! trajectory by [`BenchSidecar`]. Run with `--jobs 1` for uncontended
//! numbers — grid points time kernels while other points run.

use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use cta_attention::{aggregate_probabilities_kernel, QuantizationConfig};
use cta_bench::{BenchSidecar, Flag, Flags, JsonValue, SCHEMA_VERSION};
use cta_fixed::{QFormat, QuantizedMatrix};
use cta_lsh::{ClusterTable, LshFamily, LshParams};
use cta_tensor::{standard_normal_matrix, KernelPolicy, Matrix};

use crate::harness::{Harness, PointOutput, SweepSpec};

/// The sweep's own flags and defaults; the harness appends the shared
/// `--jobs`, `--kernels` and `--pool-trace`.
const FLAGS: &[Flag] = &[Flag::value("--seed", "7"), Flag::value("--reps", "3")];

/// CSV/stdout column layout; the trailing `schema_version` column repeats
/// [`cta_bench::SCHEMA_VERSION`] on every row.
const SWEEP_COLUMNS: &[&str] = &["kernel", "shape", "n", "d", "digest", "schema_version"];

/// The paper's workload shapes: sequence length `n`, head dim `d`, and
/// the §III cluster counts `k₀ = k₁ = n/4`, `k₂ = n/16`.
#[derive(Debug, Clone, Copy)]
struct Shape {
    name: &'static str,
    n: usize,
    d: usize,
}

impl Shape {
    const ALL: [Shape; 3] = [
        Shape { name: "squad", n: 384, d: 64 },
        Shape { name: "imdb", n: 512, d: 64 },
        Shape { name: "long", n: 1024, d: 64 },
    ];

    fn k0(self) -> usize {
        self.n / 4
    }

    fn k1(self) -> usize {
        self.n / 4
    }

    fn k2(self) -> usize {
        self.n / 16
    }
}

/// The hot loops under measurement, one per `_with` entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// `QuantizedMatrix::matmul_with` — centroid panel × weight matrix.
    QMatmul,
    /// `QuantizedMatrix::matmul_transpose_b_with` — the S̄ score product.
    QMatmulTb,
    /// `QuantizedMatrix::sub_with` — the level-2 residual subtract.
    QSub,
    /// `Matrix::matmul_with` — f32 `n×d · d×n`.
    MatmulF32,
    /// `Matrix::matmul_transpose_b_with` — f32 `n×d · (n×d)ᵀ`.
    MatmulTbF32,
    /// `LshFamily::hash_matrix_with` — batched token hashing.
    LshHash,
    /// `aggregate_probabilities_kernel` — the PAG exp/scatter loop.
    PagAggregate,
}

impl Kernel {
    const ALL: [Kernel; 7] = [
        Kernel::QMatmul,
        Kernel::QMatmulTb,
        Kernel::QSub,
        Kernel::MatmulF32,
        Kernel::MatmulTbF32,
        Kernel::LshHash,
        Kernel::PagAggregate,
    ];

    fn label(self) -> &'static str {
        match self {
            Kernel::QMatmul => "qmatmul",
            Kernel::QMatmulTb => "qmatmul_tb",
            Kernel::QSub => "qsub",
            Kernel::MatmulF32 => "matmul_f32",
            Kernel::MatmulTbF32 => "matmul_tb_f32",
            Kernel::LshHash => "lsh_hash",
            Kernel::PagAggregate => "pag_aggregate",
        }
    }
}

#[derive(Debug)]
struct Args {
    seed: u64,
    reps: usize,
}

impl Args {
    fn from_flags(f: &Flags) -> Result<Self, String> {
        let args =
            Args { seed: f.num("--seed", "an integer")?, reps: f.num("--reps", "an integer")? };
        if args.reps == 0 {
            return Err("--reps takes a positive integer, got \"0\"".to_string());
        }
        Ok(args)
    }
}

/// FNV-1a over a byte stream: the digest that proves cross-policy
/// identity in the CSV without pinning megabytes of output.
fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Digest of an f32 matrix's exact bit pattern.
fn digest_f32(m: &Matrix) -> u64 {
    fnv1a64(m.as_slice().iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// Digest of a quantized matrix's raw words.
fn digest_raw(m: &QuantizedMatrix) -> u64 {
    fnv1a64(m.raw().iter().flat_map(|x| x.to_le_bytes()))
}

/// Runs `f` `reps` times, returning its digest and the best wall-clock
/// in seconds (the digest is recomputed every rep; that cost is part of
/// every policy's measurement equally).
fn time_min(reps: usize, mut f: impl FnMut() -> u64) -> (u64, f64) {
    let mut digest = 0u64;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        digest = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (digest, best)
}

/// Runs one kernel at one shape under one policy: `(digest, best wall s)`.
fn run_kernel(
    kernel: Kernel,
    shape: Shape,
    seed: u64,
    reps: usize,
    policy: KernelPolicy,
) -> (u64, f64) {
    let qcfg = QuantizationConfig::default();
    let (n, d) = (shape.n, shape.d);
    match kernel {
        Kernel::QMatmul => {
            let a = QuantizedMatrix::quantize(
                &standard_normal_matrix(seed, shape.k0(), d),
                qcfg.centroid,
            );
            let w = QuantizedMatrix::quantize(&standard_normal_matrix(seed ^ 1, d, d), qcfg.weight);
            time_min(reps, || digest_raw(&a.matmul_with(&w, qcfg.centroid, policy)))
        }
        Kernel::QMatmulTb => {
            let wide = QFormat::new(24, qcfg.score.frac_bits());
            let q = QuantizedMatrix::quantize(
                &standard_normal_matrix(seed ^ 2, shape.k0(), d),
                qcfg.centroid,
            );
            let k = QuantizedMatrix::quantize(
                &standard_normal_matrix(seed ^ 3, shape.k1() + shape.k2(), d),
                qcfg.centroid,
            );
            time_min(reps, || digest_raw(&q.matmul_transpose_b_with(&k, wide, policy)))
        }
        Kernel::QSub => {
            let a = QuantizedMatrix::quantize(&standard_normal_matrix(seed ^ 4, n, d), qcfg.token);
            let b = QuantizedMatrix::quantize(&standard_normal_matrix(seed ^ 5, n, d), qcfg.token);
            time_min(reps, || digest_raw(&a.sub_with(&b, policy)))
        }
        Kernel::MatmulF32 => {
            let a = standard_normal_matrix(seed ^ 6, n, d);
            let b = standard_normal_matrix(seed ^ 7, d, n);
            time_min(reps, || digest_f32(&a.matmul_with(&b, policy)))
        }
        Kernel::MatmulTbF32 => {
            let a = standard_normal_matrix(seed ^ 8, n, d);
            let b = standard_normal_matrix(seed ^ 9, n, d);
            time_min(reps, || digest_f32(&a.matmul_transpose_b_with(&b, policy)))
        }
        Kernel::LshHash => {
            let tokens = standard_normal_matrix(seed ^ 10, n, d);
            let family = LshFamily::sample(d, LshParams::new(6, 2.0), seed ^ 11);
            time_min(reps, || {
                fnv1a64(
                    family
                        .hash_matrix_with(&tokens, policy)
                        .as_flat()
                        .iter()
                        .flat_map(|x| x.to_le_bytes()),
                )
            })
        }
        Kernel::PagAggregate => {
            let (k0, k1, k2) = (shape.k0(), shape.k1(), shape.k2());
            let scores = standard_normal_matrix(seed ^ 12, k0, k1 + k2);
            let ct1 = ClusterTable::new((0..n).map(|j| j % k1).collect(), k1);
            let ct2 = ClusterTable::new((0..n).map(|j| (j * 7 + 3) % k2).collect(), k2);
            time_min(reps, || {
                digest_f32(&aggregate_probabilities_kernel(
                    &scores,
                    &ct1,
                    &ct2,
                    k1,
                    |x| x.exp(),
                    policy,
                ))
            })
        }
    }
}

/// All three policies at one grid point: the shared digest (asserted
/// identical across policies) and per-policy best wall-clock seconds in
/// [`KernelPolicy::all`] order.
fn bench_point(kernel: Kernel, shape: Shape, args: &Args) -> (u64, [f64; 3]) {
    let mut digest = None;
    let mut walls = [f64::INFINITY; 3];
    for (pi, policy) in KernelPolicy::all().into_iter().enumerate() {
        let (d, wall) = run_kernel(kernel, shape, args.seed, args.reps, policy);
        match digest {
            None => digest = Some(d),
            Some(d0) => assert_eq!(
                d0,
                d,
                "{policy} diverges from scalar on {} @ {}",
                kernel.label(),
                shape.name
            ),
        }
        walls[pi] = wall;
    }
    (digest.expect("at least one policy ran"), walls)
}

fn run(h: &Harness<Args>) {
    let args = h.args();
    let grid: Vec<(usize, Kernel, Shape)> = Shape::ALL
        .iter()
        .flat_map(|&s| Kernel::ALL.into_iter().map(move |k| (k, s)))
        .enumerate()
        .map(|(i, (k, s))| (i, k, s))
        .collect();

    // Wall-clock measurements per point, collected out-of-band so the
    // pinned CSV/JSON stay deterministic. (grid index, per-policy best s).
    let timings: Mutex<Vec<(usize, [f64; 3])>> = Mutex::new(Vec::new());

    h.run_grid(
        &format!(
            "Kernel microbench — {} kernels × {} shapes × {{scalar, blocked, simd}}, \
             best of {} reps",
            Kernel::ALL.len(),
            Shape::ALL.len(),
            args.reps
        ),
        &grid,
        |&(index, kernel, shape)| {
            let mut out = PointOutput::new();
            let (digest, walls) = bench_point(kernel, shape, args);
            timings.lock().expect("timings").push((index, walls));
            out.row(vec![
                kernel.label().to_string(),
                shape.name.to_string(),
                shape.n.to_string(),
                shape.d.to_string(),
                format!("{digest:016x}"),
                SCHEMA_VERSION.to_string(),
            ]);
            out.point(JsonValue::obj(vec![
                ("kernel", JsonValue::Str(kernel.label().into())),
                ("shape", JsonValue::Str(shape.name.into())),
                ("n", JsonValue::Int(shape.n as i64)),
                ("d", JsonValue::Int(shape.d as i64)),
                ("digest", JsonValue::Str(format!("{digest:016x}"))),
            ]));
            out
        },
        |json| {
            json.set("experiment", JsonValue::Str("kernel_sweep".into()))
                .set("seed", JsonValue::Int(args.seed as i64))
                .set("reps", JsonValue::Int(args.reps as i64))
                .set(
                    "note",
                    JsonValue::Str(
                        "digests are identical across scalar|blocked|simd by construction; \
                         wall-clock lives in BENCH_kernels.json"
                            .into(),
                    ),
                );
        },
    );

    // Wall-clock sidecar: explicitly nondeterministic, so it lives in
    // its own BENCH_ report instead of the pinned files. The sidecar
    // merges one run per (git SHA, date) so the file keeps a trajectory
    // across PRs instead of only the latest numbers.
    let mut measured = timings.into_inner().expect("timings");
    measured.sort_unstable_by_key(|&(index, _)| index);
    let mut bench = BenchSidecar::new("BENCH_kernels");
    bench
        .set("experiment", JsonValue::Str("kernel_sweep".into()))
        .set("seed", JsonValue::Int(args.seed as i64))
        .set("reps", JsonValue::Int(args.reps as i64))
        .set("jobs", JsonValue::Int(h.jobs().get() as i64))
        .set(
            "note",
            JsonValue::Str(
                "wall-clock timings; nondeterministic, use --jobs 1 for uncontended numbers".into(),
            ),
        )
        .set(
            "points",
            JsonValue::Arr(
                measured
                    .iter()
                    .flat_map(|&(index, walls)| {
                        let (_, kernel, shape) = grid[index];
                        KernelPolicy::all().into_iter().zip(walls).map(move |(policy, wall_s)| {
                            JsonValue::obj(vec![
                                ("kernel", JsonValue::Str(kernel.label().into())),
                                ("shape", JsonValue::Str(shape.name.into())),
                                ("n", JsonValue::Int(shape.n as i64)),
                                ("policy", JsonValue::Str(policy.label().into())),
                                ("wall_ms", JsonValue::Num(wall_s * 1e3)),
                                ("speedup_vs_scalar", JsonValue::Num(walls[0] / wall_s)),
                            ])
                        })
                    })
                    .collect(),
            ),
        );
    bench.save();
}

/// The `kernel_sweep` entry point (argv without the program name).
pub fn main(argv: impl Iterator<Item = String>) -> ExitCode {
    SweepSpec::new("kernel_sweep").flags(FLAGS).columns(SWEEP_COLUMNS).main(
        argv,
        Args::from_flags,
        run,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_default_and_parse() {
        let spec = SweepSpec::new("kernel_sweep").flags(FLAGS);
        let h = spec
            .parse(["--seed", "11", "--reps", "2"].iter().map(|s| s.to_string()), Args::from_flags)
            .expect("valid");
        assert_eq!(h.args().seed, 11);
        assert_eq!(h.args().reps, 2);
    }

    #[test]
    fn args_reject_bad_values() {
        let parse = |list: &[&str]| {
            SweepSpec::new("kernel_sweep")
                .flags(FLAGS)
                .parse(list.iter().map(|s| s.to_string()), Args::from_flags)
        };
        assert!(parse(&["--reps", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--seed", "many"]).unwrap_err().contains("--seed"));
        assert!(parse(&["--frob"]).unwrap_err().contains("unknown flag"));
    }

    #[test]
    fn every_point_is_bitwise_identical_across_policies() {
        // The smallest shape over every kernel, one rep: the full
        // cross-policy assertion inside bench_point must hold.
        let args = Args { seed: 3, reps: 1 };
        for kernel in Kernel::ALL {
            let (digest, walls) = bench_point(kernel, Shape::ALL[0], &args);
            assert_ne!(digest, 0, "degenerate digest for {}", kernel.label());
            assert!(walls.iter().all(|w| w.is_finite()));
        }
    }

    #[test]
    fn digests_are_input_sensitive() {
        let a = run_kernel(Kernel::MatmulF32, Shape::ALL[0], 1, 1, KernelPolicy::Scalar).0;
        let b = run_kernel(Kernel::MatmulF32, Shape::ALL[0], 2, 1, KernelPolicy::Scalar).0;
        assert_ne!(a, b, "different seeds must produce different digests");
    }
}
