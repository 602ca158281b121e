//! The repository benchmark: three seeded workloads, each timed from
//! outside the program by calling the crates' public functions.
//!
//! ```text
//! perfbench --workload paper-heads|fleet-low|fleet-sessions|all
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) records a span around every call and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--workload all`
//! runs the three workloads one after another, each in its own process,
//! and prints every metric of each. See `perfbench/README.md` for the
//! design.

mod fleet;
mod paper_heads;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use trace::Tracer;

/// End-to-end metrics (`--trace 0`), printed on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput", "items/s"),
    ("peak_rss_mb", "MB"),
    ("model_p50_ms", "sim_ms"),
    ("model_p99_ms", "sim_ms"),
    ("model_goodput_rps", "1/sim_s"),
    ("model_itl_p99_ms", "sim_ms/token"),
];

/// Per-layer metrics (`--trace 1`), printed on every workload; a layer
/// the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.tokens_ms", "ms"),
    ("workloads.trace_ms", "ms"),
    ("attention.exact_ms", "ms"),
    ("attention.forward_ms", "ms"),
    ("attention.forward_quantized_ms", "ms"),
    ("attention.aggregate_ms", "ms"),
    ("attention.forward_self_ms", "ms"),
    ("attention.output_rel_error", "ratio"),
    ("attention.quantized_rel_error", "ratio"),
    ("attention.host_share", "ratio"),
    ("lsh.families_ms", "ms"),
    ("lsh.compress_ms", "ms"),
    ("lsh.compress_two_level_ms", "ms"),
    ("lsh.k0", "count"),
    ("lsh.k1", "count"),
    ("lsh.k2", "count"),
    ("lsh.host_share", "ratio"),
    ("tensor.matmul_ms", "ms"),
    ("tensor.macs", "count"),
    ("tensor.host_share", "ratio"),
    ("sim.simulate_head_us", "us"),
    ("sim.head_us", "sim_us"),
    ("sim.compression_cycles", "cycles"),
    ("sim.linear_cycles", "cycles"),
    ("sim.attention_cycles", "cycles"),
    ("sim.pag_stall_cycles", "cycles"),
    ("sim.energy_nj", "sim_nJ"),
    ("sim.host_share", "ratio"),
    ("baselines.gpu_us", "sim_us"),
    ("baselines.speedup_vs_gpu", "x"),
    ("serve.config_ms", "ms"),
    ("serve.replay_s", "s"),
    ("serve.events", "count"),
    ("serve.host_us_per_event", "us"),
    ("serve.routing_share", "ratio"),
    ("serve.shed_rate", "ratio"),
    ("serve.retried", "count"),
    ("serve.re_prefill_rate", "ratio"),
    ("serve.sessions_lost", "count"),
    ("serve.min_availability", "ratio"),
    ("serve.utilization_mean", "ratio"),
    ("telemetry.compression_s", "sim_s"),
    ("telemetry.linear_s", "sim_s"),
    ("telemetry.attention_s", "sim_s"),
    ("telemetry.transfer_s", "sim_s"),
    ("telemetry.upload_s", "sim_s"),
    ("telemetry.bubble_s", "sim_s"),
    ("telemetry.sa_occupancy_pct", "%"),
    ("telemetry.overhead", "ratio"),
];

const WORKLOADS: &[&str] = &["paper-heads", "fleet-low", "fleet-sessions"];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: heads computed, or requests offered.
    pub attempted: u64,
    /// Operations that failed a check, plus shed requests.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new() -> Self {
        Self { correct: true, ..Self::default() }
    }

    /// Records a check; a failed one marks the run incorrect and counts
    /// `ops` failed operations.
    pub fn check(&mut self, ok: bool, ops: u64, what: &str) {
        if !ok {
            self.correct = false;
            self.failed += ops;
            eprintln!("check failed: {what}");
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => {
                    args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?
                }
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    };
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("--workload takes {} or all", WORKLOADS.join("|")));
        }
        Ok(args)
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Keeps memory the process frees for reuse instead of returning it to the
/// kernel. By default glibc unmaps large blocks and trims the heap top on
/// free, so every set-up repetition and every replay faults its tens of MB
/// of inputs and state back in, and on a shared VM the cost of a page
/// fault follows the host's memory pressure rather than the program.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // <malloc.h>; 32 MiB is the largest mmap threshold glibc accepts.
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets allocator parameters; it runs first in
    // `main`, before any other thread exists.
    let ok = unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
    };
    if !ok {
        eprintln!("warning: mallopt refused the allocator settings");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn main() -> ExitCode {
    keep_freed_memory();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }

    // An ambient kernel or pool setting would change what is measured:
    // record it, then clear it so every run uses the library defaults.
    for var in ["CTA_KERNELS", "CTA_JOBS"] {
        println!("env {var}={} (cleared)", std::env::var(var).unwrap_or_else(|_| "<unset>".into()));
        std::env::remove_var(var);
    }
    println!("kernel policy: {}", cta_tensor::KernelPolicy::current().label());

    let mut tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "paper-heads" => paper_heads::run(&args, &mut tracer),
        "fleet-low" => fleet::run(fleet::Workload::Low, &args, &mut tracer),
        _ => fleet::run(fleet::Workload::Sessions, &args, &mut tracer),
    };
    outcome.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        println!("{:<42} {:>8} {:>12} {:>12}", "span", "calls", "total ms", "self ms");
        for (name, t) in tracer.totals() {
            let ms = |ns: u64| ns as f64 / 1e6;
            println!("{name:<42} {:>8} {:>12.3} {:>12.3}", t.count, ms(t.total_ns), ms(t.self_ns));
        }
        write_spans(&args, &tracer);
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("workload {} did not report {name}", args.workload),
        };
        println!("metric\t{name}\t{value}\t{unit}");
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        ));
    }
    println!("status\t{}\t{}\t{}", outcome.correct, outcome.attempted, outcome.failed);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    );
    ExitCode::SUCCESS
}

/// JSON has no NaN or infinity; a value that could not be measured is
/// reported as -1 so the line stays parseable.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".into()
    }
}

/// Runs each workload in a child process of this binary, so peak memory
/// and set-up stay per workload, and prints every metric of each.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut rows: Vec<(String, String, String, String)> = Vec::new();
    for workload in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("spawn a workload run");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            eprintln!("{workload} exited with {}", out.status);
            return ExitCode::FAILURE;
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["metric", name, value, unit] => {
                    rows.push((
                        workload.to_string(),
                        name.to_string(),
                        value.to_string(),
                        unit.to_string(),
                    ));
                }
                ["status", c, a, x] => {
                    correct &= *c == "true";
                    attempted += a.parse::<u64>().unwrap_or(0);
                    failed += x.parse::<u64>().unwrap_or(0);
                }
                _ => {}
            }
        }
    }
    println!("{:<16} {:<32} {:>22} unit", "workload", "metric", "value");
    let mut json = String::new();
    for (i, (w, name, value, unit)) in rows.iter().enumerate() {
        println!("{w:<16} {name:<32} {value:>22} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{w}/{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value.parse().unwrap_or(f64::NAN))
        ));
    }
    println!("{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}", attempted.max(1));
    ExitCode::SUCCESS
}

/// Writes the run's spans to `.bench_out/spans-<workload>-seed<N>.csv`.
fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_csv())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64 finaliser: turns the workload seed into well-mixed stream
/// seeds and per-request draws.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f` and returns its seconds with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Set-up timings. The workloads build their inputs afresh before every
/// item they measure, so set-up is timed across the whole run as the
/// items are. Other tenants slow the machine in phases that last seconds:
/// the fastest of set-ups crowded into one second followed whatever that
/// second held, and moved by 31% between two sets of ten runs of the same
/// code.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Replaces `slot` with inputs built by `make` and returns them. The
    /// old inputs are dropped first, so peak memory holds one copy, and
    /// only the build is timed.
    pub fn rebuild<'a, T>(&mut self, slot: &'a mut Option<T>, make: impl FnOnce() -> T) -> &'a T {
        *slot = None;
        let (s, inputs) = timed(make);
        self.0.push(s);
        slot.insert(inputs)
    }

    /// The fastest build (see [`fastest`]); prints how many there were.
    pub fn fastest(&self) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        println!(
            "setup: {} repetitions, fastest {:.6} s, median {:.6} s",
            sorted.len(),
            sorted[0],
            sorted[sorted.len() / 2]
        );
        sorted[0]
    }
}

/// The fastest of a set of timings. Other tenants of the machine only
/// ever slow a run down (memory-heavy phases here swing by 20-30% over
/// seconds while an ALU-bound loop holds within 3%), so the fastest
/// repetition is the steadiest estimate of the code's own speed.
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs `step` until `budget` has elapsed and at least `min_runs` runs
/// finished; returns what each run returned, the seconds of its timed
/// part. Only whole runs count.
pub fn measure(budget: Duration, min_runs: usize, mut step: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_runs || start.elapsed() < budget {
        times.push(step(times.len()));
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_accept_the_contract_and_reject_the_rest() {
        let a =
            parse(&["--workload", "fleet-low", "--seed", "3", "--seconds", "10", "--trace", "1"])
                .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "all", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "all", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }

    /// The metric tables here and in BENCHMARK.json list the same names
    /// and units in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let start = spec.find(&format!("\"{key}\"")).expect("section present");
            let end = spec[start..].find(']').expect("section ends") + start;
            spec[start..end].to_string()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = section(key);
            let names: Vec<String> = body
                .match_indices("\"name\": \"")
                .map(|(i, m)| body[i + m.len()..].split('"').next().expect("quoted").to_string())
                .collect();
            let units: Vec<String> = body
                .match_indices("\"unit\": \"")
                .map(|(i, m)| body[i + m.len()..].split('"').next().expect("quoted").to_string())
                .collect();
            let want_names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            let want_units: Vec<&str> = table.iter().map(|(_, u)| *u).collect();
            assert_eq!(names, want_names, "{key} names");
            assert_eq!(units, want_units, "{key} units");
        }
    }

    #[test]
    fn fastest_and_measure() {
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        let mut calls = 0;
        let times = measure(Duration::ZERO, 3, |i| {
            calls += 1;
            i as f64
        });
        assert_eq!((times, calls), (vec![0.0, 1.0, 2.0], 3));
        let (mut setups, mut slot) = (SetupTimes::default(), Some(1));
        assert_eq!(*setups.rebuild(&mut slot, || 2), 2);
        assert_eq!((slot, setups.0.len()), (Some(2), 1));
    }
}
